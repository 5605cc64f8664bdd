package cubestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dwarf"
)

// Crash-recovery suite: kill the store at injected fault points, reopen,
// and assert that no acknowledged tuple is lost and no segment file is
// orphaned or double-counted. Tests drive the failpoints declared in
// store.go; a failpoint error aborts the operation with the on-disk state
// exactly as a crash at that point would leave it, and crashClose drops the
// poisoned in-memory store without any tidy-up.

var errInjected = errors.New("injected crash")

// openRecoveryStore seeds a store with acked batches; manual seal/compact
// control keeps the interleavings deterministic.
func openRecoveryStore(t *testing.T, dir string, rng *rand.Rand, batches int) (*Store, []dwarf.Tuple) {
	t.Helper()
	s, err := Open(dir, Options{
		Dims:               testDims,
		SealTuples:         1 << 30, // manual seals only
		CompactFanout:      2,
		DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []dwarf.Tuple
	for i := 0; i < batches; i++ {
		batch := randTuples(rng, rng.Intn(15)+1)
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	return s, all
}

// reopenAndVerify reopens dir and asserts the acked tuples are exactly
// reconstructed and the directory holds no stray files.
func reopenAndVerify(t *testing.T, dir string, all []dwarf.Tuple, rng *rand.Rand) *Store {
	t.Helper()
	s, err := Open(dir, Options{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	compareStore(t, s, all, nil, rng, true)
	assertDirAccounted(t, dir, s)
	return s
}

// assertDirAccounted checks every file in dir is either the manifest, a
// manifest-listed segment, or a live WAL generation.
func assertDirAccounted(t *testing.T, dir string, s *Store) {
	t.Helper()
	s.mu.Lock()
	listed := map[string]bool{manifestName: true, lockName: true}
	for _, m := range s.man.Segments {
		listed[m.File] = true
	}
	walGen := s.man.WALGen
	s.mu.Unlock()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if listed[name] {
			continue
		}
		if gen, ok := walGenOf(name); ok && gen >= walGen {
			continue
		}
		t.Errorf("unaccounted file in store dir: %s", name)
	}
}

func TestRecoveryCrashMidWALWrite(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	s, all := openRecoveryStore(t, dir, rng, 6)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn tail: a crash mid-write leaves a clean prefix of a
	// record (header plus part of the payload). It was never acknowledged,
	// so replay must drop it and keep everything before it.
	walFile := ""
	gens, err := listWALGens(dir)
	if err != nil || len(gens) == 0 {
		t.Fatalf("want a live WAL generation, gens=%v err=%v", gens, err)
	}
	walFile = walPath(dir, gens[len(gens)-1])
	rec := appendWALRecord(nil, randTuples(rng, 5))
	torn := rec[:len(rec)-7]
	f, err := os.OpenFile(walFile, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := reopenAndVerify(t, dir, all, rng)

	// The acked tuples survive another round with garbage appended, and the
	// store keeps working after recovery.
	batch := randTuples(rng, 4)
	if err := s2.Append(batch); err != nil {
		t.Fatal(err)
	}
	all = append(all, batch...)
	if err := s2.Seal(); err != nil {
		t.Fatal(err)
	}
	s2.crashClose()
	s3 := reopenAndVerify(t, dir, all, rng)
	s3.Close()
}

func TestRecoveryCrashDuringSeal(t *testing.T) {
	for _, fp := range []string{fpSealBuilt, fpSealSegmentWritten, fpSealManifestSwapped} {
		t.Run(fp, func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(23))
			s, all := openRecoveryStore(t, dir, rng, 8)
			s.setFailpoint(func(name string) error {
				if name == fp {
					return errInjected
				}
				return nil
			})
			if err := s.Seal(); !errors.Is(err, errInjected) {
				t.Fatalf("Seal with failpoint %s = %v", fp, err)
			}
			s.crashClose()

			s2, err := Open(dir, Options{DisableAutoCompact: true})
			if err != nil {
				t.Fatal(err)
			}
			// No acknowledged tuple lost, none double-counted: whether the
			// crash landed before or after the manifest swap, the tuples
			// exist exactly once (WAL replay or sealed segment).
			compareStore(t, s2, all, nil, rng, true)
			assertDirAccounted(t, dir, s2)
			switch fp {
			case fpSealSegmentWritten:
				// The segment file was written but never committed: it must
				// have been deleted as an orphan.
				if s2.orphansRemoved == 0 {
					t.Error("expected the uncommitted segment file to be removed as an orphan")
				}
				if st := s2.Stats(); len(st.Segments) != 0 {
					t.Errorf("uncommitted segment resurrected: %+v", st.Segments)
				}
			case fpSealManifestSwapped:
				// The manifest swap committed the seal: the tuples live in
				// the segment and the old WAL generations are dead.
				if st := s2.Stats(); len(st.Segments) != 1 || st.SealedTuples != len(all) || st.LiveTuples != 0 {
					t.Errorf("committed seal not honored after crash: %+v", st)
				}
			}
			s2.Close()
		})
	}
}

func TestRecoveryCrashDuringCompaction(t *testing.T) {
	for _, fp := range []string{fpCompactSegmentWritten, fpCompactManifestSwapped} {
		t.Run(fp, func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(37))
			s, all := openRecoveryStore(t, dir, rng, 6)
			// Two sealed segments at the same level, fanout 2: compactable.
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			batch := randTuples(rng, 20)
			if err := s.Append(batch); err != nil {
				t.Fatal(err)
			}
			all = append(all, batch...)
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			before := s.Stats()
			if len(before.Segments) != 2 {
				t.Fatalf("setup: want 2 segments, have %+v", before.Segments)
			}
			s.setFailpoint(func(name string) error {
				if name == fp {
					return errInjected
				}
				return nil
			})
			if _, err := s.Compact(); !errors.Is(err, errInjected) {
				t.Fatalf("Compact with failpoint %s = %v", fp, err)
			}
			s.crashClose()

			s2, err := Open(dir, Options{DisableAutoCompact: true})
			if err != nil {
				t.Fatal(err)
			}
			compareStore(t, s2, all, nil, rng, true)
			assertDirAccounted(t, dir, s2)
			st := s2.Stats()
			switch fp {
			case fpCompactSegmentWritten:
				// Before the manifest swap the merged output is an orphan;
				// the inputs must still be live and counted once.
				if len(st.Segments) != 2 {
					t.Errorf("inputs lost or output double-counted: %+v", st.Segments)
				}
				if s2.orphansRemoved == 0 {
					t.Error("expected the uncommitted merged segment to be removed as an orphan")
				}
			case fpCompactManifestSwapped:
				// After the swap the merged segment is the truth and the
				// input files are garbage (deleted at crash or on open).
				if len(st.Segments) != 1 {
					t.Errorf("compaction commit not honored: %+v", st.Segments)
				}
			}
			if st.SealedTuples != len(all) {
				t.Errorf("sealed tuples = %d, acked %d", st.SealedTuples, len(all))
			}
			// The surviving store compacts to completion.
			if _, err := s2.Compact(); err != nil {
				t.Fatal(err)
			}
			compareStore(t, s2, all, nil, rng, true)
			s2.Close()
		})
	}
}

// TestRecoveryRepeatedCrashes interleaves appends with crashes at every
// fault point in sequence, reopening each time — the accumulated store must
// always equal the batch build of everything acked so far.
func TestRecoveryRepeatedCrashes(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(53))
	var all []dwarf.Tuple
	points := []string{fpSealBuilt, fpSealSegmentWritten, fpSealManifestSwapped,
		fpCompactSegmentWritten, fpCompactManifestSwapped, "none"}
	for round, fp := range points {
		s, err := Open(dir, Options{
			Dims:               testDims,
			SealTuples:         1 << 30,
			CompactFanout:      2,
			DisableAutoCompact: true,
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for b := 0; b < 3; b++ {
			batch := randTuples(rng, rng.Intn(12)+1)
			if err := s.Append(batch); err != nil {
				t.Fatal(err)
			}
			all = append(all, batch...)
		}
		s.setFailpoint(func(name string) error {
			if name == fp {
				return fmt.Errorf("%w at %s", errInjected, name)
			}
			return nil
		})
		sealErr := s.Seal()
		var compactErr error
		if sealErr == nil {
			_, compactErr = s.Compact()
		}
		if fp != "none" && sealErr == nil && compactErr == nil {
			// The fault point may legitimately not be reached (e.g. no
			// compactable group yet); that is still a valid crash state.
			t.Logf("round %d: failpoint %s not reached", round, fp)
		}
		s.crashClose()
		s2 := reopenAndVerify(t, dir, all, rng)
		s2.Close()
	}
	if len(all) == 0 {
		t.Fatal("no tuples acked")
	}
}

// TestRecoveryMidFileWALCorruption: a CRC-corrupt record with acknowledged
// records after it is not a torn tail — reopening must fail loudly rather
// than silently dropping the acked records behind the damage.
func TestRecoveryMidFileWALCorruption(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(83))
	s, _ := openRecoveryStore(t, dir, rng, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	gens, err := listWALGens(dir)
	if err != nil || len(gens) == 0 {
		t.Fatalf("gens=%v err=%v", gens, err)
	}
	path := walPath(dir, gens[len(gens)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 32 {
		t.Fatalf("wal only %d bytes", len(data))
	}
	data[12] ^= 0xff // flip a payload byte of the FIRST record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("open over mid-file WAL corruption = %v, want ErrCorruptWAL", err)
	}
}

// TestRecoveryHugeCountWALRecord: a CRC-valid frame claiming an absurd
// tuple count must fail cleanly, not attempt an OOM-sized allocation.
func TestRecoveryHugeCountWALRecord(t *testing.T) {
	payload := make([]byte, 64)
	n := binary.PutUvarint(payload, 1<<40)
	_ = n
	if _, err := decodeWALPayload(payload); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("huge count = %v, want ErrCorruptWAL", err)
	}
	// Huge claimed ndims inside a plausible count likewise.
	p := binary.AppendUvarint(nil, 1)  // one tuple
	p = binary.AppendUvarint(p, 1<<40) // absurd ndims
	p = append(p, make([]byte, 32)...) // some bytes
	if _, err := decodeWALPayload(p); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("huge ndims = %v, want ErrCorruptWAL", err)
	}
}

// TestRecoveryRefusesManifestlessStoreFiles: a directory holding segments
// or WAL generations without a MANIFEST is a damaged store; initializing a
// fresh store there would wipe it.
func TestRecoveryRefusesManifestlessStoreFiles(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(97))
	s, _ := openRecoveryStore(t, dir, rng, 4)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	segFile := s.Stats().Segments[0].File
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Dims: testDims}); err == nil {
		t.Fatal("open must refuse a manifest-less directory holding store files")
	}
	if _, err := os.Stat(filepath.Join(dir, segFile)); err != nil {
		t.Fatalf("refused open must not touch the segment file: %v", err)
	}
}

// TestRecoveryManifestIsTruth corrupts nothing but deletes a manifest-listed
// segment file: Open must fail loudly instead of silently serving partial
// answers.
func TestRecoveryManifestIsTruth(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(71))
	s, _ := openRecoveryStore(t, dir, rng, 4)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Segments) != 1 {
		t.Fatalf("want 1 segment, have %+v", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, st.Segments[0].File)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open with a missing manifest-listed segment should fail")
	}
}

// TestRecoveryCrashWithQueuedCommits crashes with a non-empty commit queue:
// batches handed to the committer but never written. None of them was
// acknowledged, so after reopen exactly the previously-acked tuples exist —
// the queued batches must not surface, and the earlier acks must not be
// lost.
func TestRecoveryCrashWithQueuedCommits(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(131))
	s, all := openRecoveryStore(t, dir, rng, 5)
	s.setFailpoint(func(name string) error {
		if name == fpCommitWrite {
			return errInjected
		}
		return nil
	})
	// Concurrent writers pile batches into the commit queue; the committer
	// dies before writing any of them.
	const writers = 4
	batches := make([][]dwarf.Tuple, writers)
	for w := range batches {
		batches[w] = randTuples(rng, rng.Intn(8)+1)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := s.Append(batches[w]); !errors.Is(err, errInjected) {
				t.Errorf("queued append %d = %v, want injected crash", w, err)
			}
		}(w)
	}
	wg.Wait()
	s.crashClose()

	s2 := reopenAndVerify(t, dir, all, rng)
	// The unwritten batches stay gone, and the reopened store accepts the
	// retries cleanly.
	for w := 0; w < writers; w++ {
		if err := s2.Append(batches[w]); err != nil {
			t.Fatal(err)
		}
		all = append(all, batches[w]...)
	}
	compareStore(t, s2, all, nil, rng, true)
	s2.Close()
}

// TestRecoveryCrashWithFrozenPending stacks several frozen memtables behind
// a failing sealer, then crashes. Every frozen tuple is still covered by
// its live WAL generation (the manifest never advanced), so replay must
// reconstruct all of them exactly once.
func TestRecoveryCrashWithFrozenPending(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(137))
	s, err := Open(dir, Options{
		Dims:               testDims,
		SealTuples:         1 << 30, // manual freezes only
		MaxFrozen:          4,
		DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.setFailpoint(func(name string) error {
		if name == fpSealBuilt {
			return errInjected
		}
		return nil
	})
	var all []dwarf.Tuple
	for round := 0; round < 3; round++ {
		batch := randTuples(rng, rng.Intn(10)+1)
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
		// The freeze succeeds (memtable swapped, WAL rotated) but every seal
		// attempt dies before writing anything: the frozen queue grows.
		if err := s.Seal(); !errors.Is(err, errInjected) {
			t.Fatalf("round %d: Seal = %v, want injected crash", round, err)
		}
	}
	st := s.Stats()
	if st.SealQueueDepth != 3 || st.FrozenMemtables != 3 || st.Seals != 0 {
		t.Fatalf("want 3 frozen memtables pending, stats = %+v", st)
	}
	// Read-your-writes holds across the frozen stack before the crash.
	compareStore(t, s, all, nil, rng, false)
	s.crashClose()

	// Reopen replays the (still live) WAL generations of all three frozen
	// memtables plus the live one: every acked tuple exactly once, and the
	// recovered store seals to completion.
	s2 := reopenAndVerify(t, dir, all, rng)
	if err := s2.Seal(); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.SealedTuples != len(all) || st.LiveTuples != 0 || st.SealQueueDepth != 0 {
		t.Fatalf("recovered store did not seal cleanly: %+v", st)
	}
	compareStore(t, s2, all, nil, rng, true)
	assertDirAccounted(t, dir, s2)
	s2.Close()
}

// TestRecoverySealFailureRequeueReopen: a seal that dies after writing its
// segment file (but before the manifest commit) keeps its frozen memtable
// queued; the retry seals the same tuples into a fresh segment, and the
// reopen removes the abandoned file — the tuples exist exactly once
// throughout.
func TestRecoverySealFailureRequeueReopen(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(139))
	s, all := openRecoveryStore(t, dir, rng, 6)
	var attempts atomic.Int32
	s.setFailpoint(func(name string) error {
		if name == fpSealSegmentWritten && attempts.Add(1) == 1 {
			return errInjected
		}
		return nil
	})
	// The first attempt may be taken by the explicit Seal or by the kicked
	// background sealer; either way it fails, requeues the frozen memtable,
	// and a later drive seals it.
	if err := s.Seal(); err != nil && !errors.Is(err, errInjected) {
		t.Fatalf("Seal = %v", err)
	}
	for s.Stats().Seals == 0 {
		if err := s.Seal(); err != nil {
			t.Fatalf("retry Seal = %v", err)
		}
	}
	if n := attempts.Load(); n < 2 {
		t.Fatalf("seal attempts = %d, want a failure plus a successful retry", n)
	}
	st := s.Stats()
	if st.Seals != 1 || st.SealQueueDepth != 0 || st.SealedTuples != len(all) || st.LastSealError != "" {
		t.Fatalf("after requeued seal: %+v", st)
	}
	compareStore(t, s, all, nil, rng, true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The failed attempt's segment file is still on disk, unreferenced;
	// reopen deletes it and serves the committed copy only.
	s2 := reopenAndVerify(t, dir, all, rng)
	if s2.orphansRemoved == 0 {
		t.Error("expected the abandoned segment file from the failed seal attempt to be removed")
	}
	s2.Close()
}
