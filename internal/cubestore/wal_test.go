package cubestore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dwarf"
)

// Tests of the prepared WAL layout: zero-filled generations written in
// place, one frame per commit group (see wal.go).

const sectorSize = 512

// preparedOpts keep every preparation small: a prepared generation is
// sized for SealTuples tuples.
func preparedOpts() Options {
	return Options{Dims: testDims, SealTuples: 200, DisableAutoCompact: true}
}

// fillGeneration appends batches until the live generation reaches
// SealTuples and freezes, which is what starts a preparation.
func fillGeneration(t *testing.T, s *Store, rng *rand.Rand, all []dwarf.Tuple) []dwarf.Tuple {
	t.Helper()
	frozen := s.Stats().FrozenMemtables
	for s.Stats().FrozenMemtables == frozen {
		all = appendAll(t, s, all, randTuples(rng, 50))
	}
	return all
}

// waitPrepared waits until the store's preparer has a generation ready.
func waitPrepared(t *testing.T, s *Store) uint64 {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		s.mu.Lock()
		l := s.prepared
		s.mu.Unlock()
		if l != nil {
			return l.gen
		}
	}
	t.Fatal("no WAL generation was prepared")
	return 0
}

// activeWAL returns the store's live generation and whether it is prepared.
func activeWAL(s *Store) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.path, s.wal.framed
}

func appendAll(t *testing.T, s *Store, all []dwarf.Tuple, batch []dwarf.Tuple) []dwarf.Tuple {
	t.Helper()
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	return append(all, batch...)
}

// openPreparedStore returns a durable store whose live generation is a
// prepared one, still empty: the first full generation's freeze falls back
// to an appended generation and starts a preparation, the second takes it.
func openPreparedStore(t *testing.T, dir string, rng *rand.Rand) (*Store, []dwarf.Tuple) {
	t.Helper()
	s, err := Open(dir, preparedOpts())
	if err != nil {
		t.Fatal(err)
	}
	return s, toPrepared(t, s, rng, nil)
}

// toPrepared fills generations until the live one is a prepared one. Once
// a full generation has planned a preparation, it waits for it before
// filling the next. (After a reopen, replayed tuples can freeze the first
// generation before it fills, and that freeze plans nothing.)
func toPrepared(t *testing.T, s *Store, rng *rand.Rand, all []dwarf.Tuple) []dwarf.Tuple {
	t.Helper()
	for i := 0; i < 4; i++ {
		all = fillGeneration(t, s, rng, all)
		if _, framed := activeWAL(s); framed {
			return all
		}
		s.mu.Lock()
		planned := s.prepSize > 0
		s.mu.Unlock()
		if planned {
			waitPrepared(t, s)
		}
	}
	t.Fatal("the live generation never became a prepared one")
	return nil
}

// copyStore copies every store file of src (not the LOCK) into a new
// directory, replacing the file named swap with data.
func copyStore(t *testing.T, src, swap string, data []byte) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == lockName {
			continue
		}
		b := data
		if e.Name() != swap {
			if b, err = os.ReadFile(filepath.Join(src, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// frameOffsets lists where the intact frames of a prepared image start.
func frameOffsets(data []byte) []int {
	var offs []int
	for off := len(walMagic); ; {
		body, ok := frameAt(data, off)
		if !ok {
			return offs
		}
		offs = append(offs, off)
		off += frameHdrLen + len(body)
	}
}

// TestPreparedTornFinalGroup tears the last commit group of a prepared
// generation at sector granularity: every subset of the sectors it wrote
// is left as written or as it was before (zeros past the acked frames).
// Each image must open with exactly the acknowledged batches, plus the
// last one only where all of its bytes landed.
func TestPreparedTornFinalGroup(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2101))
	s, all := openPreparedStore(t, dir, rng)
	for i := 0; i < 4; i++ {
		all = appendAll(t, s, all, randTuples(rng, 10))
	}
	path, _ := activeWAL(s)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := randTuples(rng, 70)
	withLast := appendAll(t, s, all, last)
	s.crashClose()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(after)
	start := offs[len(offs)-1]
	body, _ := frameAt(after, start)
	end := start + frameHdrLen + len(body)
	first, lastSector := start/sectorSize, (end-1)/sectorSize
	n := lastSector - first + 1
	if n < 3 || n > 8 {
		t.Fatalf("final group spans %d sectors; resize it", n)
	}
	for mask := 0; mask < 1<<n; mask++ {
		img := append([]byte(nil), before...)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				lo := (first + i) * sectorSize
				copy(img[lo:min(lo+sectorSize, len(img))], after[lo:])
			}
		}
		want := all
		if bytes.Equal(img[start:end], after[start:end]) {
			want = withLast
		}
		d := copyStore(t, dir, filepath.Base(path), img)
		s2, err := Open(d, Options{DisableAutoCompact: true})
		if err != nil {
			t.Fatalf("sectors %0*b: open: %v", n, mask, err)
		}
		if got := s2.TotalTuples(); got != len(want) {
			t.Fatalf("sectors %0*b: %d tuples, want %d", n, mask, got, len(want))
		}
		compareStore(t, s2, want, nil, rng, true)
		s2.Close()
	}
}

// TestPreparedAckedFrameDamage: damage to an acknowledged frame with an
// intact group after it is ErrCorruptWAL, not a torn tail — whether a byte
// flipped or a whole sector read back as zeros, in the body or the header.
func TestPreparedAckedFrameDamage(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2203))
	s, _ := openPreparedStore(t, dir, rng)
	for i := 0; i < 3; i++ {
		appendAll(t, s, nil, randTuples(rng, 60))
	}
	path, _ := activeWAL(s)
	s.crashClose()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(data)
	if len(offs) != 3 {
		t.Fatalf("want 3 frames, have %d", len(offs))
	}
	// A sector wholly inside the first frame's body.
	sector := (offs[0] + frameHdrLen + sectorSize - 1) / sectorSize * sectorSize
	if sector+sectorSize > offs[1] {
		t.Fatalf("first frame too short for a whole sector: %v", offs)
	}
	damage := map[string]func(img []byte){
		"flipped body byte":   func(img []byte) { img[offs[0]+frameHdrLen+20] ^= 0x40 },
		"flipped header byte": func(img []byte) { img[offs[1]+5] ^= 0x01 },
		"zeroed body sector":  func(img []byte) { clear(img[sector : sector+sectorSize]) },
		"zeroed header":       func(img []byte) { clear(img[offs[1] : offs[1]+frameHdrLen]) },
	}
	for name, fn := range damage {
		t.Run(name, func(t *testing.T) {
			img := append([]byte(nil), data...)
			fn(img)
			d := copyStore(t, dir, filepath.Base(path), img)
			if _, err := Open(d, Options{DisableAutoCompact: true}); !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("open = %v, want ErrCorruptWAL", err)
			}
		})
	}
}

// TestPreparedReopenAndCrash: a prepared generation in use survives a
// crash and a clean close; a prepared one no freeze took replays as empty
// after a crash and is removed by Close.
func TestPreparedReopenAndCrash(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2309))
	s, all := openPreparedStore(t, dir, rng)
	all = appendAll(t, s, all, randTuples(rng, 9))
	unused := waitPrepared(t, s)
	s.crashClose()
	if _, err := os.Stat(walPath(dir, unused)); err != nil {
		t.Fatalf("crash removed the unused prepared generation: %v", err)
	}

	s2, err := Open(dir, preparedOpts())
	if err != nil {
		t.Fatal(err)
	}
	compareStore(t, s2, all, nil, rng, true)
	assertDirAccounted(t, dir, s2)
	if gen := s2.Stats().WALGen; gen <= unused {
		t.Fatalf("reopen: live generation %d, want one past %d", gen, unused)
	}
	if _, framed := activeWAL(s2); framed {
		t.Fatal("reopen: live generation is a prepared one")
	}
	// Back onto a prepared generation, then a clean close.
	all = toPrepared(t, s2, rng, all)
	all = appendAll(t, s2, all, randTuples(rng, 11))
	unused = waitPrepared(t, s2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(walPath(dir, unused)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Close left the unused prepared generation: %v", err)
	}
	s3 := reopenAndVerify(t, dir, all, rng)
	s3.Close()
}

// TestPreparedGenerationOutgrown: batches past the prepared size extend
// the file and still replay.
func TestPreparedGenerationOutgrown(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2411))
	s, all := openPreparedStore(t, dir, rng)
	path, _ := activeWAL(s)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	prepared := st.Size()
	long := strings.Repeat("x", 400)
	for s.Stats().WALBytes < 3*prepared {
		batch := randTuples(rng, 8)
		for i := range batch {
			batch[i].Dims[2] += long
		}
		all = appendAll(t, s, all, batch)
	}
	s.crashClose()
	if st, err := os.Stat(path); err != nil || st.Size() < 3*prepared {
		t.Fatalf("file did not grow past its preparation (%d bytes): %v", prepared, err)
	}
	s2 := reopenAndVerify(t, dir, all, rng)
	s2.Close()
}

// frameInKeyImage lays out a prepared generation whose last group is torn
// in its final bytes, past a key that holds a whole frame: the group's
// header landed, its body CRC fails, and an intact frame starts inside it.
// It returns the image and the batches acknowledged before that group.
func frameInKeyImage(t testing.TB, rng *rand.Rand) ([]byte, [][]dwarf.Tuple) {
	acked := [][]dwarf.Tuple{randTuples(rng, 3), randTuples(rng, 2)}
	inner := frameBytes(t, [][]dwarf.Tuple{randTuples(rng, 2)})[len(walMagic):]
	last := randTuples(rng, 2)
	last[0].Dims[1] = string(inner)
	img := frameBytes(t, acked[:1], acked[1:], [][]dwarf.Tuple{last})
	clear(img[len(img)-8:])
	return img, acked
}

// TestPreparedTornGroupHidesFrame: a torn last group whose header checks
// out is skipped by its own length, so a frame held in one of its keys is
// not taken for a later, acknowledged group.
func TestPreparedTornGroupHidesFrame(t *testing.T) {
	img, acked := frameInKeyImage(t, rand.New(rand.NewSource(2441)))
	var got [][]dwarf.Tuple
	err := replayWALData(bytes.NewReader(img), int64(len(img)), func(tuples []dwarf.Tuple) error {
		got = append(got, tuples)
		return nil
	})
	if err != nil || !reflect.DeepEqual(got, acked) {
		t.Fatalf("replay = %d batches, %v; want the %d acknowledged ones", len(got), err, len(acked))
	}
}

// TestRecoveryAppendedWALFixture opens a store written entirely in the
// appended layout by the code before prepared generations existed
// (testdata/v1wal: a sealed segment, a frozen generation whose seal
// failed, and the live one) and replays it unchanged.
func TestRecoveryAppendedWALFixture(t *testing.T) {
	dir := copyStore(t, filepath.Join("testdata", "v1wal"), "", nil)
	rng := rand.New(rand.NewSource(2031))
	var all []dwarf.Tuple
	for i := 0; i < 3; i++ {
		all = append(all, randTuples(rng, 4+i)...)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			all = append(all, randTuples(rng, 5+i)...)
		}
	}
	s := reopenAndVerify(t, dir, all, rng)
	if st := s.Stats(); st.SealedTuples != 15 || st.LiveTuples != 36 {
		t.Fatalf("fixture replayed as %d sealed + %d live tuples, want 15 + 36", st.SealedTuples, st.LiveTuples)
	}
	s.Close()
}

// TestStoresThatNeverPrepare: a NoSync store runs no preparer, and a
// durable store whose generations freeze before they fill (sealed by hand,
// as a bulk load does) plans no preparation; neither writes a prepared
// file, however often it freezes.
func TestStoresThatNeverPrepare(t *testing.T) {
	for _, noSync := range []bool{true, false} {
		name := map[bool]string{true: "NoSync", false: "sealed by hand"}[noSync]
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(2503))
			opts := preparedOpts()
			opts.NoSync = noSync
			if noSync {
				opts.SealTuples = 20 // freezes at the threshold
			}
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			var all []dwarf.Tuple
			for i := 0; i < 30; i++ {
				all = appendAll(t, s, all, randTuples(rng, 7))
				if !noSync && i%5 == 4 {
					if err := s.Seal(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if st := s.Stats(); st.FrozenMemtables < 5 {
				t.Fatalf("only %d freezes", st.FrozenMemtables)
			}
			s.mu.Lock()
			prepared, size := s.prepared, s.prepSize
			s.mu.Unlock()
			if prepared != nil || size != 0 {
				t.Fatalf("planned a preparation: %v, %d bytes", prepared, size)
			}
			compareStore(t, s, all, nil, rng, true)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(e.Name(), walPrefix) && (bytes.HasPrefix(data, []byte(walMagic)) || !strings.HasSuffix(e.Name(), walSuffix)) {
					t.Errorf("wrote prepared WAL file %s", e.Name())
				}
			}
		})
	}
}

const noGen = ^uint64(0)

// syncEvents records the sync hook's calls.
type syncEvents struct {
	mu  sync.Mutex
	ops []string
	// failDir fails the directory sync of that generation (noGen: none).
	failDir uint64
}

func (e *syncEvents) hook(op string, gen uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ops = append(e.ops, fmt.Sprint(op, " ", gen))
	if op == "dir" && gen == e.failDir {
		return errInjected
	}
	return nil
}

func (e *syncEvents) reset(failDir uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ops, e.failDir = nil, failDir
}

// index returns the position of op on gen among the recorded events, or -1.
func (e *syncEvents) index(op string, gen uint64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, o := range e.ops {
		if o == fmt.Sprint(op, " ", gen) {
			return i
		}
	}
	return -1
}

func (e *syncEvents) count(op string, gen uint64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, o := range e.ops {
		if o == fmt.Sprint(op, " ", gen) {
			n++
		}
	}
	return n
}

// TestFreezeSyncsNewGenerationDir pins when a new WAL generation's
// directory entry becomes durable. A freeze with no prepared generation
// ready creates an appended one; its directory is synced before the first
// batch into it is acknowledged, and a failure there fails that batch. A
// prepared generation was directory-synced by the preparer, before any
// commit synced into it, and the committer does not repeat it.
func TestFreezeSyncsNewGenerationDir(t *testing.T) {
	ev := syncEvents{failDir: noGen}
	setSyncHook(ev.hook)
	defer setSyncHook(nil)
	rng := rand.New(rand.NewSource(2609))

	t.Run("fallback", func(t *testing.T) {
		ev.reset(noGen)
		s, err := Open(t.TempDir(), preparedOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		appendAll(t, s, nil, randTuples(rng, 5))
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		gen := s.Stats().WALGen
		if _, framed := activeWAL(s); framed || ev.count("dir", gen) != 0 {
			t.Fatalf("first freeze: prepared=%v, dir syncs of gen %d = %d", framed, gen, ev.count("dir", gen))
		}
		appendAll(t, s, nil, randTuples(rng, 5))
		dir, data := ev.index("dir", gen), ev.index("data", gen)
		if dir < 0 || data < 0 || dir > data {
			t.Fatalf("acked into generation %d with events %v", gen, ev.ops)
		}
		appendAll(t, s, nil, randTuples(rng, 5))
		if n := ev.count("dir", gen); n != 1 {
			t.Fatalf("generation %d dir-synced %d times", gen, n)
		}
	})

	t.Run("fallback dir sync fails", func(t *testing.T) {
		s, err := Open(t.TempDir(), preparedOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer s.crashClose()
		appendAll(t, s, nil, randTuples(rng, 5))
		s.mu.Lock()
		ev.reset(s.nextGen)
		s.mu.Unlock()
		defer ev.reset(noGen)
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(randTuples(rng, 5)); !errors.Is(err, errInjected) {
			t.Fatalf("append over a failed directory sync = %v, want the sync's error", err)
		}
	})

	t.Run("prepared", func(t *testing.T) {
		ev.reset(noGen)
		s, _ := openPreparedStore(t, t.TempDir(), rng)
		defer s.Close()
		gen := s.Stats().WALGen
		appendAll(t, s, nil, randTuples(rng, 5))
		dir, data := ev.index("dir", gen), ev.index("data", gen)
		if dir < 0 || data < 0 || dir > data || ev.count("dir", gen) != 1 {
			t.Fatalf("prepared generation %d: events %v", gen, ev.ops)
		}
	})
}

// frameBytes lays out groups of batches as a prepared generation, through
// the committer's own frame writer.
func frameBytes(t testing.TB, groups ...[][]dwarf.Tuple) []byte {
	var buf bytes.Buffer
	buf.WriteString(walMagic)
	l := &wal{framed: true, w: bufio.NewWriter(&buf)}
	for _, g := range groups {
		reqs := make([]*commitReq, len(g))
		for i, b := range g {
			reqs[i] = &commitReq{tuples: b, rec: appendWALRecord(nil, b)}
		}
		if _, err := l.commit(reqs, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// intactRecords is the fuzz oracle: the batches of the chain of intact
// records (appended layout) or frames (prepared layout) from the start of
// img, found without the replay code's framing.
func intactRecords(img []byte) [][]dwarf.Tuple {
	var out [][]dwarf.Tuple
	records := func(b []byte, whole bool) bool {
		for len(b) >= 8 {
			n := int(binary.LittleEndian.Uint32(b[4:]))
			if n > len(b)-8 || crc32.ChecksumIEEE(b[8:8+n]) != binary.LittleEndian.Uint32(b) {
				return false
			}
			tuples, err := decodeWALPayload(b[8 : 8+n])
			if err != nil {
				return false
			}
			out = append(out, tuples)
			b = b[8+n:]
		}
		return !whole || len(b) == 0
	}
	if !bytes.HasPrefix(img, []byte(walMagic)) {
		records(img, false)
		return out
	}
	for b := img[len(walMagic):]; len(b) >= frameHdrLen; {
		n := int(binary.LittleEndian.Uint32(b[4:]))
		if n == 0 || n > len(b)-frameHdrLen ||
			crc32.ChecksumIEEE(b[4:frameHdrLen]) != binary.LittleEndian.Uint32(b) ||
			crc32.ChecksumIEEE(b[frameHdrLen:frameHdrLen+n]) != binary.LittleEndian.Uint32(b[8:]) ||
			!records(b[frameHdrLen:frameHdrLen+n], true) {
			break
		}
		b = b[frameHdrLen+n:]
	}
	return out
}

// FuzzReplayWAL feeds arbitrary bytes to replay, in the appended layout and
// (with prepared set) behind the prepared magic. Replay must not panic,
// must return nil or ErrCorruptWAL, must allocate in proportion to the
// input rather than to any length read from it, and must return only
// batches of intact frames: a prefix of the oracle's intact chain, all of
// it when replay succeeds.
func FuzzReplayWAL(f *testing.F) {
	rng := rand.New(rand.NewSource(2707))
	b := func(n int) []dwarf.Tuple { return randTuples(rng, n) }
	var v1 []byte
	for _, n := range []int{3, 1, 5} {
		v1 = append(v1, appendWALRecord(nil, b(n))...)
	}
	f.Add(v1, false)
	f.Add(v1[:len(v1)-3], false)
	framed := frameBytes(f, [][]dwarf.Tuple{b(2), b(4)}, [][]dwarf.Tuple{b(3)}, [][]dwarf.Tuple{b(1), b(1), b(2)})
	framed = append(framed, make([]byte, 300)...)
	f.Add(framed[len(walMagic):], true)
	torn := append([]byte(nil), framed...)
	clear(torn[len(torn)-330 : len(torn)-310])
	f.Add(torn[len(walMagic):], true)
	mid := append([]byte(nil), framed...)
	mid[len(walMagic)+frameHdrLen+9] ^= 1
	f.Add(mid[len(walMagic):], true)
	hidden, _ := frameInKeyImage(f, rng)
	f.Add(hidden[len(walMagic):], true)
	f.Add([]byte{}, true)
	f.Add(make([]byte, 64), false)

	f.Fuzz(func(t *testing.T, data []byte, prepared bool) {
		img := data
		if prepared {
			img = append([]byte(walMagic), data...)
		}
		var got [][]dwarf.Tuple
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		err := replayWALData(bytes.NewReader(img), int64(len(img)), func(tuples []dwarf.Tuple) error {
			got = append(got, tuples)
			return nil
		})
		runtime.ReadMemStats(&ms)
		// Decoded tuples cost more than their bytes (slice and string
		// headers), by a bounded factor; the slack covers the read buffer.
		if alloc := ms.TotalAlloc - before; alloc > 64*uint64(len(img))+1<<20 {
			t.Fatalf("replay of %d bytes allocated %d", len(img), alloc)
		}
		if err != nil && !errors.Is(err, ErrCorruptWAL) {
			t.Fatalf("replay = %v, want nil or ErrCorruptWAL", err)
		}
		want := intactRecords(img)
		if len(got) > len(want) || (err == nil && len(got) != len(want)) {
			t.Fatalf("replay returned %d batches (err %v), the intact chain holds %d", len(got), err, len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("batch %d = %v, intact chain has %v", i, got[i], want[i])
			}
		}
	})
}
