package cubestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/dwarf"
)

// Seal-path suite: the seals of one drain share a dwarf.Scratch, and
// background compaction yields to queued seals.

// TestStoreSealScratchAliasing drains four frozen memtables in one
// drainFrozen, so later seals rebuild in the buffer an earlier seal's bytes
// came from. One memtable was folded into a lone run by a read, so its
// seal writes the run's own bytes (IndexedBytes' lone-run path), and one
// holds a run plus an unfolded tail (the merge path). Every segment must
// be the batch encoding of its memtable, and the *dwarf.Runs handed out
// before the drain must read the same bytes and answers after it.
func TestStoreSealScratchAliasing(t *testing.T) {
	const sealTuples = 200
	dir := t.TempDir()
	s, err := Open(dir, Options{
		Dims:               testDims,
		SealTuples:         sealTuples,
		MaxFrozen:          8,
		DisableAutoCompact: true,
		NoSync:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var hold atomic.Bool
	hold.Store(true)
	s.setFailpoint(func(name string) error {
		if name == fpSealBuilt && hold.Load() {
			return errInjected
		}
		return nil
	})
	rng := rand.New(rand.NewSource(301))
	appendN := func(n int) []dwarf.Tuple {
		t.Helper()
		batch := randTuples(rng, n)
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		return batch
	}
	wild := []string{dwarf.All, dwarf.All, dwarf.All}

	// Memtable 0: a read folds its first half into a run, the second half
	// stays a tail.
	mems := [][]dwarf.Tuple{appendN(sealTuples / 2)}
	if _, err := s.Point(wild...); err != nil {
		t.Fatal(err)
	}
	mems[0] = append(mems[0], appendN(sealTuples/2)...)
	for i := 1; i < 4; i++ {
		mems = append(mems, appendN(sealTuples))
	}
	waitForStats(t, s, "four frozen memtables", func(st Stats) bool {
		return st.SealQueueDepth == 4
	})

	// Memtable 2 is folded whole: one run, nothing pending.
	s.mu.Lock()
	fz := s.frozen[2]
	s.mu.Unlock()
	held, err := fz.mem.Runs()
	if err != nil {
		t.Fatal(err)
	}
	runData, err := fz.mem.IndexedBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := fz.mem.IndexedBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &runData[0] {
		t.Fatal("a memtable folded whole did not hand out its lone run's bytes")
	}
	runCopy := bytes.Clone(runData)
	answers := func() string {
		t.Helper()
		all, err := held.Point(wild...)
		if err != nil {
			t.Fatal(err)
		}
		groups, err := held.GroupBy(1, make([]dwarf.Selector, len(testDims)))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v %v", all, groups)
	}
	before := answers()

	hold.Store(false)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	segs := s.Stats().Segments
	if len(segs) != len(mems) {
		t.Fatalf("%d memtables sealed into %d segments", len(mems), len(segs))
	}
	for i, seg := range segs {
		got, err := os.ReadFile(filepath.Join(dir, seg.File))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := dwarf.New(testDims, mems[i])
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := ref.EncodeIndexed(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("segment %d (%s) is not its memtable's batch encoding: %d vs %d bytes", i, seg.File, len(got), want.Len())
		}
	}
	if !bytes.Equal(runData, runCopy) {
		t.Fatal("the held run's bytes changed while later seals reused the scratch")
	}
	if after := answers(); after != before {
		t.Fatalf("the held runs answer differently after the drain:\n%s\n%s", before, after)
	}
}

// yieldStore is a store with two level-0 segments, one full compaction's
// worth at CompactFanout 2, and a frozen memtable whose seal the sealer
// holds at its failpoint (see openYieldStore).
type yieldStore struct {
	*Store
	result chan error
	// attempts counts seal attempts; with failCompact set, every
	// compaction fails after writing its output.
	attempts    atomic.Int32
	failCompact atomic.Bool
}

// release ends the held seal with err; with a non-nil err every later
// seal attempt fails too, until the failpoint is cleared.
func (y *yieldStore) release(err error) { y.result <- err }

// openYieldStore sets up a yieldStore. The two segments are sealed in the
// drain that holds the third seal, so that drain has kicked no compaction
// yet, and with SealAge 0 no tick compacts.
func openYieldStore(t *testing.T) *yieldStore {
	t.Helper()
	s, err := Open(t.TempDir(), Options{
		Dims:          testDims,
		SealTuples:    10,
		CompactFanout: 2,
		MaxFrozen:     4,
		NoSync:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	y := &yieldStore{Store: s, result: make(chan error, 1)}
	rng := rand.New(rand.NewSource(302))
	if err := s.Append(randTuples(rng, 10)); err != nil {
		t.Fatal(err)
	}
	waitForStats(t, s, "first seal", func(st Stats) bool { return st.Seals == 1 })

	// The next seal waits at its failpoint until the third memtable has
	// frozen behind it; the seal after it is held until release.
	reached, gate, held := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var later error
	s.setFailpoint(func(name string) error {
		switch name {
		case fpCompactSegmentWritten:
			if y.failCompact.Load() {
				return errInjected
			}
		case fpSealBuilt:
			switch y.attempts.Add(1) {
			case 1:
				close(reached)
				<-gate
			case 2:
				close(held)
				later = <-y.result
				return later
			default:
				return later
			}
		}
		return nil
	})
	t.Cleanup(func() {
		select {
		case y.result <- errInjected:
		default:
		}
		s.Close()
	})
	if err := s.Append(randTuples(rng, 10)); err != nil {
		t.Fatal(err)
	}
	<-reached
	if err := s.Append(randTuples(rng, 10)); err != nil {
		t.Fatal(err)
	}
	close(gate)
	<-held
	if st := s.Stats(); st.Seals != 2 || st.SealQueueDepth != 1 || st.Compactions != 0 || len(st.Segments) != 2 {
		t.Fatalf("set-up: %+v", st)
	}
	return y
}

// TestStoreCompactionYieldsToSeals: background compaction starts no merge
// while a frozen memtable waits, and runs once the queue drains, whether
// the background sealer or an explicit Seal drains it. A failed seal does
// not hold compaction back, nor is an explicit Compact held back.
func TestStoreCompactionYieldsToSeals(t *testing.T) {
	t.Run("background", func(t *testing.T) {
		y := openYieldStore(t)
		y.compactBackground()
		if st := y.Stats(); st.Compactions != 0 || len(st.Segments) != 2 {
			t.Fatalf("background compaction ran with a seal queued: %d compactions, %d segments",
				st.Compactions, len(st.Segments))
		}
		y.release(nil)
		waitForStats(t, y.Store, "compaction after the drain", func(st Stats) bool {
			return st.SealQueueDepth == 0 && st.Compactions == 1
		})
		if got := y.TotalTuples(); got != 30 {
			t.Fatalf("store holds %d tuples, want 30", got)
		}
	})
	t.Run("failed-seal", func(t *testing.T) {
		// The drain that sealed the second segment stops on the held
		// seal's failure and kicks the compactor, which must not wait on
		// a queue that a failing sealer keeps.
		y := openYieldStore(t)
		y.release(errInjected)
		waitForStats(t, y.Store, "compaction beside the failed seal", func(st Stats) bool {
			return st.Compactions == 1 && st.SealQueueDepth == 1 && st.LastSealError != ""
		})
	})
	t.Run("explicit-seal", func(t *testing.T) {
		// The sealer's drain kicks a compaction that fails; its retry,
		// which the third memtable's freeze kicked while the sealer was
		// busy, fails and seals nothing. The explicit Seal that then
		// empties the queue must kick the compactor again.
		y := openYieldStore(t)
		y.failCompact.Store(true)
		y.release(errInjected)
		waitForStats(t, y.Store, "the failed compaction and seal retry", func(st Stats) bool {
			return y.attempts.Load() >= 3 && st.LastCompactError != ""
		})
		y.setFailpoint(nil)
		if err := y.Seal(); err != nil {
			t.Fatal(err)
		}
		waitForStats(t, y.Store, "compaction after the explicit seal", func(st Stats) bool {
			return st.SealQueueDepth == 0 && st.Compactions == 1
		})
	})
	t.Run("explicit-compact", func(t *testing.T) {
		y := openYieldStore(t)
		n, err := y.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if st := y.Stats(); n != 1 || st.Compactions != 1 || st.SealQueueDepth != 1 {
			t.Fatalf("explicit Compact beside a queued seal: ran %d, stats %+v", n, st)
		}
	})
}
