package cubestore

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dwarf"
)

// Concurrency suite for the ingest pipeline: many writers group-committing
// through the shared WAL while seals, compactions and windowed readers run
// against the same store. Meant to be driven under -race; the assertions
// pin read-your-writes after every ack and bit-identity of the final store
// to a serial batch build of the same multiset.

func writerKey(w int) string { return fmt.Sprintf("w%d", w) }

// writerTuples builds one writer's batch: dim A carries the writer's own
// key, so Point(writerKey, *, *) counts exactly that writer's acked tuples.
func writerTuples(rng *rand.Rand, w, n int) []dwarf.Tuple {
	out := make([]dwarf.Tuple, n)
	for i := range out {
		out[i] = dwarf.Tuple{
			Dims: []string{
				writerKey(w),
				dimKey(1, rng.Intn(testDimSizes[1])),
				dimKey(2, rng.Intn(testDimSizes[2])),
			},
			Measure: float64(rng.Intn(9) + 1),
		}
	}
	return out
}

// TestStoreConcurrentPipeline runs the full machine at once: concurrent
// writers, background threshold seals with a bounded frozen queue, explicit
// Seal and Compact calls, and windowed readers — then checks the surviving
// store answers every query exactly like a serial batch build.
func TestStoreConcurrentPipeline(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{
		Dims:          testDims,
		SealTuples:    60,
		CompactFanout: 3,
		MaxFrozen:     2,
		NoSync:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 5
	const batchesPer = 12
	// Batches are pre-generated so the goroutines never share an rng.
	plans := make([][][]dwarf.Tuple, writers)
	var all []dwarf.Tuple
	for w := range plans {
		rng := rand.New(rand.NewSource(int64(1000 + w)))
		plans[w] = make([][]dwarf.Tuple, batchesPer)
		for b := range plans[w] {
			plans[w][b] = writerTuples(rng, w, rng.Intn(8)+3)
			all = append(all, plans[w][b]...)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			acked := 0
			for _, batch := range plans[w] {
				if err := s.Append(batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked += len(batch)
				// Read-your-writes after every ack: this writer's own key
				// must count everything it has been acknowledged for, no
				// matter where those tuples sit (segment, frozen, live).
				agg, err := s.Point(writerKey(w), dwarf.All, dwarf.All)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if agg.Count != int64(acked) {
					t.Errorf("writer %d: read-your-writes broken: count %d after %d acked", w, agg.Count, acked)
					return
				}
			}
		}(w)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(2000 + r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				// Windowed reads racing the pipeline must never error; the
				// values are checked against the reference after the dust
				// settles.
				if _, err := s.Range(randSelectors(rng)); err != nil {
					t.Errorf("reader %d: Range: %v", r, err)
					return
				}
				if _, err := s.GroupBy(1, randSelectors(rng)); err != nil {
					t.Errorf("reader %d: GroupBy: %v", r, err)
					return
				}
			}
		}(r)
	}
	readers.Add(1)
	go func() { // maintenance racing the writers
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := s.Seal(); err != nil {
				t.Errorf("concurrent Seal: %v", err)
				return
			}
			if _, err := s.Compact(); err != nil {
				t.Errorf("concurrent Compact: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Appended != int64(len(all)) || st.SealedTuples != len(all) || st.LiveTuples != 0 || st.SealQueueDepth != 0 {
		t.Fatalf("final accounting: %+v (want %d tuples all sealed)", st, len(all))
	}
	if st.FrozenMemtables < 1 || st.GroupCommits < 1 {
		t.Fatalf("pipeline never engaged: %+v", st)
	}
	// Bit-identity: the store built by the concurrent pipeline answers
	// exactly like a single serial batch build of the same multiset.
	rng := rand.New(rand.NewSource(77))
	compareStore(t, s, all, nil, rng, false)
	for w := 0; w < writers; w++ {
		want := 0
		for _, b := range plans[w] {
			want += len(b)
		}
		agg, err := s.Point(writerKey(w), dwarf.All, dwarf.All)
		if err != nil || agg.Count != int64(want) {
			t.Errorf("writer %d final count = %d (%v), want %d", w, agg.Count, err, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// And so does the store recovered from its directory.
	s2 := reopenAndVerify(t, dir, all, rng)
	s2.Close()
}

// TestStoreGroupCommitAccounting pins the fsync-sharing invariant under
// real synced commits: every acked batch is covered by exactly one group,
// so GroupCommits + FsyncsSaved equals the number of acked batches.
func TestStoreGroupCommitAccounting(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{
		Dims:               testDims,
		SealTuples:         1 << 30,
		DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers = 8
	const batchesPer = 5
	plans := make([][][]dwarf.Tuple, writers)
	total := 0
	for w := range plans {
		rng := rand.New(rand.NewSource(int64(3000 + w)))
		plans[w] = make([][]dwarf.Tuple, batchesPer)
		for b := range plans[w] {
			plans[w][b] = randTuples(rng, 3)
			total += 3
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, batch := range plans[w] {
				if err := s.Append(batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := s.Stats()
	const batches = writers * batchesPer
	if st.GroupCommits+st.FsyncsSaved != batches {
		t.Errorf("GroupCommits %d + FsyncsSaved %d != %d acked batches", st.GroupCommits, st.FsyncsSaved, batches)
	}
	if st.GroupCommits < 1 || st.GroupCommits > batches {
		t.Errorf("GroupCommits = %d out of range [1, %d]", st.GroupCommits, batches)
	}
	if st.Appended != int64(total) || s.TotalTuples() != total {
		t.Errorf("appended %d / total %d, want %d", st.Appended, s.TotalTuples(), total)
	}
}

// TestStoreBackpressureBoundsFrozen wedges the sealer with a failpoint
// until MaxFrozen memtables are pending, then shows the next
// threshold-crossing append blocks (bounded memory) and completes as soon
// as the sealer is allowed to drain — the self-driving retry, no external
// kick needed.
func TestStoreBackpressureBoundsFrozen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{
		Dims:               testDims,
		SealTuples:         10,
		MaxFrozen:          2,
		NoSync:             true,
		DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var allow atomic.Bool
	s.setFailpoint(func(name string) error {
		if name == fpSealBuilt && !allow.Load() {
			return errInjected
		}
		return nil
	})
	rng := rand.New(rand.NewSource(211))
	var all []dwarf.Tuple
	appendN := func(n int) {
		t.Helper()
		batch := randTuples(rng, n)
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	// Two threshold crossings freeze two memtables the sealer cannot drain;
	// the third fills the live memtable to its threshold again.
	appendN(10)
	appendN(10)
	appendN(10)
	waitForStats(t, s, "frozen queue at its bound", func(st Stats) bool {
		return st.SealQueueDepth == 2 && st.LiveTuples == 30
	})

	// The next append would make it MaxFrozen+1 frozen memtables: it must
	// block instead of growing memory.
	blocked := make(chan error, 1)
	go func() {
		batch := randTuples(rand.New(rand.NewSource(212)), 5)
		err := s.Append(batch)
		if err == nil {
			s.mu.Lock()
			all = append(all, batch...) // guarded: main reads after <-blocked
			s.mu.Unlock()
		}
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("append got through a full frozen queue: %v", err)
	case <-time.After(150 * time.Millisecond):
	}
	if st := s.Stats(); st.SealQueueDepth > 2 {
		t.Fatalf("frozen queue exceeded MaxFrozen: %+v", st)
	}

	// Unwedge the sealer. The blocked group's own retry kicks drain the
	// queue and the append completes without any further calls from here.
	allow.Store(true)
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("backpressured append failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("append still blocked after the sealer was unwedged")
	}
	waitForStats(t, s, "seal error cleared by the successful retry", func(st Stats) bool {
		return st.LastSealError == ""
	})
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	compareStore(t, s, all, nil, rng, true)
}
