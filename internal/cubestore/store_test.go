package cubestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dwarf"
	"repro/internal/query"
)

// Differential suite: a store built by arbitrary interleavings of
// Append/Seal/Compact must answer every query shape identically to one
// dwarf.New batch build over the same tuples, under every ablation option
// set and worker count. Measures are small integers so sums are exact in
// float64 regardless of the order partial aggregates merge in.

var testDims = []string{"A", "B", "C"}
var testDimSizes = []int{3, 4, 5}

func ablationSets() [][]dwarf.Option {
	return [][]dwarf.Option{
		nil,
		{dwarf.WithoutSuffixCoalescing()},
		{dwarf.WithoutHashConsing()},
		{dwarf.WithoutSuffixCoalescing(), dwarf.WithoutHashConsing()},
	}
}

func dimKey(dim, k int) string { return fmt.Sprintf("d%dk%d", dim, k) }

func randTuples(rng *rand.Rand, n int) []dwarf.Tuple {
	out := make([]dwarf.Tuple, n)
	for i := range out {
		dims := make([]string, len(testDims))
		for d := range dims {
			dims[d] = dimKey(d, rng.Intn(testDimSizes[d]))
		}
		out[i] = dwarf.Tuple{Dims: dims, Measure: float64(rng.Intn(9) + 1)}
	}
	return out
}

func randSelectors(rng *rand.Rand) []dwarf.Selector {
	sels := make([]dwarf.Selector, len(testDims))
	for d := range sels {
		switch rng.Intn(3) {
		case 0:
			sels[d] = dwarf.SelectAll()
		case 1:
			n := rng.Intn(3) + 1
			keys := make([]string, n)
			for i := range keys {
				keys[i] = dimKey(d, rng.Intn(testDimSizes[d]))
			}
			sels[d] = dwarf.SelectKeys(keys...)
		default:
			a, b := rng.Intn(testDimSizes[d]), rng.Intn(testDimSizes[d])
			if a > b {
				a, b = b, a
			}
			sels[d] = dwarf.SelectRange(dimKey(d, a), dimKey(d, b))
		}
	}
	return sels
}

// compareStore holds every query shape of the store equal to a batch cube
// over the same tuples. exhaustive probes the full point cross product;
// otherwise a sampled battery runs.
func compareStore(t *testing.T, s *Store, all []dwarf.Tuple, opts []dwarf.Option, rng *rand.Rand, exhaustive bool) {
	t.Helper()
	ref, err := dwarf.New(testDims, all, opts...)
	if err != nil {
		t.Fatal(err)
	}
	points := 40
	if exhaustive {
		points = 0
		var walk func(prefix []string, d int)
		var probes [][]string
		walk = func(prefix []string, d int) {
			if d == len(testDims) {
				probes = append(probes, append([]string(nil), prefix...))
				return
			}
			for k := 0; k < testDimSizes[d]; k++ {
				walk(append(prefix, dimKey(d, k)), d+1)
			}
			walk(append(prefix, dwarf.All), d+1)
		}
		walk(nil, 0)
		for _, keys := range probes {
			got, err := s.Point(keys...)
			if err != nil {
				t.Fatalf("Point%v: %v", keys, err)
			}
			want, _ := ref.Point(keys...)
			if !got.Equal(want) {
				t.Fatalf("Point%v: store=%+v batch=%+v", keys, got, want)
			}
		}
	}
	for q := 0; q < points; q++ {
		keys := make([]string, len(testDims))
		for d := range keys {
			if rng.Intn(4) == 0 {
				keys[d] = dwarf.All
			} else {
				keys[d] = dimKey(d, rng.Intn(testDimSizes[d]))
			}
		}
		got, err := s.Point(keys...)
		if err != nil {
			t.Fatalf("Point%v: %v", keys, err)
		}
		want, _ := ref.Point(keys...)
		if !got.Equal(want) {
			t.Fatalf("Point%v: store=%+v batch=%+v", keys, got, want)
		}
	}
	ranges := 10
	if exhaustive {
		ranges = 40
	}
	for q := 0; q < ranges; q++ {
		sels := randSelectors(rng)
		got, err := s.Range(sels)
		if err != nil {
			t.Fatalf("Range%+v: %v", sels, err)
		}
		want, _ := ref.Range(sels)
		if !got.Equal(want) {
			t.Fatalf("Range%+v: store=%+v batch=%+v", sels, got, want)
		}
	}
	groupRounds := 3
	if exhaustive {
		groupRounds = 10
	}
	for dim := range testDims {
		for q := 0; q < groupRounds; q++ {
			sels := randSelectors(rng)
			got, err := s.GroupBy(dim, sels)
			if err != nil {
				t.Fatalf("GroupBy(%d): %v", dim, err)
			}
			want, _ := ref.GroupBy(dim, sels)
			if len(got) != len(want) {
				t.Fatalf("GroupBy(%d)%+v: %d groups, batch has %d\nstore=%v\nbatch=%v",
					dim, sels, len(got), len(want), got, want)
			}
			for k, a := range want {
				if !got[k].Equal(a) {
					t.Fatalf("GroupBy(%d) key %q: store=%+v batch=%+v", dim, k, got[k], a)
				}
			}

			// TopK: the store's merged-then-cut ranking must equal a single
			// batch cube's, entry for entry (order included).
			spec := dwarf.TopKSpec{K: 1 + rng.Intn(4), By: dwarf.Metric(rng.Intn(5))}
			if rng.Intn(2) == 0 {
				spec.Threshold, spec.HasThreshold = float64(rng.Intn(20)), true
			}
			gotK, err := s.TopK(dim, sels, spec)
			if err != nil {
				t.Fatalf("TopK(%d): %v", dim, err)
			}
			wantK, _ := ref.TopK(dim, sels, spec)
			if len(gotK) != len(wantK) {
				t.Fatalf("TopK(%d)%+v: %d entries, batch has %d\nstore=%v\nbatch=%v",
					dim, spec, len(gotK), len(wantK), gotK, wantK)
			}
			for i := range wantK {
				if gotK[i].Key != wantK[i].Key || !gotK[i].Agg.Equal(wantK[i].Agg) {
					t.Fatalf("TopK(%d)%+v entry %d: store=%+v batch=%+v", dim, spec, i, gotK[i], wantK[i])
				}
			}
		}
	}
	for q := 0; q < groupRounds; q++ {
		sels := randSelectors(rng)
		groupDims := pivotDims(rng)
		got, err := s.Pivot(groupDims, sels)
		if err != nil {
			t.Fatalf("Pivot(%v): %v", groupDims, err)
		}
		want, _ := ref.Pivot(groupDims, sels)
		comparePivot(t, fmt.Sprintf("Pivot(%v)%+v", groupDims, sels), got, want)
	}
	// The hierarchy surface runs on the store via the same kernel: RollUp
	// and DrillDown must match the batch cube too.
	dims, got, err := query.RollUp(s, "C", "A")
	if err != nil {
		t.Fatalf("RollUp: %v", err)
	}
	wantDims, want, _ := query.RollUp(ref, "C", "A")
	if !slices.Equal(dims, wantDims) {
		t.Fatalf("RollUp dims = %v, batch says %v", dims, wantDims)
	}
	comparePivot(t, "RollUp(C,A)", got, want)
	fixed := map[string]string{"A": dimKey(0, rng.Intn(testDimSizes[0]))}
	gotDrill, err := query.DrillDown(s, fixed, "B")
	if err != nil {
		t.Fatalf("DrillDown: %v", err)
	}
	wantDrill, _ := query.DrillDown(ref, fixed, "B")
	if len(gotDrill) != len(wantDrill) {
		t.Fatalf("DrillDown(%v): %d members, batch has %d", fixed, len(gotDrill), len(wantDrill))
	}
	for k, a := range wantDrill {
		if !gotDrill[k].Equal(a) {
			t.Fatalf("DrillDown(%v)[%q]: store=%+v batch=%+v", fixed, k, gotDrill[k], a)
		}
	}
	if got := s.TotalTuples(); got != len(all) {
		t.Fatalf("TotalTuples = %d, appended %d", got, len(all))
	}
}

// pivotDims picks a random non-empty ordered subset of the dimensions.
func pivotDims(rng *rand.Rand) []int {
	perm := rng.Perm(len(testDims))
	return perm[:1+rng.Intn(len(perm))]
}

func comparePivot(t *testing.T, label string, got, want []dwarf.PivotGroup) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, batch has %d\nstore=%v\nbatch=%v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if !slices.Equal(got[i].Keys, want[i].Keys) || !got[i].Agg.Equal(want[i].Agg) {
			t.Fatalf("%s row %d: store=%+v batch=%+v", label, i, got[i], want[i])
		}
	}
}

func TestStoreDifferential(t *testing.T) {
	for ai, opts := range ablationSets() {
		for _, workers := range []int{1, 4} {
			opts, workers := opts, workers
			t.Run(fmt.Sprintf("ablation%d/workers%d", ai, workers), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(100*ai + workers)))
				dir := t.TempDir()
				storeOpts := Options{
					Dims:               testDims,
					SealTuples:         96,
					CompactFanout:      3,
					DisableAutoCompact: true,
					NoSync:             true,
					Workers:            workers,
					CubeOptions:        opts,
				}
				s, err := Open(dir, storeOpts)
				if err != nil {
					t.Fatal(err)
				}
				var all []dwarf.Tuple
				for step := 0; step < 70; step++ {
					switch rng.Intn(10) {
					case 0:
						if err := s.Seal(); err != nil {
							t.Fatal(err)
						}
					case 1:
						if _, err := s.Compact(); err != nil {
							t.Fatal(err)
						}
					default:
						batch := randTuples(rng, rng.Intn(25)+1)
						if err := s.Append(batch); err != nil {
							t.Fatal(err)
						}
						all = append(all, batch...)
					}
					if step%9 == 0 {
						compareStore(t, s, all, opts, rng, false)
					}
				}
				compareStore(t, s, all, opts, rng, true)
				st := s.Stats()
				if st.TotalTuples != len(all) || st.SealedTuples+st.LiveTuples != len(all) {
					t.Fatalf("stats %+v inconsistent with %d appended", st, len(all))
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}

				// Reopen (manifest supplies the dims) and hold the same
				// equalities: WAL replay plus segments reconstruct the store.
				s2, err := Open(dir, Options{
					SealTuples:         storeOpts.SealTuples,
					CompactFanout:      storeOpts.CompactFanout,
					DisableAutoCompact: true,
					NoSync:             true,
					Workers:            workers,
					CubeOptions:        opts,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer s2.Close()
				compareStore(t, s2, all, opts, rng, true)
			})
		}
	}
}

// TestStoreConcurrentReaders drives ingestion, automatic seals and
// background compactions while reader goroutines query continuously; under
// -race this is the proof that snapshots stay consistent through state
// swaps. Every acked batch must be immediately visible to the writer
// (read-your-writes), and readers must observe monotonically non-decreasing
// totals.
func TestStoreConcurrentReaders(t *testing.T) {
	s, err := Open(t.TempDir(), Options{
		Dims:          testDims,
		SealTuples:    120,
		CompactFanout: 3,
		NoSync:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	allSels := []dwarf.Selector{dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectAll()}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			var lastCount int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				agg, err := s.Point(dwarf.All, dwarf.All, dwarf.All)
				if err != nil {
					t.Error(err)
					return
				}
				if agg.Count < lastCount {
					t.Errorf("reader %d: total count went backwards: %d -> %d", r, lastCount, agg.Count)
					return
				}
				lastCount = agg.Count
				if _, err := s.GroupBy(rng.Intn(3), allSels); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Range(randSelectors(rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(99))
	var all []dwarf.Tuple
	for i := 0; i < 300; i++ {
		batch := randTuples(rng, rng.Intn(12)+1)
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
		if i%20 == 0 {
			// Read-your-writes: the ack already covers this batch.
			agg, err := s.Point(dwarf.All, dwarf.All, dwarf.All)
			if err != nil {
				t.Fatal(err)
			}
			if agg.Count != int64(len(all)) {
				t.Fatalf("after ack of %d tuples, ALL count = %d", len(all), agg.Count)
			}
		}
	}
	close(stop)
	readers.Wait()
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	compareStore(t, s, all, nil, rng, true)
	if st := s.Stats(); st.Seals == 0 || st.Compactions == 0 {
		t.Fatalf("wanted seals and compactions to happen during the run, got %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreAppendValidation(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Dims: testDims, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []struct {
		tuple dwarf.Tuple
		want  error
	}{
		{dwarf.Tuple{Dims: []string{"x"}, Measure: 1}, dwarf.ErrDimMismatch},
		{dwarf.Tuple{Dims: []string{"x", dwarf.All, "z"}, Measure: 1}, dwarf.ErrReservedKey},
		{dwarf.Tuple{Dims: []string{"x", "y", "z"}, Measure: nan()}, dwarf.ErrNotFiniteValue},
	}
	for _, c := range cases {
		if err := s.Append([]dwarf.Tuple{c.tuple}); !errors.Is(err, c.want) {
			t.Errorf("Append(%+v) = %v, want %v", c.tuple, err, c.want)
		}
	}
	if got := s.TotalTuples(); got != 0 {
		t.Fatalf("rejected tuples leaked in: TotalTuples = %d", got)
	}
	if err := s.Append(nil); err != nil {
		t.Errorf("empty append: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(randTuples(rand.New(rand.NewSource(1)), 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close = %v", err)
	}
	if err := s.Seal(); !errors.Is(err, ErrClosed) {
		t.Errorf("seal after close = %v", err)
	}
}

// TestStoreAppendAckSurvivesSealFailure: once the WAL write and memtable
// insert committed, the Append ack must not depend on the seal — a failed
// seal is recorded in Stats and retried, with the tuples still covered by
// the live WAL and visible to queries.
func TestStoreAppendAckSurvivesSealFailure(t *testing.T) {
	s, err := Open(t.TempDir(), Options{
		Dims:               testDims,
		SealTuples:         10,
		DisableAutoCompact: true,
		NoSync:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.setFailpoint(func(name string) error {
		if name == fpSealBuilt {
			return errInjected
		}
		return nil
	})
	rng := rand.New(rand.NewSource(3))
	batch := randTuples(rng, 12) // crosses the threshold, freezing for the sealer
	if err := s.Append(batch); err != nil {
		t.Fatalf("ack must not depend on the seal: %v", err)
	}
	// The seal runs in the background sealer now; wait for its failure to
	// surface. The frozen memtable keeps serving its tuples throughout.
	waitForStats(t, s, "failed seal recorded", func(st Stats) bool { return st.LastSealError != "" })
	st := s.Stats()
	if st.Seals != 0 || st.LiveTuples != 12 || st.FrozenMemtables != 1 || st.SealQueueDepth != 1 {
		t.Fatalf("failed seal not recorded: %+v", st)
	}
	agg, err := s.Point(dwarf.All, dwarf.All, dwarf.All)
	if err != nil || agg.Count != 12 {
		t.Fatalf("acked tuples not visible after seal failure: %+v, %v", agg, err)
	}
	// Maintenance heals: with the failpoint cleared, the frozen memtable is
	// still queued and the next drain (explicit Seal here, for determinism)
	// seals it plus the fresh live tuples, clearing the recorded error.
	s.setFailpoint(nil)
	if err := s.Append(randTuples(rng, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.LastSealError != "" || st.Seals != 2 || st.SealedTuples != 13 || st.LiveTuples != 0 || st.SealQueueDepth != 0 {
		t.Fatalf("seal retry did not heal: %+v", st)
	}
}

// waitForStats polls Stats until cond holds, failing the test after a
// deadline — the seam between synchronous acks and the async sealer.
func waitForStats(t *testing.T, s *Store, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(s.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStoreOpenValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open without dims on a fresh directory should fail")
	}
	s, err := Open(dir, Options{Dims: testDims, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Dims: []string{"other"}}); err == nil {
		t.Fatal("open with mismatched dims should fail")
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with manifest dims: %v", err)
	}
	if got := s2.Dims(); len(got) != len(testDims) || got[0] != testDims[0] {
		t.Fatalf("dims = %v", got)
	}
	s2.Close()
}

// TestStoreSingleWriterLock: a second Open of the same directory must fail
// while the first store is alive (two writers would delete each other's
// WAL generations), and succeed after Close releases the lock.
func TestStoreSingleWriterLock(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("flock guard is unix-only")
	}
	dir := t.TempDir()
	s, err := Open(dir, Options{Dims: testDims, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); err == nil {
		t.Fatal("second Open of a live store directory must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	s2.Close()
}

// TestStoreOrphanRemovalSparesForeignFiles: recovery cleans only the
// store's own garbage — a user's .tmp or other file sharing the directory
// (dwarfd -live serves static cubes from it) must survive.
func TestStoreOrphanRemovalSparesForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Dims: testDims, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	foreign := []string{"notes.tmp", "mycube.dwarf", "readme.txt", "seg-week.dwarf"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("keep me"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Plus genuine store garbage that must go.
	if err := os.WriteFile(filepath.Join(dir, "seg-123.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("foreign file %s was deleted by recovery: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-123.tmp")); err == nil {
		t.Error("store temp file survived recovery")
	}
}

// TestStoreCompactionPaths drives the same workload through both
// compaction engines — the streaming zero-copy k-way merge (the happy
// path, which never decodes a segment) and the forced decode+MergeAll
// fallback — and holds both stores to the batch-build answers. It also
// pins the path accounting in Stats.
func TestStoreCompactionPaths(t *testing.T) {
	for _, fallback := range []bool{false, true} {
		name := "streaming"
		if fallback {
			name = "fallback"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			s, err := Open(t.TempDir(), Options{
				Dims:               testDims,
				SealTuples:         40,
				CompactFanout:      3,
				DisableAutoCompact: true,
				NoSync:             true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.disableStreamingCompact = fallback
			var all []dwarf.Tuple
			for i := 0; i < 12; i++ {
				batch := randTuples(rng, 40)
				if err := s.Append(batch); err != nil {
					t.Fatal(err)
				}
				all = append(all, batch...)
				if err := s.Seal(); err != nil {
					t.Fatal(err)
				}
			}
			n, err := s.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("expected at least one compaction")
			}
			st := s.Stats()
			if st.StreamingCompactions+st.FallbackCompactions != st.Compactions {
				t.Fatalf("path counters %d+%d disagree with %d compactions",
					st.StreamingCompactions, st.FallbackCompactions, st.Compactions)
			}
			if fallback && st.StreamingCompactions != 0 {
				t.Fatalf("forced fallback still ran %d streaming compactions", st.StreamingCompactions)
			}
			if !fallback && st.FallbackCompactions != 0 {
				t.Fatalf("happy path fell back %d times: %+v", st.FallbackCompactions, st)
			}
			compareStore(t, s, all, nil, rng, true)
		})
	}
}

// TestStoreStreamingCompactionCanonicalBytes: a segment produced by the
// streaming compactor is byte-identical to EncodeIndexed of a batch build
// over the compacted tuples — compaction re-canonicalizes, so repeated
// merge generations can never degrade the structure.
func TestStoreStreamingCompactionCanonicalBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	s, err := Open(dir, Options{
		Dims:               testDims,
		SealTuples:         30,
		CompactFanout:      3,
		DisableAutoCompact: true,
		NoSync:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var all []dwarf.Tuple
	for i := 0; i < 3; i++ {
		batch := randTuples(rng, 30)
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Compact(); err != nil || n != 1 {
		t.Fatalf("Compact = %d, %v; want exactly 1", n, err)
	}
	st := s.Stats()
	if len(st.Segments) != 1 {
		t.Fatalf("want one merged segment, have %+v", st.Segments)
	}
	got, err := os.ReadFile(filepath.Join(dir, st.Segments[0].File))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dwarf.New(testDims, all)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ref.EncodeIndexed(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("compacted segment is not the canonical batch encoding: %d vs %d bytes",
			len(got), want.Len())
	}
}

func nan() float64 {
	var z float64
	return z / z
}
