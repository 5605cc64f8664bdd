package cubestore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dwarf"
	"repro/internal/query"
)

// Cache/rollup differential suite: a store serving through the planned
// path (hot-result cache, per-segment partials, rollup segments) must
// answer every query shape bit-identically to the plain fan-out — which
// compareStore already holds equal to a batch cube — across arbitrary
// interleavings of Append/Seal/Compact, cold and warm.

func cacheTestOptions(workers int) Options {
	return Options{
		Dims:               testDims,
		SealTuples:         96,
		CompactFanout:      3,
		DisableAutoCompact: true,
		NoSync:             true,
		Workers:            workers,
		CacheBytes:         4 << 20,
		Rollups:            [][]string{{"A"}, {"B", "C"}},
	}
}

func TestStoreCacheDifferential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(7000 + workers)))
			dir := t.TempDir()
			s, err := Open(dir, cacheTestOptions(workers))
			if err != nil {
				t.Fatal(err)
			}
			var all []dwarf.Tuple
			for step := 0; step < 60; step++ {
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
					// Same seed twice: the second pass replays the identical
					// query battery, now answered from the result cache and
					// cached partials, and must stay bit-identical.
					seed := rng.Int63()
					compareStore(t, s, all, nil, rand.New(rand.NewSource(seed)), false)
					compareStore(t, s, all, nil, rand.New(rand.NewSource(seed)), false)
				}
			}
			seed := rng.Int63()
			compareStore(t, s, all, nil, rand.New(rand.NewSource(seed)), true)
			compareStore(t, s, all, nil, rand.New(rand.NewSource(seed)), true)
			st := s.Stats()
			if st.CacheHits == 0 || st.CachePartialHits == 0 {
				t.Fatalf("warm replay never hit the cache: %+v", st)
			}
			if st.Generation == 0 {
				t.Fatal("generation never advanced")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen with the same cache/rollup config: manifest rollups
			// reload and the planned path still matches the batch cube.
			s2, err := Open(dir, cacheTestOptions(workers))
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			seed = rng.Int63()
			compareStore(t, s2, all, nil, rand.New(rand.NewSource(seed)), true)
			compareStore(t, s2, all, nil, rand.New(rand.NewSource(seed)), true)
		})
	}
}

// TestStoreCacheNoStaleReads drives every kind of visible-state transition
// between repeated identical queries: each transition must bump the
// generation, and the re-issued query must reflect the new state rather
// than the cached answer.
func TestStoreCacheNoStaleReads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, err := Open(t.TempDir(), cacheTestOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	allSels := []dwarf.Selector{dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectAll()}
	var all []dwarf.Tuple
	check := func(label string) {
		t.Helper()
		ref, err := dwarf.New(testDims, all)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.GroupBy(0, allSels)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, _ := ref.GroupBy(0, allSels)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
		}
		for k, a := range want {
			if !got[k].Equal(a) {
				t.Fatalf("%s key %q: store=%+v batch=%+v", label, k, got[k], a)
			}
		}
	}

	batch := randTuples(rng, 50)
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	all = append(all, batch...)
	check("initial")
	hits := s.Stats().CacheHits
	check("repeat")
	if got := s.Stats().CacheHits; got != hits+1 {
		t.Fatalf("identical repeat query: CacheHits %d -> %d, want a hit", hits, got)
	}

	mutate := []struct {
		name string
		do   func() error
	}{
		{"append", func() error {
			batch := randTuples(rng, 30)
			all = append(all, batch...)
			return s.Append(batch)
		}},
		{"seal", s.Seal},
		{"append2", func() error {
			batch := randTuples(rng, 30)
			all = append(all, batch...)
			return s.Append(batch)
		}},
		{"seal2", s.Seal},
		{"seal3", func() error {
			batch := randTuples(rng, 120)
			all = append(all, batch...)
			if err := s.Append(batch); err != nil {
				return err
			}
			return s.Seal()
		}},
		{"compact", func() error { _, err := s.Compact(); return err }},
	}
	for _, m := range mutate {
		before := s.Generation()
		if err := m.do(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if after := s.Generation(); after <= before {
			t.Fatalf("%s: generation %d -> %d, want a bump", m.name, before, after)
		}
		check("after " + m.name)
		check("after " + m.name + " (warm)")
	}
}

// TestGenerationPersists holds the generation monotonic across in-memory
// transitions and persisted across a reopen.
func TestGenerationPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Dims: testDims, SealTuples: 64, NoSync: true, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	g0 := s.Generation()
	if err := s.Append(randTuples(rand.New(rand.NewSource(1)), 10)); err != nil {
		t.Fatal(err)
	}
	g1 := s.Generation()
	if g1 <= g0 {
		t.Fatalf("append: generation %d -> %d, want a bump", g0, g1)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	g2 := s.Generation()
	if g2 <= g1 {
		t.Fatalf("seal: generation %d -> %d, want a bump", g1, g2)
	}
	if st := s.Stats(); st.Generation != g2 {
		t.Fatalf("Stats.Generation = %d, Generation() = %d", st.Generation, g2)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	man, found, err := loadManifest(dir)
	if err != nil || !found {
		t.Fatalf("loadManifest: found=%v err=%v", found, err)
	}
	if man.Generation != g2 {
		t.Fatalf("manifest generation %d, sealed at %d", man.Generation, g2)
	}
	s2, err := Open(dir, Options{NoSync: true, DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if g := s2.Generation(); g <= g2 {
		t.Fatalf("reopen: generation %d, want above the persisted %d", g, g2)
	}
}

// TestRollupPlanner pins the routing rules: eligible grouped queries go
// through the smallest covering rollup, restricted dropped dimensions and
// stale covers fall back to the plain fan-out, and answers are identical
// either way.
func TestRollupPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, err := Open(t.TempDir(), Options{
		Dims:               testDims,
		SealTuples:         64,
		CompactFanout:      3,
		DisableAutoCompact: true,
		NoSync:             true,
		Rollups:            [][]string{{"A"}, {"A", "B"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var all []dwarf.Tuple
	appendAndSeal := func(n int) {
		t.Helper()
		batch := randTuples(rng, n)
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		appendAndSeal(50)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Rollups) != 2 {
		t.Fatalf("after compact: %d rollups, want 2 (%+v)", len(st.Rollups), st.Rollups)
	}
	for _, r := range st.Rollups {
		if r.Covers != len(st.Segments) {
			t.Fatalf("rollup %s covers %d of %d segments", r.File, r.Covers, len(st.Segments))
		}
	}

	ref, err := dwarf.New(testDims, all)
	if err != nil {
		t.Fatal(err)
	}
	allSels := []dwarf.Selector{dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectAll()}
	checkGroup := func(label string, dim int, sels []dwarf.Selector) {
		t.Helper()
		got, err := s.GroupBy(dim, sels)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, _ := ref.GroupBy(dim, sels)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
		}
		for k, a := range want {
			if !got[k].Equal(a) {
				t.Fatalf("%s key %q: store=%+v batch=%+v", label, k, got[k], a)
			}
		}
	}

	// Grouping by A with everything else unrestricted: the A rollup (the
	// smallest eligible) answers, and the fan-out skips the segments.
	before := s.Stats().RollupHits
	checkGroup("via rollup", 0, allSels)
	if got := s.Stats().RollupHits; got != before+1 {
		t.Fatalf("RollupHits %d -> %d, want a rollup-planned query", before, got)
	}

	// A restriction on an aggregated-away dimension disqualifies every
	// rollup: C is rolled up to ALL in both, so its key split is gone.
	before = s.Stats().RollupHits
	restricted := []dwarf.Selector{dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectKeys(dimKey(2, 1))}
	checkGroup("dropped-dim restriction", 0, restricted)
	if got := s.Stats().RollupHits; got != before {
		t.Fatalf("RollupHits %d -> %d: restricted query must not use a rollup", before, got)
	}

	// Grouping by B alone: only the {A,B} rollup keeps B.
	before = s.Stats().RollupHits
	checkGroup("via wider rollup", 1, allSels)
	if got := s.Stats().RollupHits; got != before+1 {
		t.Fatalf("RollupHits %d -> %d, want the {A,B} rollup", before, got)
	}

	// Pivot and the name-based RollUp surface route the same way.
	before = s.Stats().RollupHits
	gotRows, err := s.Pivot([]int{1, 0}, allSels)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, _ := ref.Pivot([]int{1, 0}, allSels)
	comparePivot(t, "Pivot via rollup", gotRows, wantRows)
	if _, _, err := query.RollUp(s, "A"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().RollupHits; got != before+2 {
		t.Fatalf("RollupHits %d -> %d, want Pivot and RollUp both planned", before, got)
	}

	// A new sealed segment is outside every cover: the rollup still answers
	// for the files it covers, with the fresh segment fanned out beside it.
	appendAndSeal(40)
	ref, err = dwarf.New(testDims, all)
	if err != nil {
		t.Fatal(err)
	}
	before = s.Stats().RollupHits
	checkGroup("rollup plus uncovered segment", 0, allSels)
	if got := s.Stats().RollupHits; got != before+1 {
		t.Fatalf("RollupHits %d -> %d, want the partially-covering rollup", before, got)
	}

	// Compaction replaces covered files; maintainRollups rebuilds covers
	// over the surviving set so the planner stays eligible.
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	for _, r := range st.Rollups {
		if r.Covers != len(st.Segments) {
			t.Fatalf("after recompact: rollup %s covers %d of %d segments", r.File, r.Covers, len(st.Segments))
		}
	}
	checkGroup("after recompact", 0, allSels)
}

// TestRollupOrphanCleanup: a rollup file the manifest does not list is
// deleted on Open, and manifest-listed rollups reload.
func TestRollupOrphanCleanup(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Dims: testDims, SealTuples: 64, NoSync: true,
		DisableAutoCompact: true, Rollups: [][]string{{"A"}},
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(randTuples(rand.New(rand.NewSource(2)), 30)); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	orphan := filepath.Join(dir, rollupFileName(123456))
	if err := os.WriteFile(orphan, []byte("not a cube"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan rollup file survived open: %v", err)
	}
	if st := s2.Stats(); len(st.Rollups) != 1 {
		t.Fatalf("manifest rollup did not reload: %+v", st.Rollups)
	}
}

// TestTinySealAge: SealAge below the ticker floor must not panic
// time.NewTicker (SealAge/2 truncates to 0 for 1ns) and must still seal.
func TestTinySealAge(t *testing.T) {
	s, err := Open(t.TempDir(), Options{
		Dims: testDims, SealTuples: 1 << 20, SealAge: time.Nanosecond,
		NoSync: true, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(randTuples(rand.New(rand.NewSource(3)), 5)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Seals == 0 {
		if time.Now().After(deadline) {
			t.Fatal("age-based seal never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := s.Stats(); st.SealedTuples != 5 || st.LiveTuples != 0 {
		t.Fatalf("after age seal: %+v", st)
	}
}

// TestKickSealsAgedMemtable pins the kick-path half of the background
// loop: an aged memtable is sealed by a kick without waiting for the next
// ticker fire. SealAge is an hour so the ticker cannot fire in-test; the
// memtable's age is forged and a kick sent by hand.
func TestKickSealsAgedMemtable(t *testing.T) {
	s, err := Open(t.TempDir(), Options{
		Dims: testDims, SealTuples: 1 << 20, SealAge: time.Hour,
		NoSync: true, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(randTuples(rand.New(rand.NewSource(4)), 5)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.memSince = time.Now().Add(-2 * time.Hour)
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Seals == 0 {
		if time.Now().After(deadline) {
			t.Fatal("kick did not seal the aged memtable")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStoreCacheConcurrent is the -race proof for the planned path: cached
// queries run against continuous ingest with automatic seals, compactions
// and rollup maintenance, the writer asserts read-your-writes through the
// cache after every acked batch, and the final state is held equal to a
// batch cube.
func TestStoreCacheConcurrent(t *testing.T) {
	opts := cacheTestOptions(2)
	opts.DisableAutoCompact = false
	opts.SealTuples = 120
	s, err := Open(t.TempDir(), opts)
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
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				sels := randSelectors(rng)
				switch rng.Intn(3) {
				case 0:
					if _, err := s.GroupBy(rng.Intn(3), sels); err != nil {
						t.Errorf("reader GroupBy: %v", err)
						return
					}
				case 1:
					if _, err := s.Pivot(pivotDims(rng), sels); err != nil {
						t.Errorf("reader Pivot: %v", err)
						return
					}
				default:
					spec := dwarf.TopKSpec{K: 1 + rng.Intn(3), By: dwarf.Metric(rng.Intn(5))}
					if _, err := s.TopK(rng.Intn(3), sels, spec); err != nil {
						t.Errorf("reader TopK: %v", err)
						return
					}
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(77))
	var all []dwarf.Tuple
	var wantSum float64
	for i := 0; i < 40; i++ {
		batch := randTuples(rng, rng.Intn(30)+1)
		if err := s.Append(batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
		for _, tu := range batch {
			wantSum += tu.Measure
		}
		// Read-your-writes through the cache: the acked batch must be in
		// the very next answer, cached or not.
		groups, err := s.GroupBy(0, allSels)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, a := range groups {
			sum += a.Sum
		}
		if sum != wantSum {
			t.Fatalf("after batch %d: cached GroupBy sum %v, appended %v", i, sum, wantSum)
		}
	}
	close(stop)
	readers.Wait()
	seed := rng.Int63()
	compareStore(t, s, all, nil, rand.New(rand.NewSource(seed)), false)
	compareStore(t, s, all, nil, rand.New(rand.NewSource(seed)), false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
