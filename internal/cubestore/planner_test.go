package cubestore

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/dwarf"
	"repro/internal/query"
)

// Unit coverage for the read path's routing decisions: invalid arguments
// must skip rollup substitution (so the kernel reports its usual error), a
// rollup whose cover is no longer a subset of the live segment set must
// not be planned in, and runIndexed must surface the lowest-index error
// regardless of which targets run concurrently.

func TestValidPivotArgs(t *testing.T) {
	all := make([]dwarf.Selector, 3)
	cases := []struct {
		name string
		dims []int
		sels []dwarf.Selector
		want bool
	}{
		{"ok single", []int{1}, all, true},
		{"ok multi", []int{0, 2}, all, true},
		{"ok all dims", []int{2, 1, 0}, all, true},
		{"empty dims", nil, all, false},
		{"dim out of range", []int{3}, all, false},
		{"negative dim", []int{-1}, all, false},
		{"duplicate dim", []int{1, 1}, all, false},
		{"too few selectors", []int{0}, all[:2], false},
		{"too many selectors", []int{0}, make([]dwarf.Selector, 4), false},
	}
	for _, c := range cases {
		if got := validGroupArgs(c.dims, c.sels, 3); got != c.want {
			t.Errorf("%s: validGroupArgs = %v, want %v", c.name, got, c.want)
		}
	}
}

// plannerState builds a storeState with the named segment files, one
// rollup over dims covering the listed files and an empty live memtable.
// Views stay nil: plan only routes, it never executes.
func plannerState(t *testing.T, storeDims []string, segFiles []string, rollupDims, covers []string) *storeState {
	t.Helper()
	mem, err := dwarf.NewIncremental(storeDims)
	if err != nil {
		t.Fatal(err)
	}
	st := &storeState{mem: mem}
	for _, f := range segFiles {
		st.segs = append(st.segs, &segment{meta: segmentMeta{File: f, Tuples: 10}})
	}
	if rollupDims != nil {
		r, err := newRollupSeg(rollupMeta{
			File: "rollup-1.dwarf", Dims: rollupDims, Covers: covers, Tuples: 5,
		}, nil, storeDims)
		if err != nil {
			t.Fatal(err)
		}
		st.rollups = append(st.rollups, r)
	}
	return st
}

// plannedTarget is a file-backed target with the query it runs.
type plannedTarget struct {
	file string
	dims []int
	sels []dwarf.Selector
}

// planFileTargets plans a grouped query over st and returns its
// file-backed targets with the query each runs, after checking that the
// live memtable closes the plan under the original query.
func planFileTargets(t *testing.T, s *Store, st *storeState, grouped []int, sels []dwarf.Selector) []plannedTarget {
	t.Helper()
	ts, err := s.plan(st, grouped, sels, nil)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := st.mem.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if live := ts[len(ts)-1]; live.src != query.Querier(runs) || live.file != "" || live.remap != nil {
		t.Fatalf("plan must end with the live memtable under the original query: %+v", live)
	}
	out := make([]plannedTarget, 0, len(ts)-1)
	for i := range ts[:len(ts)-1] {
		dims, sels := ts[i].args(grouped, sels)
		out = append(out, plannedTarget{file: ts[i].file, dims: dims, sels: sels})
	}
	return out
}

func TestPlanTargetsRollupCoverGone(t *testing.T) {
	dims := []string{"Day", "Region", "Kind"}
	// The rollup summarizes seg-1 and seg-2, but seg-2 was compacted away:
	// routing through the rollup would double-count seg-1 against the
	// compaction output, so the planner must fall back to the plain
	// fan-out over the live segments.
	st := plannerState(t, dims, []string{"seg-1.dwarf", "seg-3.dwarf"},
		[]string{"Region", "Kind"}, []string{"seg-1.dwarf", "seg-2.dwarf"})
	sels := make([]dwarf.Selector, len(dims))
	s := &Store{dims: dims}
	targets := planFileTargets(t, s, st, []int{1}, sels)
	if viaRollup := s.rollupHits.Load() > 0; viaRollup {
		t.Fatal("partially covering rollup must not be planned in")
	}
	if len(targets) != 2 || targets[0].file != "seg-1.dwarf" || targets[1].file != "seg-3.dwarf" {
		t.Fatalf("fallback targets = %+v", targets)
	}
	for _, pt := range targets {
		if len(pt.dims) != 1 || pt.dims[0] != 1 || len(pt.sels) != len(dims) {
			t.Fatalf("fallback target must keep the original query: %+v", pt)
		}
	}
}

func TestPlanTargetsRollupRemap(t *testing.T) {
	dims := []string{"Day", "Region", "Kind"}
	st := plannerState(t, dims, []string{"seg-1.dwarf", "seg-3.dwarf"},
		[]string{"Region", "Kind"}, []string{"seg-1.dwarf"})
	sels := make([]dwarf.Selector, len(dims))
	sels[2] = dwarf.SelectKeys("bike")
	s := &Store{dims: dims}
	targets := planFileTargets(t, s, st, []int{2}, sels)
	if viaRollup := s.rollupHits.Load() > 0; !viaRollup {
		t.Fatal("fully covering rollup must be planned in")
	}
	// The rollup replaces seg-1 and its query is remapped to the rollup's
	// dimension order: store dim 2 (Kind) is rollup position 1, and only
	// the surviving dimensions' selectors ride along.
	if len(targets) != 2 || targets[0].file != "rollup-1.dwarf" || targets[1].file != "seg-3.dwarf" {
		t.Fatalf("rollup targets = %+v", targets)
	}
	rt := targets[0]
	if len(rt.dims) != 1 || rt.dims[0] != 1 {
		t.Fatalf("rollup grouped dims not remapped: %+v", rt.dims)
	}
	if len(rt.sels) != 2 || len(rt.sels[1].Keys) != 1 || rt.sels[1].Keys[0] != "bike" {
		t.Fatalf("rollup selectors not remapped: %+v", rt.sels)
	}
	// The uncovered segment still runs the original query.
	if got := targets[1]; got.dims[0] != 2 || len(got.sels) != 3 {
		t.Fatalf("uncovered segment query was remapped: %+v", got)
	}
}

func TestInvalidArgsSkipPlanner(t *testing.T) {
	// Invalid arguments must skip rollup substitution and reach the kernel
	// on every target, so each store reports the kernel's usual error
	// instead of the planner panicking or answering a mis-shaped query —
	// whether the store has no cache and no rollups, a cache, or a rollup.
	dims := []string{"A", "B"}
	tuples := []dwarf.Tuple{{Dims: []string{"x", "y"}, Measure: 1}, {Dims: []string{"x", "z"}, Measure: 2}}
	ref, err := dwarf.New(dims, tuples)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(q query.Querier) error{
		"point bad key count": func(q query.Querier) error {
			_, err := q.Point("x")
			return err
		},
		"range bad selector count": func(q query.Querier) error {
			_, err := q.Range(make([]dwarf.Selector, 1))
			return err
		},
		"groupby dim out of range": func(q query.Querier) error {
			_, err := q.GroupBy(7, make([]dwarf.Selector, 2))
			return err
		},
		"groupby bad selector count": func(q query.Querier) error {
			_, err := q.GroupBy(0, make([]dwarf.Selector, 1))
			return err
		},
		"pivot duplicate dim": func(q query.Querier) error {
			_, err := q.Pivot([]int{0, 0}, make([]dwarf.Selector, 2))
			return err
		},
		"topk negative dim": func(q query.Querier) error {
			_, err := q.TopK(-1, make([]dwarf.Selector, 2), dwarf.TopKSpec{K: 1})
			return err
		},
	}
	for storeName, opts := range map[string]Options{
		"plain":  {},
		"cache":  {CacheBytes: 1 << 20},
		"rollup": {Rollups: [][]string{{"A"}}},
	} {
		opts.Dims, opts.NoSync, opts.DisableAutoCompact = dims, true, true
		store, err := Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		// One tuple sealed (and summarized by the rollup, if any), one live,
		// so every kind of target runs the invalid query.
		if err := store.Append(tuples[:1]); err != nil {
			t.Fatal(err)
		}
		if err := store.Seal(); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := store.Append(tuples[1:]); err != nil {
			t.Fatal(err)
		}
		if st := store.Stats(); len(st.Segments) != 1 || len(st.Rollups) != len(opts.Rollups) {
			t.Fatalf("%s: store shape %+v", storeName, st)
		}
		for name, run := range cases {
			storeErr, cubeErr := run(store), run(ref)
			if storeErr == nil {
				t.Fatalf("%s/%s: store accepted invalid query", storeName, name)
			}
			if cubeErr == nil || storeErr.Error() != cubeErr.Error() {
				t.Fatalf("%s/%s: store error %q, kernel error %q", storeName, name, storeErr, cubeErr)
			}
		}
	}
}

func TestRunIndexedFirstError(t *testing.T) {
	errAt := func(fail ...int) func(int) error {
		bad := make(map[int]bool, len(fail))
		for _, i := range fail {
			bad[i] = true
		}
		return func(i int) error {
			if bad[i] {
				return fmt.Errorf("target %d failed", i)
			}
			return nil
		}
	}

	// Concurrent path (>2 targets): multiple failures surface as the
	// lowest-index one, deterministically, however the goroutines race.
	for round := 0; round < 20; round++ {
		err := runIndexed(6, errAt(4, 2, 5))
		if err == nil || err.Error() != "target 2 failed" {
			t.Fatalf("round %d: got %v, want lowest-index error", round, err)
		}
	}

	// All targets still run to completion despite an early failure — the
	// concurrent path has no cancellation, so every index is visited.
	var visited atomic.Int64
	err := runIndexed(5, func(i int) error {
		visited.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("got %v", err)
	}
	if n := visited.Load(); runtime.GOMAXPROCS(0) > 1 && n != 5 {
		t.Fatalf("concurrent path visited %d of 5 targets", n)
	}

	// Serial path (<=2 targets): a failure stops the walk immediately.
	var serial atomic.Int64
	err = runIndexed(2, func(i int) error {
		serial.Add(1)
		return fmt.Errorf("target %d failed", i)
	})
	if err == nil || err.Error() != "target 0 failed" || serial.Load() != 1 {
		t.Fatalf("serial path: err=%v after %d calls", err, serial.Load())
	}

	if err := runIndexed(6, errAt()); err != nil {
		t.Fatalf("clean run: %v", err)
	}
}
