package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cubestore"
	"repro/internal/dwarf"
	"repro/internal/query"
)

// TestPlannedPathSharedResultsRace pins the planned query path's read-only
// contract under the race detector: warm TopK/Pivot/GroupBy results are
// shared between the qcache and every concurrent caller, so any in-place
// sort, filter or truncation of a cached value — in serve's paging, the
// kernel's TopK finishing step, or a name-level helper — shows up as a
// data race here. One goroutine deliberately mutates DrillDown's returned
// map, which must be a private copy, never the cache-shared one.
func TestPlannedPathSharedResultsRace(t *testing.T) {
	dims := []string{"Day", "Region", "Kind"}
	store, ts := liveFixture(t, cubestore.Options{
		Dims:       dims,
		SealTuples: 50,
		NoSync:     true,
		CacheBytes: 1 << 20,
		Rollups:    [][]string{{"Region", "Kind"}},
	})

	var tuples []dwarf.Tuple
	for day := 0; day < 6; day++ {
		for r, region := range []string{"north", "south", "east", "west"} {
			for k, kind := range []string{"bike", "car", "scooter"} {
				tuples = append(tuples, dwarf.Tuple{
					Dims:    []string{fmt.Sprintf("d%d", day), region, kind},
					Measure: float64(day + r + k + 1),
				})
			}
		}
	}
	if err := store.Append(tuples); err != nil {
		t.Fatal(err)
	}

	// Warm every shape once so the readers below hit cache-shared values.
	all := make([]dwarf.Selector, len(dims))
	if _, err := store.TopK(1, all, dwarf.TopKSpec{K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Pivot([]int{1, 2}, all); err != nil {
		t.Fatal(err)
	}

	const loops = 40
	var wg sync.WaitGroup
	run := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				fn(i)
			}
		}()
	}

	// Paged HTTP reads over the cached slices (window() subslices them).
	run(func(i int) {
		postJSON(t, ts.URL+"/query/topk", map[string]any{
			"cube": "live", "dim": "Region", "k": 4, "offset": i % 3, "limit": 2,
		}, 200)
	})
	run(func(i int) {
		postJSON(t, ts.URL+"/query/pivot", map[string]any{
			"cube": "live", "dims": []string{"Region", "Kind"}, "offset": i % 5, "limit": 3,
		}, 200)
	})
	run(func(i int) {
		postJSON(t, ts.URL+"/query/rollup", map[string]any{
			"cube": "live", "keep": []string{"Region", "Kind"}, "offset": i % 5, "limit": 3,
		}, 200)
	})
	run(func(i int) {
		postJSON(t, ts.URL+"/query/groupby", map[string]any{
			"cube": "live", "dim": "Kind", "offset": i % 2, "limit": 2,
		}, 200)
	})
	// Same canonical cache key as the DrillDown below: the reader and the
	// mutator share one qcache entry.
	run(func(i int) {
		postJSON(t, ts.URL+"/query/groupby", map[string]any{
			"cube": "live", "dim": "Region",
			"selectors": []map[string]any{{"keys": []string{"d1"}}},
		}, 200)
	})
	// Direct warm queries racing the HTTP reads over the same cache entries.
	run(func(i int) {
		if _, err := store.TopK(1, all, dwarf.TopKSpec{K: 4}); err != nil {
			t.Error(err)
		}
	})
	run(func(i int) {
		if _, err := store.Pivot([]int{1, 2}, all); err != nil {
			t.Error(err)
		}
	})
	// DrillDown's result is the caller's to mutate; before it copied, this
	// goroutine raced every GroupBy/TopK reader above on the shared map.
	run(func(i int) {
		m, err := query.DrillDown(store, map[string]string{"Day": "d1"}, "Region")
		if err != nil {
			t.Error(err)
			return
		}
		for k := range m {
			delete(m, k)
		}
		m["mutated"] = dwarf.Aggregate{Count: 1}
	})
	wg.Wait()
}
