package serve

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cubestore"
	"repro/internal/dwarf"
)

// End-to-end live serving: start a live-mode server, POST tuple batches
// over HTTP, and hold every /query/* answer for the live cube equal to a
// dwarf.New batch build over the same tuples — while seals and compactions
// happen underneath (tiny SealTuples, auto-compaction on).

func liveFixture(t *testing.T, storeOpts cubestore.Options) (*cubestore.Store, *httptest.Server) {
	t.Helper()
	store, err := cubestore.Open(t.TempDir(), storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s, err := New(Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return store, ts
}

func liveTupleSpecs(tuples []dwarf.Tuple) []map[string]any {
	out := make([]map[string]any, len(tuples))
	for i, tu := range tuples {
		out[i] = map[string]any{"dims": tu.Dims, "measure": tu.Measure}
	}
	return out
}

func wantAgg(t *testing.T, got map[string]any, want dwarf.Aggregate, ctx string) {
	t.Helper()
	if got["sum"] != want.Sum || got["count"] != float64(want.Count) {
		t.Fatalf("%s: got %v, want %+v", ctx, got, want)
	}
}

func TestLiveServeEndToEnd(t *testing.T) {
	dims := []string{"Day", "Region", "Kind"}
	regions := []string{"north", "south", "east", "west"}
	kinds := []string{"bike", "car"}
	store, ts := liveFixture(t, cubestore.Options{
		Dims:          dims,
		SealTuples:    60,
		CompactFanout: 2,
		NoSync:        true,
	})

	rng := rand.New(rand.NewSource(5))
	var all []dwarf.Tuple
	for batchNo := 0; batchNo < 40; batchNo++ {
		batch := make([]dwarf.Tuple, rng.Intn(12)+1)
		for i := range batch {
			batch[i] = dwarf.Tuple{
				Dims: []string{
					fmt.Sprintf("d%d", rng.Intn(5)),
					regions[rng.Intn(len(regions))],
					kinds[rng.Intn(len(kinds))],
				},
				Measure: float64(rng.Intn(7) + 1),
			}
		}
		resp := postJSON(t, ts.URL+"/ingest", map[string]any{"tuples": liveTupleSpecs(batch)}, 200)
		all = append(all, batch...)
		if resp["appended"] != float64(len(batch)) || resp["total_tuples"] != float64(len(all)) {
			t.Fatalf("ingest response %v after %d tuples", resp, len(all))
		}

		// Convergence is immediate: the ack covers the batch, so the very
		// next queries must reflect it.
		ref, err := dwarf.New(dims, all)
		if err != nil {
			t.Fatal(err)
		}
		got := getJSON(t, ts.URL+"/query/point?cube=live&key=*&key=*&key=*", 200)
		want, _ := ref.Point(dwarf.All, dwarf.All, dwarf.All)
		wantAgg(t, aggOf(t, got, "aggregate"), want, "ALL point")

		tu := batch[rng.Intn(len(batch))]
		got = getJSON(t, ts.URL+fmt.Sprintf("/query/point?cube=live&key=%s&key=%s&key=%s",
			tu.Dims[0], tu.Dims[1], tu.Dims[2]), 200)
		want, _ = ref.Point(tu.Dims...)
		wantAgg(t, aggOf(t, got, "aggregate"), want, "fresh tuple point")

		if batchNo%8 == 0 {
			rgot := postJSON(t, ts.URL+"/query/range", map[string]any{
				"cube":      "live",
				"selectors": []map[string]any{{"keys": []string{"d0", "d1", "d2"}}, {"lo": "east", "hi": "south"}},
			}, 200)
			rwant, _ := ref.Range([]dwarf.Selector{
				dwarf.SelectKeys("d0", "d1", "d2"),
				dwarf.SelectRange("east", "south"),
				dwarf.SelectAll(),
			})
			wantAgg(t, aggOf(t, rgot, "aggregate"), rwant, "range")

			ggot := postJSON(t, ts.URL+"/query/groupby", map[string]any{
				"cube": "live", "dim": "Region",
			}, 200)
			gwant, _ := ref.GroupBy(1, []dwarf.Selector{dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectAll()})
			groups, ok := ggot["groups"].(map[string]any)
			if !ok || len(groups) != len(gwant) {
				t.Fatalf("groupby: got %v, want %d groups", ggot, len(gwant))
			}
			for k, a := range gwant {
				wantAgg(t, aggOf(t, map[string]any{"g": groups[k]}, "g"), a, "group "+k)
			}

			// The new kernel shapes reach the live store through the same
			// shared surface: top-k ranking and rollup rows over the store
			// fan-out must equal the batch cube's, order included.
			kgot := postJSON(t, ts.URL+"/query/topk", map[string]any{
				"cube": "live", "dim": "Kind", "k": 2, "by": "count",
			}, 200)
			kwant, _ := ref.TopK(2, make([]dwarf.Selector, 3),
				dwarf.TopKSpec{K: 2, By: dwarf.ByCount})
			entries, ok := kgot["entries"].([]any)
			if !ok || len(entries) != len(kwant) {
				t.Fatalf("live topk: got %v, want %d entries", kgot, len(kwant))
			}
			for i, e := range entries {
				m := e.(map[string]any)
				if m["key"] != kwant[i].Key {
					t.Fatalf("live topk entry %d = %v, want %+v", i, m, kwant[i])
				}
				wantAgg(t, aggOf(t, m, "aggregate"), kwant[i].Agg, "topk "+kwant[i].Key)
			}

			ugot := postJSON(t, ts.URL+"/query/rollup", map[string]any{
				"cube": "live", "keep": []string{"Region", "Kind"},
			}, 200)
			rows, ok := ugot["groups"].([]any)
			uwant, _ := ref.Pivot([]int{1, 2}, make([]dwarf.Selector, 3))
			if !ok || len(rows) != len(uwant) {
				t.Fatalf("live rollup: got %v, want %d rows", ugot, len(uwant))
			}
			for i, r := range rows {
				m := r.(map[string]any)
				keys := m["keys"].([]any)
				if keys[0] != uwant[i].Keys[0] || keys[1] != uwant[i].Keys[1] {
					t.Fatalf("live rollup row %d keys = %v, want %v", i, keys, uwant[i].Keys)
				}
				wantAgg(t, aggOf(t, m, "aggregate"), uwant[i].Agg, "rollup row")
			}
		}
	}

	// Seals and compactions really happened underneath the HTTP traffic.
	// Both run in the background after the ack, so wait (bounded) for the
	// ones the ingest triggered before asserting.
	deadline := time.Now().Add(10 * time.Second)
	st := store.Stats()
	for (st.Seals == 0 || st.Compactions == 0) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		st = store.Stats()
	}
	if st.Seals == 0 || st.Compactions == 0 {
		t.Fatalf("expected live seals and compactions during ingest, got %+v", st)
	}

	// /store/stats and /stats?cube=live expose the store.
	for _, url := range []string{ts.URL + "/store/stats", ts.URL + "/stats?cube=live"} {
		resp := getJSON(t, url, 200)
		stats, ok := resp["stats"].(map[string]any)
		if !ok {
			t.Fatalf("%s: no stats object: %v", url, resp)
		}
		if stats["total_tuples"] != float64(len(all)) {
			t.Fatalf("%s: total_tuples = %v, want %d", url, stats["total_tuples"], len(all))
		}
	}

	// The registry names the live cube.
	if resp := getJSON(t, ts.URL+"/cubes", 200); resp["live"] != "live" {
		t.Fatalf("/cubes missing live entry: %v", resp)
	}
}

func TestLiveServeValidation(t *testing.T) {
	_, ts := liveFixture(t, cubestore.Options{Dims: []string{"A", "B"}, NoSync: true})

	// Bad batches are rejected with 400 and ingest nothing.
	postJSON(t, ts.URL+"/ingest", map[string]any{"tuples": []map[string]any{
		{"dims": []string{"only-one"}, "measure": 1.0},
	}}, 400)
	postJSON(t, ts.URL+"/ingest", map[string]any{"tuples": []map[string]any{
		{"dims": []string{"x", "*"}, "measure": 1.0},
	}}, 400)
	postJSON(t, ts.URL+"/ingest", map[string]any{"tuples": []map[string]any{}}, 400)
	got := getJSON(t, ts.URL+"/query/point?cube=live&key=*&key=*", 200)
	wantAgg(t, aggOf(t, got, "aggregate"), dwarf.Aggregate{}, "empty store")

	// GET /ingest is rejected; unknown cubes on a live-only server 400 —
	// including /stats, which must not fall back to files relative to the
	// process working directory.
	getJSON(t, ts.URL+"/ingest", 400)
	getJSON(t, ts.URL+"/query/point?cube=nope&key=*&key=*", 400)
	getJSON(t, ts.URL+"/stats?cube=anything.dwarf", 400)
	getJSON(t, ts.URL+"/cubes", 200)

	// Closed store surfaces as 503.
	store, ts2 := liveFixture(t, cubestore.Options{Dims: []string{"A", "B"}, NoSync: true})
	store.Close()
	postJSON(t, ts2.URL+"/ingest", map[string]any{"tuples": []map[string]any{
		{"dims": []string{"x", "y"}, "measure": 1.0},
	}}, 503)
}
