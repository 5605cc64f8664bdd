package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dwarf"
)

// serveFixture writes two cube files (one plain, one trailer-indexed) into
// a temp dir and returns the dir, the source cube, and a test server.
func serveFixture(t testing.TB, cacheSize int) (string, *dwarf.Cube, *httptest.Server) {
	t.Helper()
	tuples := []dwarf.Tuple{
		{Dims: []string{"d1", "north", "bike"}, Measure: 2},
		{Dims: []string{"d1", "south", "bike"}, Measure: 3},
		{Dims: []string{"d2", "north", "car"}, Measure: 5},
		{Dims: []string{"d2", "west", "bike"}, Measure: 7},
		{Dims: []string{"d3", "north", "bike"}, Measure: 11},
	}
	cube, err := dwarf.New([]string{"Day", "Region", "Kind"}, tuples)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var indexed bytes.Buffer
	if err := cube.EncodeIndexed(&indexed); err != nil {
		t.Fatal(err)
	}
	plain, _, err := dwarf.SplitEncoded(indexed.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "plain.dwarf"), plain, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "indexed.dwarf"), indexed.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.dwarf"), []byte("not a cube"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Dir: dir, CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return dir, cube, ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
	return out
}

func postJSON(t *testing.T, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: bad JSON: %v", url, err)
	}
	return out
}

func aggOf(t *testing.T, m map[string]any, field string) map[string]any {
	t.Helper()
	agg, ok := m[field].(map[string]any)
	if !ok {
		t.Fatalf("response has no %q object: %v", field, m)
	}
	return agg
}

// TestServerEndpoints drives every endpoint over both encodings and checks
// answers against the in-memory cube.
func TestServerEndpoints(t *testing.T) {
	_, cube, ts := serveFixture(t, 4)
	for _, name := range []string{"plain.dwarf", "indexed.dwarf", "plain", "indexed"} {
		// Point, with ALL wildcard in one dimension.
		got := getJSON(t, ts.URL+"/query/point?cube="+name+"&key=d1&key=*&key=bike", http.StatusOK)
		want, err := cube.Point("d1", "*", "bike")
		if err != nil {
			t.Fatal(err)
		}
		if agg := aggOf(t, got, "aggregate"); agg["sum"] != want.Sum || agg["count"] != float64(want.Count) {
			t.Fatalf("%s: point = %v, want %v", name, agg, want)
		}
		// Range via POST, short selector list padded with ALL.
		got = postJSON(t, ts.URL+"/query/range", map[string]any{
			"cube":      name,
			"selectors": []map[string]any{{"lo": "d1", "hi": "d2"}},
		}, http.StatusOK)
		wantR, err := cube.Range([]dwarf.Selector{dwarf.SelectRange("d1", "d2"), dwarf.SelectAll(), dwarf.SelectAll()})
		if err != nil {
			t.Fatal(err)
		}
		if agg := aggOf(t, got, "aggregate"); agg["sum"] != wantR.Sum {
			t.Fatalf("%s: range = %v, want %v", name, agg, wantR)
		}
		// GroupBy by dimension name.
		got = postJSON(t, ts.URL+"/query/groupby", map[string]any{
			"cube": name, "dim": "Region",
			"selectors": []map[string]any{{"keys": []string{"d1", "d2"}}},
		}, http.StatusOK)
		wantG, err := cube.GroupBy(1, []dwarf.Selector{dwarf.SelectKeys("d1", "d2"), dwarf.SelectAll(), dwarf.SelectAll()})
		if err != nil {
			t.Fatal(err)
		}
		groups := aggOf(t, got, "groups")
		if len(groups) != len(wantG) {
			t.Fatalf("%s: groupby has %d groups, want %d", name, len(groups), len(wantG))
		}
		for k, wa := range wantG {
			ga, ok := groups[k].(map[string]any)
			if !ok || ga["sum"] != wa.Sum {
				t.Fatalf("%s: groupby[%q] = %v, want %v", name, k, groups[k], wa)
			}
		}
		// Stats.
		got = getJSON(t, ts.URL+"/stats?cube="+name, http.StatusOK)
		st := cube.Stats()
		if got["nodes"] != float64(st.Nodes) || got["total_cells"] != float64(st.TotalCells()) {
			t.Fatalf("%s: stats = %v, want %+v", name, got, st)
		}
	}

	// Registry: both cubes listed, trailer flag correct, junk listed too.
	got := getJSON(t, ts.URL+"/cubes", http.StatusOK)
	cubes, ok := got["cubes"].([]any)
	if !ok || len(cubes) != 3 {
		t.Fatalf("/cubes listed %v, want 3 entries", got["cubes"])
	}
	byName := map[string]map[string]any{}
	for _, c := range cubes {
		m := c.(map[string]any)
		byName[m["name"].(string)] = m
	}
	if byName["plain.dwarf"]["indexed"] != false || byName["indexed.dwarf"]["indexed"] != true {
		t.Fatalf("/cubes trailer flags wrong: %v", byName)
	}
	if byName["plain.dwarf"]["loaded"] != true {
		t.Fatalf("plain.dwarf should be hot after the queries above: %v", byName)
	}
}

// TestServerErrors checks the failure surface: unknown cubes 404, bad
// queries 400, corrupt files 502, path escapes rejected.
func TestServerErrors(t *testing.T) {
	_, _, ts := serveFixture(t, 4)
	getJSON(t, ts.URL+"/query/point?cube=missing.dwarf&key=a", http.StatusNotFound)
	getJSON(t, ts.URL+"/query/point?cube=plain.dwarf&key=a", http.StatusBadRequest) // arity
	getJSON(t, ts.URL+"/query/point", http.StatusBadRequest)                        // no cube
	getJSON(t, ts.URL+"/query/point?cube=..%2Fplain.dwarf&key=a", http.StatusBadRequest)
	getJSON(t, ts.URL+"/query/point?cube=junk.dwarf&key=a&key=b&key=c", http.StatusBadGateway)
	getJSON(t, ts.URL+"/stats?cube=junk.dwarf", http.StatusBadGateway)
	postJSON(t, ts.URL+"/query/range", map[string]any{
		"cube":      "plain.dwarf",
		"selectors": []map[string]any{{"lo": "a"}}, // lo without hi
	}, http.StatusBadRequest)
	postJSON(t, ts.URL+"/query/range", map[string]any{
		"cube":      "plain.dwarf",
		"selectors": []map[string]any{{}, {}, {}, {}}, // too many dims
	}, http.StatusBadRequest)
	postJSON(t, ts.URL+"/query/groupby", map[string]any{
		"cube": "plain.dwarf", "dim": "Nope",
	}, http.StatusBadRequest)
	resp, err := http.Get(ts.URL + "/query/range")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /query/range: status %d, want 400", resp.StatusCode)
	}
}

// TestServerLRU holds the cache at one entry and alternates cubes: the
// cache must never exceed capacity and must keep answering correctly.
func TestServerLRU(t *testing.T) {
	dir, cube, ts := serveFixture(t, 1)
	want, err := cube.Point("*", "*", "*")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		name := "plain.dwarf"
		if i%2 == 1 {
			name = "indexed.dwarf"
		}
		got := getJSON(t, ts.URL+"/query/point?cube="+name+"&key=*&key=*&key=*", http.StatusOK)
		if agg := aggOf(t, got, "aggregate"); agg["sum"] != want.Sum {
			t.Fatalf("round %d: sum %v, want %v", i, agg["sum"], want.Sum)
		}
		reg := getJSON(t, ts.URL+"/cubes", http.StatusOK)
		cache, ok := reg["cache"].([]any)
		if !ok || len(cache) > 1 {
			t.Fatalf("round %d: cache %v exceeds capacity 1", i, reg["cache"])
		}
	}
	_ = dir
}

// TestServerConcurrent hammers one server from many goroutines; combined
// with -race in CI this checks the shared-view and LRU locking story.
func TestServerConcurrent(t *testing.T) {
	_, cube, ts := serveFixture(t, 2)
	want, err := cube.Point("d2", "north", "car")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "plain.dwarf"
			if g%2 == 1 {
				name = "indexed.dwarf"
			}
			for i := 0; i < 20; i++ {
				resp, err := http.Get(ts.URL + "/query/point?cube=" + name + "&key=d2&key=north&key=car")
				if err != nil {
					errs <- err
					return
				}
				var out map[string]any
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				agg, ok := out["aggregate"].(map[string]any)
				if !ok || agg["sum"] != want.Sum {
					errs <- fmt.Errorf("goroutine %d: got %v, want sum %v", g, out, want.Sum)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestNewValidation covers the constructor's failure modes.
func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New with no dir did not error")
	}
	if _, err := New(Options{Dir: "/definitely/not/here"}); err == nil {
		t.Fatal("New with a missing dir did not error")
	}
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Dir: f}); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("New over a file: %v", err)
	}
}

// TestServerReloadsReplacedFile pins the cache-revalidation behavior: after
// a cube file is atomically replaced on disk, the next request serves the
// new cube, not the stale cached view.
func TestServerReloadsReplacedFile(t *testing.T) {
	dir, _, ts := serveFixture(t, 4)
	before := getJSON(t, ts.URL+"/query/point?cube=plain.dwarf&key=*&key=*&key=*", http.StatusOK)

	replacement, err := dwarf.New([]string{"Day", "Region", "Kind"}, []dwarf.Tuple{
		{Dims: []string{"d9", "north", "bike"}, Measure: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := replacement.EncodeIndexed(&buf); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ".next.dwarf")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Ensure the mtime moves even on coarse filesystem clocks.
	now := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(tmp, now, now); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "plain.dwarf")); err != nil {
		t.Fatal(err)
	}

	after := getJSON(t, ts.URL+"/query/point?cube=plain.dwarf&key=*&key=*&key=*", http.StatusOK)
	got := aggOf(t, after, "aggregate")
	if got["sum"] != 100.0 || got["count"] != 1.0 {
		t.Fatalf("replaced cube not picked up: before %v, after %v",
			aggOf(t, before, "aggregate"), got)
	}
}
