package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cubestore"
	"repro/internal/dwarf"
)

// encodeReflect is the reference encoder: encoding/json with the wire's
// two-space indent and trailing newline.
func encodeReflect(t *testing.T, v any) []byte {
	t.Helper()
	var sb bytes.Buffer
	enc := json.NewEncoder(&sb)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return sb.Bytes()
}

// nastyStrings exercises every escaping branch: quotes, backslashes,
// control bytes, HTML metacharacters, invalid UTF-8, U+2028/U+2029,
// multi-byte runes.
var nastyStrings = []string{
	"",
	"plain",
	`quote " backslash \ done`,
	"newline\n tab\t cr\r backspace\b formfeed\f",
	"ctrl \x00\x01\x1f end",
	"html <script>&amp;</script>",
	"invalid \xff\xfe utf8",
	"line seps \u2028 and \u2029",
	"münchen 東京 🚲",
	strings.Repeat("long ", 100) + "<tail>",
}

func TestAppendJSONStringDifferential(t *testing.T) {
	for _, s := range nastyStrings {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("string %q:\n got %s\nwant %s", s, got, want)
		}
	}
}

func TestAppendJSONFloatDifferential(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.999999e-7, 1e-7, 3.14159,
		1e20, 1e21, 2.5e22, -1.7976931348623157e308, 5e-324, 42, 1234567.875,
	}
	for _, f := range vals {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("float %v:\n got %s\nwant %s", f, got, want)
		}
	}
	// Policy divergence: non-finite values encode as null where the
	// reflection encoder would error out mid-response.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := appendJSONFloat(nil, f); string(got) != "null" {
			t.Errorf("float %v: got %s, want null", f, got)
		}
	}
}

func TestAppendJSONTimeDifferential(t *testing.T) {
	times := []time.Time{
		{},
		time.Date(2026, 8, 8, 12, 30, 45, 0, time.UTC),
		time.Date(2026, 8, 8, 12, 30, 45, 123456789, time.UTC),
		time.Date(2026, 8, 8, 12, 30, 45, 120000000, time.FixedZone("+01", 3600)),
		time.Now(),
		time.Now().Round(time.Second),
	}
	for _, tm := range times {
		want, err := json.Marshal(tm)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONTime(nil, tm); !bytes.Equal(got, want) {
			t.Errorf("time %v:\n got %s\nwant %s", tm, got, want)
		}
	}
}

func FuzzJSONString(f *testing.F) {
	for _, s := range nastyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip()
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("string %q:\n got %s\nwant %s", s, got, want)
		}
	})
}

func FuzzJSONFloat(f *testing.F) {
	f.Add(uint64(0))
	f.Add(math.Float64bits(1e-7))
	f.Add(math.Float64bits(2.5e22))
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Errorf("float %v (bits %#x):\n got %s\nwant %s", v, bits, got, want)
		}
	})
}

// TestEnvelopeEncodersDifferential pins every envelope encoder byte-for-byte
// against the reflection encoding of the equivalent typed response struct,
// including empty pages and nil-vs-empty slice distinctions.
func TestEnvelopeEncodersDifferential(t *testing.T) {
	agg := dwarf.Aggregate{Sum: 17.25, Count: 3, Min: -2.5, Max: 11}
	agg2 := dwarf.Aggregate{Sum: 1e-7, Count: 1, Min: 2.5e22, Max: 0.125}

	check := func(name string, got []byte, ref any) {
		t.Helper()
		if want := encodeReflect(t, ref); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got: %s\nwant: %s", name, got, want)
		}
	}

	for _, msg := range nastyStrings {
		check("error", appendErrorResponse(nil, msg), errorResponse{Error: msg})
	}

	check("point nil keys", appendPointResponse(nil, "c", nil, agg),
		pointResponse{Aggregate: toAggJSON(agg), Cube: "c", Keys: nil})
	check("point empty keys", appendPointResponse(nil, "c", []string{}, agg),
		pointResponse{Aggregate: toAggJSON(agg), Cube: "c", Keys: []string{}})
	check("point nasty", appendPointResponse(nil, nastyStrings[6], nastyStrings, agg2),
		pointResponse{Aggregate: toAggJSON(agg2), Cube: nastyStrings[6], Keys: nastyStrings})

	check("range", appendRangeResponse(nil, "cube<&>", agg),
		rangeResponse{Aggregate: toAggJSON(agg), Cube: "cube<&>"})

	groups := map[string]dwarf.Aggregate{
		"north": agg, "south": agg2, `we"st`: {Sum: 7, Count: 1, Min: 7, Max: 7},
	}
	pageKeys := []string{"north", "south", `we"st`} // sorted
	refGroups := map[string]aggJSON{}
	for _, k := range pageKeys {
		refGroups[k] = toAggJSON(groups[k])
	}
	check("groupby", appendGroupByResponse(nil, "c", "Region", pageKeys, groups, 9, 2, 3, true),
		groupByResponse{Cube: "c", Dim: "Region", Groups: refGroups,
			Limit: 3, Offset: 2, TotalGroups: 9, Truncated: true})
	check("groupby empty", appendGroupByResponse(nil, "c", "Region", nil, nil, 0, 5, 3, false),
		groupByResponse{Cube: "c", Dim: "Region", Groups: map[string]aggJSON{},
			Limit: 3, Offset: 5, TotalGroups: 0, Truncated: false})

	entries := []dwarf.GroupEntry{{Key: "bike", Agg: agg}, {Key: "<car>", Agg: agg2}}
	refEntries := []entryJSON{
		{Key: "bike", Metric: dwarf.ByAvg.Of(agg), Aggregate: toAggJSON(agg)},
		{Key: "<car>", Metric: dwarf.ByAvg.Of(agg2), Aggregate: toAggJSON(agg2)},
	}
	check("topk", appendTopKResponse(nil, "c", "Kind", dwarf.ByAvg, entries, 5, 0, 2, true),
		topKResponse{By: "avg", Cube: "c", Dim: "Kind", Entries: refEntries,
			Limit: 2, Offset: 0, TotalEntries: 5, Truncated: true})
	check("topk empty", appendTopKResponse(nil, "c", "Kind", dwarf.BySum, nil, 0, 0, 10, false),
		topKResponse{By: "sum", Cube: "c", Dim: "Kind", Entries: []entryJSON{},
			Limit: 10, Offset: 0, TotalEntries: 0, Truncated: false})

	rows := []dwarf.PivotGroup{
		{Keys: []string{"d1", "north"}, Agg: agg},
		{Keys: []string{"d2", `so"uth`}, Agg: agg2},
	}
	refRows := []rowJSON{
		{Keys: rows[0].Keys, Aggregate: toAggJSON(agg)},
		{Keys: rows[1].Keys, Aggregate: toAggJSON(agg2)},
	}
	check("rows", appendRowsResponse(nil, "c", []string{"Day", "Region"}, rows, 7, 1, 2, true),
		rowsResponse{Cube: "c", Dims: []string{"Day", "Region"}, Groups: refRows,
			Limit: 2, Offset: 1, TotalGroups: 7, Truncated: true})
	check("rows empty nil dims", appendRowsResponse(nil, "c", nil, nil, 0, 0, 4, false),
		rowsResponse{Cube: "c", Dims: nil, Groups: []rowJSON{},
			Limit: 4, Offset: 0, TotalGroups: 0, Truncated: false})

	st := dwarf.Stats{Nodes: 12, Cells: 30, AllCells: 12, SourceTuples: 5}
	check("stats", appendStatsResponse(nil, "c.dwarf", []string{"Day", "Region"}, 5, true, 999, st),
		statsResponse{AllCells: 12, Cells: 30, Cube: "c.dwarf", Dims: []string{"Day", "Region"},
			EncodedBytes: 999, Indexed: true, Nodes: 12, SourceTuples: 5,
			TotalCells: st.TotalCells()})

	cubes := []cubeInfo{
		{Name: "a.dwarf", SizeBytes: 123, Indexed: true, Loaded: false},
		{Name: "b<&>.dwarf", SizeBytes: 1 << 40, Indexed: false, Loaded: true},
	}
	cache := []CacheInfo{
		{Name: "a.dwarf", SizeBytes: 123, LoadedAt: time.Now(), Hits: 7, Indexed: true},
		{Name: "z.dwarf", SizeBytes: 9, LoadedAt: time.Date(2026, 1, 2, 3, 4, 5, 678900000, time.UTC), Hits: 0, Indexed: false},
	}
	check("cubes live", appendCubesResponse(nil, "/tmp/cubes", cubes, cache, "live", true),
		cubesResponse{Cache: cache, Cubes: cubes, Dir: "/tmp/cubes", Live: "live"})
	check("cubes no live", appendCubesResponse(nil, "", []cubeInfo{}, []CacheInfo{}, "", false),
		cubesResponse{Cache: []CacheInfo{}, Cubes: []cubeInfo{}, Dir: ""})

	check("ingest", appendIngestResponse(nil, 128, 4096),
		ingestResponse{Appended: 128, TotalTuples: 4096})

	sstats := cubestore.Stats{
		Dims:         []string{"Day", "Region", "Kind"},
		Segments:     []cubestore.SegmentInfo{{File: "seg-000001.dwarf", Tuples: 100, Level: 1, Bytes: 2048}},
		SealedTuples: 100, LiveTuples: 3, TotalTuples: 103,
		SealedBytes: 2048, WALGen: 4, Generation: 17, WALBytes: 96,
		Seals: 2, Compactions: 1, Appended: 103, StreamingCompactions: 1,
		CacheHits: 40, CacheMisses: 2, CachePartialHits: 120, CachePartialMisses: 6,
		CacheBytes: 1 << 16, CacheEntries: 9, RollupHits: 13,
		GroupCommits: 42, FsyncsSaved: 61,
		FrozenMemtables: 5, SealQueueDepth: 2, DirSyncErrors: 1,
		MemtableRuns: 3, MemtableRunBytes: 34567,
	}
	check("storestats", appendStoreStatsResponse(nil, "live", sstats),
		storeStatsResponse{Cube: "live", Stats: sstats})
	sstats.Rollups = []cubestore.RollupInfo{
		{File: "rollup-000002.dwarf", Dims: []string{"Region", "Kind"}, Covers: 3, Tuples: 12, Bytes: 512},
		{File: `rollup-<&"weird>.dwarf`, Dims: nil, Covers: 0, Tuples: 0, Bytes: 0},
	}
	check("storestats rollups", appendStoreStatsResponse(nil, "live", sstats),
		storeStatsResponse{Cube: "live", Stats: sstats})
	sstats.Rollups = []cubestore.RollupInfo{}
	check("storestats empty rollups", appendStoreStatsResponse(nil, "live", sstats),
		storeStatsResponse{Cube: "live", Stats: sstats})
	sstats.Rollups = nil
	sstats.LastSealError, sstats.LastCompactError = "disk full", `bad "segment"`
	sstats.LastDirSyncError = "sync /store: input/output error"
	sstats.Segments = nil
	check("storestats errors", appendStoreStatsResponse(nil, "live", sstats),
		storeStatsResponse{Cube: "live", Stats: sstats})
}

// TestPartialEnvelopesDifferential pins the envelope variants only a
// cluster source produces: the allow_partial marking appended to every
// query envelope, the total-less ingest ack and /cluster/stats.
func TestPartialEnvelopesDifferential(t *testing.T) {
	agg := dwarf.Aggregate{Sum: 17.25, Count: 3, Min: -2.5, Max: 11}
	failed := []string{"http://n1:8080", "http://<n2>:8080"}
	mark := partialMark{Partial: true, FailedNodes: failed}
	check := func(name string, got []byte, ref any) {
		t.Helper()
		if want := encodeReflect(t, ref); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got: %s\nwant: %s", name, got, want)
		}
	}

	check("point partial", appendPartialMark(appendPointResponse(nil, "", []string{"a"}, agg), failed),
		pointResponse{Aggregate: toAggJSON(agg), Cube: "", Keys: []string{"a"}, partialMark: mark})
	check("range partial", appendPartialMark(appendRangeResponse(nil, "live", agg), failed),
		rangeResponse{Aggregate: toAggJSON(agg), Cube: "live", partialMark: mark})
	check("groupby empty partial", appendPartialMark(appendGroupByResponse(nil, "", "Kind", nil, nil, 0, 0, 5, false), failed),
		groupByResponse{Dim: "Kind", Groups: map[string]aggJSON{}, Limit: 5, partialMark: mark})
	check("topk partial", appendPartialMark(appendTopKResponse(nil, "", "Kind", dwarf.BySum,
		[]dwarf.GroupEntry{{Key: "bike", Agg: agg}}, 4, 0, 1, true), failed),
		topKResponse{By: "sum", Dim: "Kind", Entries: []entryJSON{{Key: "bike", Metric: agg.Sum, Aggregate: toAggJSON(agg)}},
			Limit: 1, TotalEntries: 4, Truncated: true, partialMark: mark})
	check("rows partial", appendPartialMark(appendRowsResponse(nil, "", []string{"Kind"},
		[]dwarf.PivotGroup{{Keys: []string{"bike"}, Agg: agg}}, 1, 0, 10, false), failed),
		rowsResponse{Dims: []string{"Kind"}, Groups: []rowJSON{{Keys: []string{"bike"}, Aggregate: toAggJSON(agg)}},
			Limit: 10, TotalGroups: 1, partialMark: mark})
	check("complete answers are unmarked", appendPartialMark(appendRangeResponse(nil, "live", agg), nil),
		rangeResponse{Aggregate: toAggJSON(agg), Cube: "live"})

	check("ingest without total", appendIngestResponse(nil, 120, -1), sourceIngestResponse{Appended: 120})

	nodes := []NodeStatus{
		{Node: "http://n1:8080", OK: true, Generation: 42},
		{Node: "http://n2:8080", OK: true},
		{Node: "http://n3:8080", Error: `dial tcp: "refused" <&>`},
	}
	check("cluster stats", appendClusterStatsResponse(nil, []string{"Day", "Kind"}, nodes),
		clusterStatsResponse{Dims: []string{"Day", "Kind"}, Nodes: nodes})
	check("cluster stats empty", appendClusterStatsResponse(nil, []string{}, nil),
		clusterStatsResponse{Dims: []string{}, Nodes: []NodeStatus{}})
}

// TestModesByteIdentical replays one request battery against a server and
// requires every body to be byte-identical to encoding/json over the typed
// envelope (oracle_test.go) of the answer computed straight from the
// cube, with the expected status. Error bodies must be the encoded error
// envelope of their own message.
func TestModesByteIdentical(t *testing.T) {
	dir, cube, ts := serveFixture(t, 4)
	all := []dwarf.Selector{dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectAll()}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	do := func(method, path, body string, wantStatus int, want any) {
		t.Helper()
		var resp *http.Response
		var err error
		if method == http.MethodGet {
			resp, err = http.Get(ts.URL + path)
		} else {
			resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		}
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: read: %v", method, path, err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, wantStatus, got)
		}
		if want == nil {
			var e errorResponse
			if err := json.Unmarshal(got, &e); err != nil || e.Error == "" {
				t.Fatalf("%s %s: not an error envelope: %q", method, path, got)
			}
			want = e
		}
		if ref := encodeReflect(t, want); !bytes.Equal(got, ref) {
			t.Fatalf("%s %s: body mismatch\nserved: %q\noracle: %q", method, path, got, ref)
		}
	}
	point := func(cubeName string, keys ...string) pointResponse {
		agg, err := cube.Point(keys...)
		must(err)
		return pointResponse{Aggregate: toAggJSON(agg), Cube: cubeName, Keys: keys}
	}
	rows := func(dims []string, idx ...int) rowsResponse {
		pg, err := cube.Pivot(idx, all)
		must(err)
		out := rowsResponse{Cube: "indexed", Dims: dims, Groups: []rowJSON{},
			Limit: DefaultGroupLimit, TotalGroups: len(pg)}
		for _, r := range pg {
			out.Groups = append(out.Groups, rowJSON{Keys: r.Keys, Aggregate: toAggJSON(r.Agg)})
		}
		return out
	}

	// /cubes first, while the cache is empty.
	var cubes []cubeInfo
	for _, f := range []struct {
		name    string
		indexed bool
	}{{"indexed.dwarf", true}, {"junk.dwarf", false}, {"plain.dwarf", false}} {
		fi, err := os.Stat(filepath.Join(dir, f.name))
		must(err)
		cubes = append(cubes, cubeInfo{Name: f.name, SizeBytes: fi.Size(), Indexed: f.indexed})
	}
	do(http.MethodGet, "/cubes", "", http.StatusOK,
		cubesResponse{Cache: []CacheInfo{}, Cubes: cubes, Dir: dir})

	do(http.MethodGet, "/query/point?cube=indexed&key=d1&key=north&key=bike", "", http.StatusOK,
		point("indexed", "d1", "north", "bike"))
	do(http.MethodGet, "/query/point?cube=indexed&keys=d2,*,*", "", http.StatusOK,
		point("indexed", "d2", "*", "*"))
	do(http.MethodGet, "/query/point?cube=plain&key=%2A&key=north&key=%2A", "", http.StatusOK,
		point("plain", "*", "north", "*"))
	do(http.MethodGet, "/query/point?cube=indexed", "", http.StatusBadRequest, nil) // arity error
	do(http.MethodGet, "/query/point?cube=missing&key=a&key=b&key=c", "", http.StatusNotFound, nil)
	do(http.MethodGet, "/query/point?cube=junk&key=a&key=b&key=c", "", http.StatusBadGateway, nil)
	do(http.MethodPost, "/query/point", `{"cube":"indexed","keys":["*","*","bike"]}`, http.StatusOK,
		point("indexed", "*", "*", "bike"))
	do(http.MethodPost, "/query/point", `{bad json`, http.StatusBadRequest, nil)

	ragg, err := cube.Range([]dwarf.Selector{dwarf.SelectRange("d1", "d2"), dwarf.SelectAll(), dwarf.SelectAll()})
	must(err)
	do(http.MethodPost, "/query/range", `{"cube":"indexed","selectors":[{"lo":"d1","hi":"d2"}]}`, http.StatusOK,
		rangeResponse{Aggregate: toAggJSON(ragg), Cube: "indexed"})

	groups, err := cube.GroupBy(1, all)
	must(err)
	full := groupByResponse{Cube: "indexed", Dim: "Region", Groups: map[string]aggJSON{},
		Limit: DefaultGroupLimit, TotalGroups: len(groups)}
	for k, a := range groups {
		full.Groups[k] = toAggJSON(a)
	}
	do(http.MethodPost, "/query/groupby", `{"cube":"indexed","dim":"Region"}`, http.StatusOK, full)
	// Regions sort north, south, west: the second one-row page is south.
	do(http.MethodPost, "/query/groupby", `{"cube":"indexed","dim":"Region","limit":1,"offset":1}`, http.StatusOK,
		groupByResponse{Cube: "indexed", Dim: "Region", Groups: map[string]aggJSON{"south": toAggJSON(groups["south"])},
			Limit: 1, Offset: 1, TotalGroups: len(groups), Truncated: true})
	do(http.MethodPost, "/query/groupby", `{"cube":"indexed","dim":"Nope"}`, http.StatusBadRequest, nil)

	top, err := cube.TopK(2, all, dwarf.TopKSpec{K: 2, By: dwarf.ByCount})
	must(err)
	topWant := topKResponse{By: "count", Cube: "indexed", Dim: "Kind", Entries: []entryJSON{},
		Limit: DefaultGroupLimit, TotalEntries: len(top)}
	for _, e := range top {
		topWant.Entries = append(topWant.Entries,
			entryJSON{Key: e.Key, Metric: float64(e.Agg.Count), Aggregate: toAggJSON(e.Agg)})
	}
	do(http.MethodPost, "/query/topk", `{"cube":"indexed","dim":"Kind","k":2,"by":"count"}`, http.StatusOK, topWant)

	do(http.MethodPost, "/query/rollup", `{"cube":"indexed","keep":["Region"]}`, http.StatusOK,
		rows([]string{"Region"}, 1))
	do(http.MethodPost, "/query/pivot", `{"cube":"indexed","dims":["Region","Kind"]}`, http.StatusOK,
		rows([]string{"Region", "Kind"}, 1, 2))
	do(http.MethodPost, "/query/pivot", `{"cube":"indexed","dims":[]}`, http.StatusBadRequest, nil)

	data, err := os.ReadFile(filepath.Join(dir, "indexed.dwarf"))
	must(err)
	view, err := dwarf.OpenView(data)
	must(err)
	vst, err := view.Stats()
	must(err)
	do(http.MethodGet, "/stats?cube=indexed", "", http.StatusOK, statsResponse{
		AllCells: vst.AllCells, Cells: vst.Cells, Cube: "indexed", Dims: cube.Dims(),
		EncodedBytes: view.EncodedBytes(), Indexed: true, Nodes: vst.Nodes,
		SourceTuples: view.NumSourceTuples(), TotalCells: vst.TotalCells()})

	// Oversized body: a clean 413 error envelope.
	big := `{"cube":"indexed","keys":["` + strings.Repeat("x", maxQueryBodyBytes+16) + `"]}`
	do(http.MethodPost, "/query/point", big, http.StatusRequestEntityTooLarge,
		errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", maxQueryBodyBytes)})
}

// TestPivotEndpoint sanity-checks the new /query/pivot shape: sorted rows,
// named columns, paging fields.
func TestPivotEndpoint(t *testing.T) {
	_, cube, ts := serveFixture(t, 2)
	out := postJSON(t, ts.URL+"/query/pivot",
		map[string]any{"cube": "indexed", "dims": []string{"Kind", "Region"}}, http.StatusOK)
	wantRows, err := cube.Pivot([]int{2, 1}, []dwarf.Selector{dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectAll()})
	if err != nil {
		t.Fatal(err)
	}
	if got := out["total_groups"].(float64); int(got) != len(wantRows) {
		t.Fatalf("total_groups = %v, want %d", got, len(wantRows))
	}
	dims := out["dims"].([]any)
	if len(dims) != 2 || dims[0] != "Kind" || dims[1] != "Region" {
		t.Fatalf("dims = %v, want [Kind Region]", dims)
	}
	rows := out["groups"].([]any)
	if len(rows) != len(wantRows) {
		t.Fatalf("got %d rows, want %d", len(rows), len(wantRows))
	}
	first := rows[0].(map[string]any)
	keys := first["keys"].([]any)
	if keys[0] != wantRows[0].Keys[0] || keys[1] != wantRows[0].Keys[1] {
		t.Fatalf("first row keys = %v, want %v", keys, wantRows[0].Keys)
	}
}

// TestEncoderAllocs pins the allocation budget of the hot encoders: with a
// pre-grown buffer every envelope encoder runs allocation-free, point and
// paged group-by included — the regression the reflection path can't pass.
func TestEncoderAllocs(t *testing.T) {
	agg := dwarf.Aggregate{Sum: 17.25, Count: 3, Min: -2.5, Max: 11}
	keys := []string{"d1", "north", "bike"}
	groups := map[string]dwarf.Aggregate{}
	var pageKeys []string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("group-%03d", i)
		groups[k] = agg
		pageKeys = append(pageKeys, k)
	}
	buf := make([]byte, 0, 64<<10)

	cases := []struct {
		name string
		emit func() []byte
	}{
		{"point", func() []byte { return appendPointResponse(buf, "indexed", keys, agg) }},
		{"range", func() []byte { return appendRangeResponse(buf, "indexed", agg) }},
		{"error", func() []byte { return appendErrorResponse(buf, "cube not found") }},
		{"groupby-100", func() []byte {
			return appendGroupByResponse(buf, "indexed", "Region", pageKeys, groups, 100, 0, 100, false)
		}},
		{"ingest", func() []byte { return appendIngestResponse(buf, 10, 20) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, func() { tc.emit() }); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

// TestHandlerAllocsPoint bounds the full handler path for a GET point query
// (mux dispatch, query-string parse, cache hit, stat revalidation, encode,
// pooled buffer). The reflection encoder this path replaced cost ~10x the
// canonical bound; creep back toward it fails here before it shows up in a
// benchmark.
func TestHandlerAllocsPoint(t *testing.T) {
	dir, _, _ := serveFixture(t, 4)
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	cases := []struct {
		name   string
		path   string
		budget float64
	}{
		// Canonical file name: one stat, cached path, zero-alloc envelope.
		// The budget covers the stat's path-bytes conversion plus the
		// Content-Length header (value string + slice) with slack for one.
		{"canonical", "/query/point?cube=indexed.dwarf&key=d1&key=north&key=bike", 5},
		// Extensionless alias: the convenience fallback stats twice and
		// joins the path per request, so it is bounded, not optimal.
		{"alias", "/query/point?cube=indexed&key=d1&key=north&key=bike", 12},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		rw := &nullResponseWriter{h: make(http.Header)}
		h.ServeHTTP(rw, req) // warm the view cache and pools
		if rw.status != http.StatusOK {
			t.Fatalf("%s: warmup status %d", tc.name, rw.status)
		}
		if n := testing.AllocsPerRun(500, func() { h.ServeHTTP(rw, req) }); n > tc.budget {
			t.Errorf("%s GET /query/point: %v allocs/request, budget %v", tc.name, n, tc.budget)
		}
	}
}

type nullResponseWriter struct {
	h      http.Header
	status int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(code int)        { w.status = code }
