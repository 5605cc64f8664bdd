package cluster

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cubestore"
	"repro/internal/dwarf"
	"repro/internal/query"
	"repro/internal/serve"
)

var testDims = []string{"Day", "Region", "Kind"}

// allSels is the all-wildcard full-arity selector list.
func allSels() []dwarf.Selector { return make([]dwarf.Selector, len(testDims)) }

// testTuples builds a deterministic dataset with integer measures. Integer
// measures make every aggregate exact in float64 (all values ≪ 2^53), so a
// K-node cluster must be BIT-identical to one union store no matter how the
// hash partitions the fold order.
func testTuples(n int) []dwarf.Tuple {
	days := []string{"d0", "d1", "d2", "d3", "d4", "d5"}
	regions := []string{"north", "south", "east", "west"}
	kinds := []string{"bike", "noise", "air"}
	out := make([]dwarf.Tuple, n)
	for i := 0; i < n; i++ {
		out[i] = dwarf.Tuple{
			Dims: []string{
				days[i%len(days)],
				regions[(i/2)%len(regions)],
				kinds[(i/5)%len(kinds)],
			},
			Measure: float64(i*7%13 + 1),
		}
	}
	return out
}

// testNode is one in-process dwarfd cluster member.
type testNode struct {
	dir   string
	store *cubestore.Store
	srv   *httptest.Server
}

func (tn *testNode) stop(t *testing.T) {
	t.Helper()
	tn.srv.Close()
	if err := tn.store.Close(); err != nil {
		t.Fatal(err)
	}
}

// startNode opens (or reopens) a store in dir and serves it in cluster-node
// mode. Small seal threshold so multi-segment stores are exercised.
func startNode(t *testing.T, dir string) *testNode {
	t.Helper()
	st, err := cubestore.Open(dir, cubestore.Options{
		Dims:       testDims,
		SealTuples: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Options{Store: st, ClusterNode: true})
	if err != nil {
		t.Fatal(err)
	}
	return &testNode{dir: dir, store: st, srv: httptest.NewServer(srv.Handler())}
}

// testCluster wires k in-process nodes plus a coordinator over them and a
// single union store holding the same tuples — the differential oracle.
type testCluster struct {
	nodes []*testNode
	coord *Coordinator
	union *cubestore.Store
}

func newTestCluster(t *testing.T, k int, opts Options) *testCluster {
	t.Helper()
	tc := &testCluster{}
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		tn := startNode(t, t.TempDir())
		tc.nodes = append(tc.nodes, tn)
		urls[i] = tn.srv.URL
	}
	t.Cleanup(func() {
		for _, tn := range tc.nodes {
			tn.srv.Close()
			tn.store.Close()
		}
	})
	opts.Nodes = urls
	opts.Dims = testDims
	coord, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	union, err := cubestore.Open(t.TempDir(), cubestore.Options{
		Dims:       testDims,
		SealTuples: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { union.Close() })
	tc.union = union
	return tc
}

// load appends tuples through the coordinator (hash-routed over HTTP) and
// the same tuples to the union store directly.
func (tc *testCluster) load(t *testing.T, tuples []dwarf.Tuple) {
	t.Helper()
	if err := tc.coord.Append(tuples); err != nil {
		t.Fatal(err)
	}
	if err := tc.union.Append(tuples); err != nil {
		t.Fatal(err)
	}
}

// assertIdentical runs every query shape against the coordinator and the
// union store and requires bit-identical answers.
func assertIdentical(t *testing.T, coord query.Querier, union query.Querier) {
	t.Helper()

	// Point: every cell that exists plus wildcard mixes and a miss.
	points := [][]string{
		{"d0", "north", "bike"},
		{"d1", "south", "bike"},
		{"d3", "east", "noise"},
		{"", "west", ""},
		{"d2", "", ""},
		{"", "", ""},
		{"d0", "nowhere", "bike"},
	}
	for _, keys := range points {
		want, err1 := union.Point(keys...)
		got, err2 := coord.Point(keys...)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Point(%v): union err=%v cluster err=%v", keys, err1, err2)
		}
		if got != want {
			t.Fatalf("Point(%v): union %+v cluster %+v", keys, want, got)
		}
	}

	// Invalid arity fails identically on both sides (coordinator
	// validates up front, like the kernel).
	_, errU := union.Range(nil)
	_, errC := coord.Range(nil)
	if errU == nil || errC == nil || errU.Error() != errC.Error() {
		t.Fatalf("Range(nil) parity: union err=%v cluster err=%v", errU, errC)
	}

	// Range: all-wildcard (grand total), key sets, ranges, and a mix.
	ranges := [][]dwarf.Selector{
		allSels(),
		{dwarf.SelectRange("d1", "d3"), {}, {}},
		{{}, dwarf.SelectKeys("north", "south"), {}},
		{dwarf.SelectRange("d0", "d2"), {}, dwarf.SelectKeys("bike")},
	}
	for i, sels := range ranges {
		want, err1 := union.Range(sels)
		got, err2 := coord.Range(sels)
		if err1 != nil || err2 != nil {
			t.Fatalf("Range case %d: union err=%v cluster err=%v", i, err1, err2)
		}
		if got != want {
			t.Fatalf("Range case %d: union %+v cluster %+v", i, want, got)
		}
	}

	// GroupBy: every dimension, with and without a restriction.
	for dim := 0; dim < len(testDims); dim++ {
		for _, sels := range [][]dwarf.Selector{allSels(), {dwarf.SelectRange("d0", "d3"), {}, {}}} {
			want, err1 := union.GroupBy(dim, sels)
			got, err2 := coord.GroupBy(dim, sels)
			if err1 != nil || err2 != nil {
				t.Fatalf("GroupBy(%d): union err=%v cluster err=%v", dim, err1, err2)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("GroupBy(%d, %v):\nunion   %v\ncluster %v", dim, sels, want, got)
			}
		}
	}

	// Pivot: two shapes; rows are sorted, so DeepEqual pins order too.
	for _, dims := range [][]int{{0, 2}, {1, 2}, {0, 1, 2}} {
		want, err1 := union.Pivot(dims, allSels())
		got, err2 := coord.Pivot(dims, allSels())
		if err1 != nil || err2 != nil {
			t.Fatalf("Pivot(%v): union err=%v cluster err=%v", dims, err1, err2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Pivot(%v):\nunion   %v\ncluster %v", dims, want, got)
		}
	}

	// TopK: entry order (metric desc, key asc) must survive the network
	// merge — full group maps cut once at the coordinator.
	specs := []dwarf.TopKSpec{
		{K: 2, By: dwarf.BySum},
		{K: 3, By: dwarf.ByCount},
		{K: 0, By: dwarf.BySum, Threshold: 50, HasThreshold: true},
	}
	for _, spec := range specs {
		want, err1 := union.TopK(1, allSels(), spec)
		got, err2 := coord.TopK(1, allSels(), spec)
		if err1 != nil || err2 != nil {
			t.Fatalf("TopK(%+v): union err=%v cluster err=%v", spec, err1, err2)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%+v):\nunion   %v\ncluster %v", spec, want, got)
		}
	}

	// RollUp lowers to Pivot through the shared query facade on both sides.
	wantDims, wantRows, err1 := query.RollUp(union, "Region", "Kind")
	gotDims, gotRows, err2 := query.RollUp(coord, "Region", "Kind")
	if err1 != nil || err2 != nil {
		t.Fatalf("RollUp: union err=%v cluster err=%v", err1, err2)
	}
	if !reflect.DeepEqual(gotDims, wantDims) || !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatalf("RollUp:\nunion   %v %v\ncluster %v %v", wantDims, wantRows, gotDims, gotRows)
	}
}

// TestClusterMatchesUnionStore is the core differential gate: a 3-node
// cluster must be bit-identical to one store holding the union of the data,
// across every query shape.
func TestClusterMatchesUnionStore(t *testing.T) {
	tc := newTestCluster(t, 3, Options{})
	tc.load(t, testTuples(200))
	assertIdentical(t, tc.coord, tc.union)

	// A second batch after the first answers: re-converges.
	tc.load(t, testTuples(77)[30:])
	assertIdentical(t, tc.coord, tc.union)

	// Overflowed partials: four MaxFloat64 measures on one cell sum to +Inf
	// on the node that owns it. The merged answers must carry that +Inf as
	// the union store does, not drop the node's partial and answer from
	// the other nodes alone.
	ov := newTestCluster(t, 3, Options{})
	overflow := []dwarf.Tuple{{Dims: []string{"d1", "south", "air"}, Measure: 3}}
	for i := 0; i < 4; i++ {
		overflow = append(overflow, dwarf.Tuple{Dims: []string{"d0", "north", "bike"}, Measure: math.MaxFloat64})
	}
	ov.load(t, overflow)
	assertIdentical(t, ov.coord, ov.union)
}

// TestClusterSingleNode pins the degenerate cluster: one node behaves like
// a remote store.
func TestClusterSingleNode(t *testing.T) {
	tc := newTestCluster(t, 1, Options{})
	tc.load(t, testTuples(60))
	assertIdentical(t, tc.coord, tc.union)
}

// TestNodeKillStrictError kills one node mid-battery: every shape must
// return an explicit error naming the dead node — never a silently short
// merged answer.
func TestNodeKillStrictError(t *testing.T) {
	tc := newTestCluster(t, 3, Options{Retries: -1, Timeout: 2 * time.Second})
	tc.load(t, testTuples(120))
	assertIdentical(t, tc.coord, tc.union)

	dead := tc.nodes[1]
	dead.srv.Close()

	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error with node %s dead", what, dead.srv.URL)
		}
		if !strings.Contains(err.Error(), dead.srv.URL) {
			t.Fatalf("%s: error %q does not name dead node %s", what, err, dead.srv.URL)
		}
		var se *scatterError
		if !asScatter(err, &se) {
			t.Fatalf("%s: error %T is not a scatterError", what, err)
		}
		if se.total != 3 || len(se.failed) != 1 {
			t.Fatalf("%s: want 1/3 failed, got %d/%d", what, len(se.failed), se.total)
		}
	}

	// A fully bound point routes to its single owner, so strict mode only
	// fails when that owner is the dead node — and the error then reports
	// a 1-node scatter. A survivor-owned cell keeps answering, and any
	// wildcard falls back to the full scatter and fails like the rest.
	var deadKeys, aliveKeys []string
	for _, tu := range testTuples(120) {
		if NodeFor(tu.Dims, 3) == 1 {
			deadKeys = tu.Dims
		} else {
			aliveKeys = tu.Dims
		}
	}
	_, err := tc.coord.Point(deadKeys...)
	if err == nil || !strings.Contains(err.Error(), dead.srv.URL) {
		t.Fatalf("dead-owned Point: err %v does not name %s", err, dead.srv.URL)
	}
	var se *scatterError
	if !asScatter(err, &se) || se.total != 1 || len(se.failed) != 1 {
		t.Fatalf("dead-owned Point: want a 1/1 scatter error, got %v", err)
	}
	if got, err := tc.coord.Point(aliveKeys...); err != nil || got.Count == 0 {
		t.Fatalf("survivor-owned Point: %+v, %v", got, err)
	}
	_, err = tc.coord.Point("d0", dwarf.All, "bike")
	check("Point", err)
	_, err = tc.coord.Range(allSels())
	check("Range", err)
	_, err = tc.coord.GroupBy(1, allSels())
	check("GroupBy", err)
	_, err = tc.coord.Pivot([]int{0, 1}, allSels())
	check("Pivot", err)
	_, err = tc.coord.TopK(1, allSels(), dwarf.TopKSpec{K: 2})
	check("TopK", err)
	_, _, err = query.RollUp(tc.coord, "Region")
	check("RollUp", err)
}

func asScatter(err error, out **scatterError) bool {
	se, ok := err.(*scatterError)
	if ok {
		*out = se
	}
	return ok
}

// TestNodeKillRestartRecovers kills a node, restarts it over the same
// store directory (WAL + manifest recovery), repoints the coordinator with
// SetNode, and requires the full battery to be bit-identical again.
func TestNodeKillRestartRecovers(t *testing.T) {
	tc := newTestCluster(t, 3, Options{})
	tc.load(t, testTuples(150))
	assertIdentical(t, tc.coord, tc.union)

	victim := tc.nodes[2]
	victim.stop(t)
	if _, err := tc.coord.GroupBy(0, allSels()); err == nil {
		t.Fatal("no error with a node down")
	}

	reborn := startNode(t, victim.dir)
	tc.nodes[2] = reborn
	t.Cleanup(func() {
		reborn.srv.Close()
		reborn.store.Close()
	})
	if err := tc.coord.SetNode(2, reborn.srv.URL); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, tc.coord, tc.union)

	// And the restarted node keeps taking writes for its partition.
	tc.load(t, testTuples(33))
	assertIdentical(t, tc.coord, tc.union)
}

// TestSlowNodeTimesOut wraps one node in an artificial delay longer than
// the per-node timeout: the query must fail explicitly naming that node,
// within a bound far below the delay stack (no unbounded waiting).
func TestSlowNodeTimesOut(t *testing.T) {
	tc := newTestCluster(t, 3, Options{})
	tc.load(t, testTuples(90))

	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
		http.Error(w, "too late", http.StatusServiceUnavailable)
	}))
	defer slow.Close()

	coord, err := New(Options{
		Nodes:   []string{tc.nodes[0].srv.URL, tc.nodes[1].srv.URL, slow.URL},
		Dims:    testDims,
		Timeout: 100 * time.Millisecond,
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = coord.GroupBy(0, allSels())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("no error with a node slower than the timeout")
	}
	if !strings.Contains(err.Error(), slow.URL) {
		t.Fatalf("error %q does not name the slow node %s", err, slow.URL)
	}
	if elapsed > time.Second {
		t.Fatalf("timeout took %v, want well under the node's 2s delay", elapsed)
	}
}

// TestRetryRecoversTransientFailure pins the bounded-retry policy: a node
// that 500s twice then answers is transparently retried, and one that 400s
// is not (client errors are not transient).
func TestRetryRecoversTransientFailure(t *testing.T) {
	var calls int
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", serve.PartialContentType)
		w.Write(serve.AppendPartialAgg(nil, 1, dwarf.Aggregate{Sum: 5, Count: 1, Min: 5, Max: 5}))
	}))
	defer flaky.Close()

	coord, err := New(Options{
		Nodes:   []string{flaky.URL},
		Dims:    testDims,
		Retries: 2,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := coord.Point("a", "b", "c")
	if err != nil {
		t.Fatalf("retries did not mask two 500s: %v", err)
	}
	if agg.Sum != 5 || agg.Count != 1 {
		t.Fatalf("got %+v after retry", agg)
	}
	if calls != 3 {
		t.Fatalf("%d calls, want 3 (two failures + success)", calls)
	}

	calls = 0
	always400 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, `{"error":"bad"}`, http.StatusBadRequest)
	}))
	defer always400.Close()
	coord2, err := New(Options{Nodes: []string{always400.URL}, Dims: testDims, Retries: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord2.Point("a", "b", "c"); err == nil {
		t.Fatal("400 did not fail the query")
	}
	if calls != 1 {
		t.Fatalf("%d calls on a 400, want 1 (no retry of client errors)", calls)
	}

	// A 200 the coordinator cannot read fails the query with an error
	// naming the node, never with a total, and is not retried: the node
	// would answer the same way again.
	aggBody := serve.AppendPartialAgg(nil, 1, dwarf.Aggregate{Sum: 5, Count: 1, Min: 5, Max: 5})
	groups := serve.AppendPartialGroups(nil, 1, map[string]dwarf.Aggregate{
		"d0": {Sum: 5, Count: 1, Min: 5, Max: 5},
		"d1": {Sum: 7, Count: 2, Min: 3, Max: 4},
	})
	unreadable := []struct {
		name, contentType string
		body              []byte
		query             func(*Coordinator) (any, error)
	}{
		{"valid partial of the wrong Content-Type", "application/json", aggBody,
			func(c *Coordinator) (any, error) { return c.Point("a", "b", "c") }},
		{"truncated point partial", serve.PartialContentType, aggBody[:10],
			func(c *Coordinator) (any, error) { return c.Point("a", "b", "c") }},
		{"truncated groupby partial", serve.PartialContentType, groups[:len(groups)-1],
			func(c *Coordinator) (any, error) { return c.GroupBy(0, allSels()) }},
	}
	for _, u := range unreadable {
		calls = 0
		bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls++
			w.Header().Set("Content-Type", u.contentType)
			w.Write(u.body)
		}))
		coord3, err := New(Options{Nodes: []string{bad.URL}, Dims: testDims, Retries: 2, Backoff: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		res, err := u.query(coord3)
		bad.Close()
		var se *scatterError
		if !asScatter(err, &se) || len(se.failed) != 1 || se.failed[0].Node != bad.URL {
			t.Fatalf("%s: want a NodeError naming %s, got %v", u.name, bad.URL, err)
		}
		if !reflect.ValueOf(res).IsZero() {
			t.Fatalf("%s: failed query still yielded %v", u.name, res)
		}
		if calls != 1 {
			t.Fatalf("%s: %d calls, want 1 (no retry of an unreadable 200)", u.name, calls)
		}
	}
}

// TestAppendFailureNamesNode: an ingest hitting a dead node fails
// explicitly (and is never retried — the batch may have landed).
func TestAppendFailureNamesNode(t *testing.T) {
	tc := newTestCluster(t, 3, Options{Timeout: 2 * time.Second})
	dead := tc.nodes[0]
	dead.srv.Close()

	// A batch wide enough to hit every partition.
	err := tc.coord.Append(testTuples(60))
	if err == nil {
		t.Fatal("Append succeeded with a node dead")
	}
	if !strings.Contains(err.Error(), dead.srv.URL) {
		t.Fatalf("Append error %q does not name dead node %s", err, dead.srv.URL)
	}
	// The surviving nodes keep their slices: totals equal the union of the
	// two live partitions (re-derived from the stores directly).
	var want dwarf.Aggregate
	for _, tn := range tc.nodes[1:] {
		agg, err := tn.store.Range(allSels())
		if err != nil {
			t.Fatal(err)
		}
		want = dwarf.MergeAggregates(want, agg)
	}
	alive, failed, ok := tc.coord.Survivors(err)
	if !ok || len(failed) != 1 || failed[0] != dead.srv.URL {
		t.Fatalf("Survivors(%v) = %v, %v", err, failed, ok)
	}
	got, err := alive.Range(allSels())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("surviving nodes hold %+v, direct union of their stores %+v", got, want)
	}
}

// TestNodeStats pins the /cluster/stats rows: one OK row per node, in node
// order, with generations that advance on a load; a killed node's row, and
// only that row, turns OK == false with the probe's error.
func TestNodeStats(t *testing.T) {
	tc := newTestCluster(t, 3, Options{Retries: -1, Timeout: 2 * time.Second})
	tc.load(t, testTuples(30))
	rows := tc.coord.NodeStats()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rows), rows)
	}
	var total uint64
	for i, r := range rows {
		if r.Node != tc.nodes[i].srv.URL || !r.OK || r.Error != "" {
			t.Fatalf("row %d = %+v, want an OK row for %s", i, r, tc.nodes[i].srv.URL)
		}
		total += r.Generation
	}
	if total == 0 {
		t.Fatal("all generations zero after a load")
	}

	dead := tc.nodes[1]
	dead.srv.Close()
	rows = tc.coord.NodeStats()
	if len(rows) != 3 {
		t.Fatalf("got %d rows after a kill, want 3: %+v", len(rows), rows)
	}
	for i, r := range rows {
		if r.Node != tc.nodes[i].srv.URL {
			t.Fatalf("row %d names %s, want %s", i, r.Node, tc.nodes[i].srv.URL)
		}
		if i == 1 {
			if r.OK || r.Error == "" || r.Generation != 0 {
				t.Fatalf("dead node row = %+v, want OK false with an error", r)
			}
		} else if !r.OK || r.Error != "" {
			t.Fatalf("surviving node row %d = %+v, want OK", i, r)
		}
	}
}

// TestNodeForDeterminismAndSpread: the partitioner is pure/stable, keys
// spread over nodes, and the length prefix keeps concatenation collisions
// apart.
func TestNodeForDeterminism(t *testing.T) {
	keys := []string{"d1", "north", "bike"}
	want := NodeFor(keys, 5)
	for i := 0; i < 100; i++ {
		if NodeFor(keys, 5) != want {
			t.Fatal("NodeFor is not stable")
		}
	}
	if NodeFor(keys, 1) != 0 || NodeFor(keys, 0) != 0 {
		t.Fatal("degenerate n must map to node 0")
	}

	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[NodeFor([]string{fmt.Sprintf("k%d", i), "x"}, 3)]++
	}
	for n, c := range counts {
		if c < 600 {
			t.Fatalf("node %d got %d of 3000 keys — partitioner badly skewed: %v", n, c, counts)
		}
	}

	if NodeFor([]string{"ab", "c"}, 1<<30) == NodeFor([]string{"a", "bc"}, 1<<30) {
		t.Fatal("length prefix failed: concatenation collision")
	}
}

// TestPointRoutesToSingleNode proves the point fast path at the wire: with
// every dimension bound, the coordinator asks exactly one of the three
// nodes — the tuple's Append-time owner — while a wildcard anywhere in the
// key falls back to the full scatter. Each counted answer is also checked
// against a union store, so routing can never trade correctness for fewer
// requests.
func TestPointRoutesToSingleNode(t *testing.T) {
	const k = 3
	var hits [k]atomic.Int64
	urls := make([]string, k)
	for i := 0; i < k; i++ {
		st, err := cubestore.Open(t.TempDir(), cubestore.Options{Dims: testDims, SealTuples: 16})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		sv, err := serve.New(serve.Options{Store: st, ClusterNode: true})
		if err != nil {
			t.Fatal(err)
		}
		h, i := sv.Handler(), i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	coord, err := New(Options{Nodes: urls, Dims: testDims, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	union, err := cubestore.Open(t.TempDir(), cubestore.Options{Dims: testDims, SealTuples: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { union.Close() })
	tuples := testTuples(90)
	if err := coord.Append(tuples); err != nil {
		t.Fatal(err)
	}
	if err := union.Append(tuples); err != nil {
		t.Fatal(err)
	}
	reset := func() {
		for i := range hits {
			hits[i].Store(0)
		}
	}
	requests := func() (total int64, asked []int) {
		for i := range hits {
			n := hits[i].Load()
			total += n
			if n > 0 {
				asked = append(asked, i)
			}
		}
		return total, asked
	}

	// Every fully bound tuple in the dataset: one request, to its owner.
	seen := map[string]bool{}
	for _, tu := range tuples {
		key := strings.Join(tu.Dims, "\x00")
		if seen[key] {
			continue
		}
		seen[key] = true
		want, err := union.Point(tu.Dims...)
		if err != nil {
			t.Fatal(err)
		}
		reset()
		got, err := coord.Point(tu.Dims...)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("point %v: %+v, union %+v", tu.Dims, got, want)
		}
		total, asked := requests()
		if total != 1 || len(asked) != 1 || asked[0] != NodeFor(tu.Dims, k) {
			t.Fatalf("point %v made %d requests to nodes %v, want 1 to owner %d",
				tu.Dims, total, asked, NodeFor(tu.Dims, k))
		}
	}

	// A bound tuple no node holds still answers (the zero aggregate) with
	// a single request.
	reset()
	got, err := coord.Point("nope", "nope", "nope")
	if err != nil {
		t.Fatal(err)
	}
	if got != (dwarf.Aggregate{}) {
		t.Fatalf("absent cell: %+v", got)
	}
	if total, _ := requests(); total != 1 {
		t.Fatalf("absent cell made %d requests, want 1", total)
	}

	// Any wildcard disables routing: the cell's tuples may live anywhere.
	for _, keys := range [][]string{
		{dwarf.All, "north", "bike"},
		{"d0", dwarf.All, "bike"},
		{"d0", "north", dwarf.All},
		{dwarf.All, dwarf.All, dwarf.All},
	} {
		want, err := union.Point(keys...)
		if err != nil {
			t.Fatal(err)
		}
		reset()
		got, err := coord.Point(keys...)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("point %v: %+v, union %+v", keys, got, want)
		}
		if total, asked := requests(); total != k || len(asked) != k {
			t.Fatalf("wildcard point %v made %d requests to nodes %v, want all %d",
				keys, total, asked, k)
		}
	}
}

// TestDefaultClientKeepsNodeConnections pins the default coordinator
// transport: once a warm-up batch has opened them, node connections stay
// pooled, so further batches of 8 concurrent GroupBys open none. (With
// net/http's default of 2 idle connections per host, every batch would
// close and redial most of them.) During the warm-up each node holds its
// partial requests until all 8 have arrived, so the warm-up opens exactly
// the 8 connections per node a batch can use, each accepted before the
// batch ends.
func TestDefaultClientKeepsNodeConnections(t *testing.T) {
	const batchSize = 8
	var opened atomic.Int64
	var warming atomic.Bool
	urls := make([]string, 3)
	for i := range urls {
		st, err := cubestore.Open(t.TempDir(), cubestore.Options{Dims: testDims, SealTuples: 16})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(serve.Options{Store: st, ClusterNode: true})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		var gate sync.WaitGroup
		gate.Add(batchSize)
		hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query/partial" && warming.Load() {
				gate.Done()
				gate.Wait()
			}
			h.ServeHTTP(w, r)
		}))
		hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				opened.Add(1)
			}
		}
		hs.Start()
		t.Cleanup(func() {
			hs.Close()
			st.Close()
		})
		urls[i] = hs.URL
	}
	coord, err := New(Options{Nodes: urls, Dims: testDims})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Append(testTuples(200)); err != nil {
		t.Fatal(err)
	}
	batch := func() {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, batchSize)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = coord.GroupBy(i%len(testDims), allSels())
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	warming.Store(true)
	batch()
	warming.Store(false)
	warm := opened.Load()
	for i := 0; i < 5; i++ {
		batch()
	}
	if got := opened.Load() - warm; got != 0 {
		t.Fatalf("%d node connections opened after warm-up (%d during it), want 0", got, warm)
	}
}
