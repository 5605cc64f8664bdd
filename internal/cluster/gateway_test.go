package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dwarf"
	"repro/internal/serve"
)

// gwFixture is a 3-node cluster behind a gateway, plus the union oracle.
func gwFixture(t *testing.T) (*testCluster, *httptest.Server) {
	t.Helper()
	tc := newTestCluster(t, 3, Options{Timeout: 2 * time.Second, Retries: -1})
	gw := httptest.NewServer(NewGateway(tc.coord, 0).Handler())
	t.Cleanup(gw.Close)
	return tc, gw
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
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: status %d (want %d): %v", url, resp.StatusCode, wantStatus, out)
	}
	return out
}

func aggOf(t *testing.T, v any) dwarf.Aggregate {
	t.Helper()
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("aggregate is %T", v)
	}
	return dwarf.Aggregate{
		Sum:   m["sum"].(float64),
		Count: int64(m["count"].(float64)),
		Min:   m["min"].(float64),
		Max:   m["max"].(float64),
	}
}

// TestGatewayEndToEnd drives ingest and every query endpoint through the
// gateway and checks the answers against the union store.
func TestGatewayEndToEnd(t *testing.T) {
	tc, gw := gwFixture(t)

	// Ingest through the gateway (hash-routed by the coordinator).
	tuples := testTuples(120)
	specs := make([]map[string]any, len(tuples))
	for i, tu := range tuples {
		specs[i] = map[string]any{"dims": tu.Dims, "measure": tu.Measure}
	}
	resp := postJSON(t, gw.URL+"/ingest", map[string]any{"tuples": specs}, http.StatusOK)
	if resp["appended"] != float64(len(tuples)) {
		t.Fatalf("ingest ack %v", resp)
	}
	if err := tc.union.Append(tuples); err != nil {
		t.Fatal(err)
	}

	// Point.
	want, err := tc.union.Point("d0", "north", "bike")
	if err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, gw.URL+"/query/point",
		map[string]any{"keys": []string{"d0", "north", "bike"}}, http.StatusOK)
	if got := aggOf(t, resp["aggregate"]); got != want {
		t.Fatalf("point: gateway %+v union %+v", got, want)
	}
	if resp["partial"] != nil {
		t.Fatalf("complete answer marked partial: %v", resp)
	}

	// Range with a lo/hi selector and a keys selector.
	wantR, err := tc.union.Range([]dwarf.Selector{
		dwarf.SelectRange("d1", "d4"), dwarf.SelectKeys("north", "east"), {},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, gw.URL+"/query/range", map[string]any{
		"selectors": []map[string]any{
			{"lo": "d1", "hi": "d4"},
			{"keys": []string{"north", "east"}},
		},
	}, http.StatusOK)
	if got := aggOf(t, resp["aggregate"]); got != wantR {
		t.Fatalf("range: gateway %+v union %+v", got, wantR)
	}

	// GroupBy by name, full map.
	wantG, err := tc.union.GroupBy(1, allSels())
	if err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, gw.URL+"/query/groupby", map[string]any{"dim": "Region"}, http.StatusOK)
	groups := resp["groups"].(map[string]any)
	if len(groups) != len(wantG) {
		t.Fatalf("groupby: %d groups, union has %d", len(groups), len(wantG))
	}
	for k, wa := range wantG {
		if got := aggOf(t, groups[k]); got != wa {
			t.Fatalf("groupby[%s]: gateway %+v union %+v", k, got, wa)
		}
	}
	if resp["total_groups"] != float64(len(wantG)) {
		t.Fatalf("total_groups %v, want %d", resp["total_groups"], len(wantG))
	}

	// GroupBy paging: limit 2 over 4 regions, sorted key order.
	resp = postJSON(t, gw.URL+"/query/groupby",
		map[string]any{"dim": "Region", "limit": 2, "offset": 0}, http.StatusOK)
	if n := len(resp["groups"].(map[string]any)); n != 2 {
		t.Fatalf("page size %d, want 2", n)
	}
	if resp["truncated"] != true || resp["total_groups"] != float64(len(wantG)) {
		t.Fatalf("paging envelope %v", resp)
	}

	// TopK: order pinned against the union store.
	wantT, err := tc.union.TopK(1, allSels(), dwarf.TopKSpec{K: 3, By: dwarf.BySum})
	if err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, gw.URL+"/query/topk",
		map[string]any{"dim": "Region", "k": 3, "by": "sum"}, http.StatusOK)
	entries := resp["entries"].([]any)
	if len(entries) != len(wantT) {
		t.Fatalf("topk: %d entries, union has %d", len(entries), len(wantT))
	}
	// dwarfd wire compatibility: the envelope field is total_entries, not total.
	if _, ok := resp["total_entries"]; !ok {
		t.Fatalf("topk envelope missing total_entries: %v", resp)
	}
	for i, e := range entries {
		em := e.(map[string]any)
		if em["key"] != wantT[i].Key {
			t.Fatalf("topk[%d]: key %v, union %s", i, em["key"], wantT[i].Key)
		}
		if got := aggOf(t, em["aggregate"]); got != wantT[i].Agg {
			t.Fatalf("topk[%d]: agg %+v, union %+v", i, got, wantT[i].Agg)
		}
		// dwarfd wire compatibility: each entry carries its ranking metric.
		if em["metric"] != wantT[i].Agg.Sum {
			t.Fatalf("topk[%d]: metric %v, union sum %v", i, em["metric"], wantT[i].Agg.Sum)
		}
	}

	// Pivot and RollUp row-for-row.
	wantP, err := tc.union.Pivot([]int{1, 2}, allSels())
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range []struct {
		path string
		body map[string]any
	}{
		{"/query/pivot", map[string]any{"dims": []string{"Region", "Kind"}}},
		{"/query/rollup", map[string]any{"keep": []string{"Kind", "Region"}}}, // order normalized
	} {
		resp = postJSON(t, gw.URL+ep.path, ep.body, http.StatusOK)
		rows := resp["groups"].([]any)
		if len(rows) != len(wantP) {
			t.Fatalf("%s: %d rows, union has %d", ep.path, len(rows), len(wantP))
		}
		// dwarfd wire compatibility: pivot/rollup report total_groups.
		if _, ok := resp["total_groups"]; !ok {
			t.Fatalf("%s envelope missing total_groups: %v", ep.path, resp)
		}
		for i, r := range rows {
			rm := r.(map[string]any)
			keys := rm["keys"].([]any)
			for j, k := range keys {
				if k != wantP[i].Keys[j] {
					t.Fatalf("%s row %d: keys %v, union %v", ep.path, i, keys, wantP[i].Keys)
				}
			}
			if got := aggOf(t, rm["aggregate"]); got != wantP[i].Agg {
				t.Fatalf("%s row %d: agg %+v, union %+v", ep.path, i, got, wantP[i].Agg)
			}
		}
	}

	// Cluster stats: three healthy nodes.
	sresp, err := http.Get(gw.URL + "/cluster/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	nodes := stats["nodes"].([]any)
	if len(nodes) != 3 {
		t.Fatalf("stats lists %d nodes", len(nodes))
	}
	for _, n := range nodes {
		if n.(map[string]any)["ok"] != true {
			t.Fatalf("unhealthy node in %v", nodes)
		}
	}
}

// TestGatewayBadRequests pins 400s: unknown dim, bad selector, bad body.
func TestGatewayBadRequests(t *testing.T) {
	_, gw := gwFixture(t)
	resp := postJSON(t, gw.URL+"/query/groupby", map[string]any{"dim": "Nope"}, http.StatusBadRequest)
	if !strings.Contains(resp["error"].(string), "Nope") {
		t.Fatalf("error %v does not name the bad dim", resp["error"])
	}
	postJSON(t, gw.URL+"/query/range", map[string]any{
		"selectors": []map[string]any{{"lo": "a"}},
	}, http.StatusBadRequest)
	postJSON(t, gw.URL+"/query/pivot", map[string]any{
		"dims": []string{"Region", "Region"},
	}, http.StatusBadRequest)
	postJSON(t, gw.URL+"/query/topk", map[string]any{
		"dim": "Region", "k": 2, "by": "median",
	}, http.StatusBadRequest)
}

// TestGatewayPartialAnswers kills one node and pins both failure modes:
// strict 502 naming the node, and allow_partial's explicitly-marked merge
// over the survivors — checked value-for-value against the surviving
// stores, so a silently-wrong total cannot pass.
func TestGatewayPartialAnswers(t *testing.T) {
	tc, gw := gwFixture(t)
	tuples := testTuples(150)
	if err := tc.coord.Append(tuples); err != nil {
		t.Fatal(err)
	}

	dead := tc.nodes[1]
	dead.srv.Close()

	// Strict: 502, error names the dead node.
	resp := postJSON(t, gw.URL+"/query/groupby", map[string]any{"dim": "Kind"}, http.StatusBadGateway)
	if !strings.Contains(resp["error"].(string), dead.srv.URL) {
		t.Fatalf("502 error %v does not name %s", resp["error"], dead.srv.URL)
	}

	// allow_partial: 200, marked, and equal to the survivors' true union.
	wantG := make(map[string]dwarf.Aggregate)
	for _, tn := range []*testNode{tc.nodes[0], tc.nodes[2]} {
		g, err := tn.store.GroupBy(2, allSels())
		if err != nil {
			t.Fatal(err)
		}
		wantG = dwarf.MergeGroupMaps(wantG, g)
	}
	resp = postJSON(t, gw.URL+"/query/groupby",
		map[string]any{"dim": "Kind", "allow_partial": true}, http.StatusOK)
	if resp["partial"] != true {
		t.Fatalf("partial answer not marked: %v", resp)
	}
	failedNodes := resp["failed_nodes"].([]any)
	if len(failedNodes) != 1 || failedNodes[0] != dead.srv.URL {
		t.Fatalf("failed_nodes %v, want [%s]", failedNodes, dead.srv.URL)
	}
	groups := resp["groups"].(map[string]any)
	if len(groups) != len(wantG) {
		t.Fatalf("partial groupby: %d groups, survivors hold %d", len(groups), len(wantG))
	}
	for k, wa := range wantG {
		if got := aggOf(t, groups[k]); got != wa {
			t.Fatalf("partial groupby[%s]: %+v, survivors %+v", k, got, wa)
		}
	}

	// Point routing interacts with the dead node three ways. A fully bound
	// point is asked of its single owning node, so a cell owned by a
	// survivor answers completely — no partial marking — while one owned
	// by the dead node fails strict and is marked after the re-run over
	// the survivor subset (which scatters: the subset is not the partition
	// map). A wildcard point always scatters and so always answers
	// partially here.
	var aliveKeys, deadKeys []string
	for _, tu := range tuples {
		if NodeFor(tu.Dims, len(tc.nodes)) == 1 {
			deadKeys = tu.Dims
		} else {
			aliveKeys = tu.Dims
		}
	}
	if aliveKeys == nil || deadKeys == nil {
		t.Fatal("fixture tuples do not cover both owners")
	}
	resp = postJSON(t, gw.URL+"/query/point",
		map[string]any{"keys": aliveKeys, "allow_partial": true}, http.StatusOK)
	if resp["partial"] == true {
		t.Fatalf("survivor-owned point wrongly marked partial: %v", resp)
	}
	if aggOf(t, resp["aggregate"]).Count == 0 {
		t.Fatalf("survivor-owned point lost its cell: %v", resp)
	}
	resp = postJSON(t, gw.URL+"/query/point",
		map[string]any{"keys": deadKeys, "allow_partial": true}, http.StatusOK)
	if resp["partial"] != true {
		t.Fatalf("dead-owned point not marked partial: %v", resp)
	}
	resp = postJSON(t, gw.URL+"/query/point",
		map[string]any{"keys": []string{dwarf.All, "", ""}, "allow_partial": true}, http.StatusOK)
	if resp["partial"] != true {
		t.Fatalf("wildcard point not marked partial: %v", resp)
	}

	// All nodes dead: allow_partial does NOT fabricate an empty answer.
	tc.nodes[0].srv.Close()
	tc.nodes[2].srv.Close()
	postJSON(t, gw.URL+"/query/groupby",
		map[string]any{"dim": "Kind", "allow_partial": true}, http.StatusBadGateway)
}

// TestGatewayParityWithDwarfd replays one request battery against a dwarfd
// over the union store and the gateway over 3 nodes holding the same
// tuples: every status and every decoded body must be identical, apart
// from the echoed cube name. The bad requests pin the wire drift the
// gateway had while it kept its own handlers: a wrong-arity point was a
// 502 naming every node, and a negative k, limit or offset was accepted.
func TestGatewayParityWithDwarfd(t *testing.T) {
	tc, gw := gwFixture(t)
	tc.load(t, testTuples(150))
	srv, err := serve.New(serve.Options{Store: tc.union})
	if err != nil {
		t.Fatal(err)
	}
	dwarfd := httptest.NewServer(srv.Handler())
	t.Cleanup(dwarfd.Close)

	cases := []struct {
		method, path, body string
		status             int
	}{
		{"GET", "/query/point?key=d0&key=north&key=bike", "", http.StatusOK},
		{"GET", "/query/point?cube=live&keys=*,east,*", "", http.StatusOK},
		{"POST", "/query/point", `{"keys":["d1","*","air"]}`, http.StatusOK},
		{"POST", "/query/range", `{"selectors":[{"lo":"d1","hi":"d4"},{"keys":["north","east"]}]}`, http.StatusOK},
		{"POST", "/query/groupby", `{"cube":"live","dim":"Region"}`, http.StatusOK},
		{"POST", "/query/groupby", `{"dim":"0","selectors":[{},{"keys":["west"]}],"limit":2,"offset":1}`, http.StatusOK},
		{"POST", "/query/pivot", `{"dims":["Kind","Day"],"limit":5,"offset":3}`, http.StatusOK},
		{"POST", "/query/topk", `{"dim":"Day","k":4,"by":"avg","threshold":3}`, http.StatusOK},
		{"POST", "/query/topk", `{"dim":"Region","k":3,"by":"count","limit":2}`, http.StatusOK},
		{"POST", "/query/rollup", `{"keep":["Kind","Region"]}`, http.StatusOK},
		{"POST", "/query/rollup", `{"keep":["Day"],"offset":99}`, http.StatusOK},

		{"POST", "/query/point", `{"keys":["a"]}`, http.StatusBadRequest},
		{"GET", "/query/point?key=a&key=b", "", http.StatusBadRequest},
		{"POST", "/query/topk", `{"dim":"Region","k":-1}`, http.StatusBadRequest},
		{"POST", "/query/groupby", `{"dim":"Region","limit":-1}`, http.StatusBadRequest},
		{"POST", "/query/pivot", `{"dims":["Region"],"offset":-2}`, http.StatusBadRequest},
		{"POST", "/query/groupby", `{"dim":"7"}`, http.StatusBadRequest},
		{"POST", "/query/groupby", `{"dim":"Nope"}`, http.StatusBadRequest},
		{"POST", "/query/range", `{"selectors":[{"lo":"a"}]}`, http.StatusBadRequest},
		{"POST", "/query/range", `{"selectors":[{},{},{},{}]}`, http.StatusBadRequest},
		{"POST", "/query/pivot", `{"dims":["Region","Region"]}`, http.StatusBadRequest},
		{"POST", "/query/pivot", `{"dims":[]}`, http.StatusBadRequest},
		{"POST", "/query/rollup", `{"keep":["Nope"]}`, http.StatusBadRequest},
		{"POST", "/query/topk", `{"dim":"Region","k":2,"by":"median"}`, http.StatusBadRequest},
		{"POST", "/query/range", `{"selectors":[],"window":"24h"}`, http.StatusBadRequest},
		{"POST", "/query/range", `{"selectors":[],"bogus":1}`, http.StatusBadRequest},
		{"POST", "/query/groupby", `{bad json`, http.StatusBadRequest},
		{"GET", "/query/range", "", http.StatusBadRequest},
	}
	call := func(base, method, path, body string) (int, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, path, err)
		}
		delete(out, "cube")
		return resp.StatusCode, out
	}
	for _, c := range cases {
		dStatus, dBody := call(dwarfd.URL, c.method, c.path, c.body)
		gStatus, gBody := call(gw.URL, c.method, c.path, c.body)
		if dStatus != c.status || gStatus != c.status {
			t.Errorf("%s %s %s: dwarfd %d, gateway %d, want %d\ndwarfd:  %v\ngateway: %v",
				c.method, c.path, c.body, dStatus, gStatus, c.status, dBody, gBody)
			continue
		}
		if !reflect.DeepEqual(dBody, gBody) {
			t.Errorf("%s %s %s: bodies differ\ndwarfd:  %v\ngateway: %v", c.method, c.path, c.body, dBody, gBody)
		}
	}
}
