package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from outside the program: around each
// client request, around each server's http.Handler (the benchmark owns
// the http.Server, so it wraps the handler it was given), around each
// coordinator-to-node round trip (through the http.Client transport the
// coordinator accepts as an option), and around every direct call the
// per-layer probes make. Nothing inside the repository is instrumented.

// span is one timed call at a layer boundary. Spans of one client request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the in-memory span buffer; a run past it keeps counting
// but stops recording.
const maxSpans = 4 << 20

type tracer struct {
	t0      time.Time
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int

	// In-flight request of each client connection (one query client, one
	// feed), so spans recorded behind a hop that carries no request id —
	// the cluster nodes' handlers and the coordinator's node calls — can
	// name the request and the gateway span that caused them.
	queryReq, querySpan atomic.Uint64
	feedReq, feedSpan   atomic.Uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id returns a fresh span id, 0 on an untraced run.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// call times fn as one span.
func (t *tracer) call(layer, op string, parent uint64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if t != nil {
		s := int64(start.Sub(t.t0))
		t.add(span{Parent: parent, Req: parent, Layer: layer, Op: op, Start: s, End: s + int64(d)})
	}
	return d, err
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handler wraps a server's handler in a span. On the client-facing server
// (inherit false) each request becomes its connection's in-flight request,
// identified by the X-Bench-Req header the benchmark's client sends (0
// when absent: an untraced check query). Behind a hop that carries no id —
// a cluster node called by the coordinator (inherit true) — the span is
// attributed to the in-flight request of the same kind.
func (t *tracer) handler(layer string, inherit bool, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqSlot, spanSlot := &t.queryReq, &t.querySpan
		if r.URL.Path == "/ingest" {
			reqSlot, spanSlot = &t.feedReq, &t.feedSpan
		}
		id := t.id()
		var req, parent uint64
		if inherit {
			req, parent = reqSlot.Load(), spanSlot.Load()
		} else {
			req, _ = strconv.ParseUint(r.Header.Get("X-Bench-Req"), 10, 64)
			parent = req
			reqSlot.Store(req)
			spanSlot.Store(id)
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{ID: id, Parent: parent, Req: req, Layer: layer, Op: r.URL.Path, Start: start, End: t.now()})
	})
}

// transport records the coordinator's node calls.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	req, parent := tt.t.queryReq.Load(), tt.t.querySpan.Load()
	if r.URL.Path == "/ingest" {
		req, parent = tt.t.feedReq.Load(), tt.t.feedSpan.Load()
	}
	start := tt.t.now()
	resp, err := tt.base.RoundTrip(r)
	tt.t.add(span{Parent: parent, Req: req, Layer: "cluster.node_call", Op: r.URL.Host + r.URL.Path,
		Start: start, End: tt.t.now()})
	return resp, err
}

// ---- per-layer metric names ----

// layerMetrics are printed, in this order, by a traced run of every
// workload. A layer the workload does not run reads 0 with an "n/a" note.
var layerMetrics = []metricDef{
	{"dwarf.build_ns_per_tuple", "ns"},
	{"dwarf.encode_ms", "ms"},
	{"dwarf.mergeviews_ms", "ms"},
	{"dwarf.openview_ms", "ms"},
	{"dwarf.openview_trusted_ms", "ms"},
	{"dwarf.view_point_ns", "ns"},
	{"dwarf.view_groupby_us", "us"},

	{"cubestore.open_ms", "ms"},
	{"cubestore.append_p50_us", "us"},
	{"cubestore.append_p99_us", "us"},
	{"cubestore.append_stalls", "count"},
	{"cubestore.seals", "count"},
	{"cubestore.compactions", "count"},
	{"cubestore.streaming_compactions", "count"},
	{"cubestore.group_commits", "count"},
	{"cubestore.fsyncs_saved", "count"},
	{"cubestore.seal_queue_depth_max", "count"},
	{"cubestore.compact_bytes_in", "B"},
	{"cubestore.point_us", "us"},
	{"cubestore.range_us", "us"},
	{"cubestore.groupby_us", "us"},
	{"cubestore.topk_us", "us"},
	{"cubestore.segments_scanned_per_query", "count"},
	{"cubestore.segments_pruned_per_query", "count"},
	{"cubestore.rollup_hit_ratio", "ratio"},

	{"qcache.hit_ratio", "ratio"},
	{"qcache.stale_ratio", "ratio"},
	{"qcache.partial_hit_ratio", "ratio"},

	{"serve.point_handler_us", "us"},
	{"serve.range_handler_us", "us"},
	{"serve.groupby_handler_us", "us"},
	{"serve.topk_handler_us", "us"},
	{"serve.ingest_handler_us", "us"},
	{"serve.point_allocs", "count"},
	{"serve.wire_us", "us"},

	{"cluster.coord_point_us", "us"},
	{"cluster.coord_range_us", "us"},
	{"cluster.coord_groupby_us", "us"},
	{"cluster.coord_topk_us", "us"},
	{"cluster.gateway_point_handler_us", "us"},
	{"cluster.gateway_range_handler_us", "us"},
	{"cluster.gateway_groupby_handler_us", "us"},
	{"cluster.gateway_topk_handler_us", "us"},
	{"cluster.node_partial_us", "us"},
	{"cluster.nodes_per_point", "count"},
	{"cluster.nodes_per_grouped", "count"},
	{"cluster.retries", "count"},
	{"cluster.append_us", "us"},

	{"feed.ack_p50_ms", "ms"},
	{"feed.ack_p99_ms", "ms"},
	{"feed.generator_late_ms", "ms"},

	{"client.queries_per_s", "1/s"},
	{"client.point_p90_ms", "ms"},
	{"client.point_p99_ms", "ms"},
	{"client.range_p90_ms", "ms"},
	{"client.range_p99_ms", "ms"},
	{"client.groupby_p90_ms", "ms"},
	{"client.groupby_p99_ms", "ms"},
	{"client.topk_p90_ms", "ms"},
	{"client.topk_p99_ms", "ms"},

	{"overhead.setup_s", "s"},
	{"overhead.point_p50_ms", "ms"},
	{"overhead.range_p50_ms", "ms"},
	{"overhead.groupby_p50_ms", "ms"},
	{"overhead.topk_p50_ms", "ms"},
	{"overhead.ingest_tuples_per_s", "1/s"},
	{"overhead.bytes_per_tuple", "B"},
	{"overhead.live_heap_mb", "MB"},
}

// notApplicable marks the metrics with a prefix that the workload's
// topology does not run.
func (r *result) notApplicable(prefix, reason string) {
	for _, m := range layerMetrics {
		if strings.HasPrefix(m.name, prefix) {
			if _, ok := r.layer[m.name]; !ok {
				r.setLayer(m.name, 0, "n/a: "+reason)
			}
		}
	}
}

// layerChecks are the routing expectations the traced run asserts.
func (r *result) layerChecks() []string {
	if strings.HasPrefix(r.note["cluster.nodes_per_point"], "n/a") {
		return nil
	}
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "FAILED"
	}
	return []string{
		fmt.Sprintf("check cluster.nodes_per_point == 1: %s (%.4f)", verdict(r.layer["cluster.nodes_per_point"] == 1), r.layer["cluster.nodes_per_point"]),
		fmt.Sprintf("check cluster.nodes_per_grouped == 3: %s (%.4f)", verdict(r.layer["cluster.nodes_per_grouped"] == 3), r.layer["cluster.nodes_per_grouped"]),
		fmt.Sprintf("check cluster.retries == 0: %s (%.0f)", verdict(r.layer["cluster.retries"] == 0), r.layer["cluster.retries"]),
	}
}
