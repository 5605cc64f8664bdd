package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cubestore"
	"repro/internal/dwarf"
)

// The traced run's probes call each layer's public functions directly,
// after the measured phase and its checks, so they cannot disturb either.
const (
	probeCalls   = 400                    // calls per timed shape
	probeBudget  = 300 * time.Millisecond // per shape, whichever ends first
	stallLatency = 25 * time.Millisecond  // an Append ack slower than this is a stall
)

// sampler polls the stores' Stats during a traced measured phase for the
// deepest seal queue and the bytes of segments compaction removed.
type sampler struct {
	stop, done chan struct{}
	depth      int
	removed    int64
}

func startSampler(t *tracer, stores []*cubestore.Store) *sampler {
	s := &sampler{}
	if t == nil {
		return s
	}
	s.stop, s.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.done)
		seen := map[string]int{}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for stopping := false; ; {
			cur := map[string]int{}
			for i, st := range stores {
				ss := st.Stats()
				s.depth = max(s.depth, ss.SealQueueDepth)
				for _, seg := range ss.Segments {
					cur[fmt.Sprintf("%d/%s", i, seg.File)] = seg.Bytes
				}
			}
			for f, n := range seen {
				if _, ok := cur[f]; !ok {
					s.removed += int64(n)
				}
			}
			seen = cur
			if stopping {
				return // the sample after the phase ended is taken
			}
			select {
			case <-s.stop:
				stopping = true
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() (int, int64) {
	if s.stop == nil {
		return 0, 0
	}
	close(s.stop)
	<-s.done
	return s.depth, s.removed
}

// timeCalls runs fn up to n times within probeBudget (at least three
// times) and returns the latencies.
func (b *bench) timeCalls(layer, op string, n int, fn func(i int) error) (*lat, error) {
	return b.timeEach(layer, op, n, func(i int) func() error {
		return func() error { return fn(i) }
	})
}

// timeEach is timeCalls with an untimed preparation step: prep(i) builds
// the call that is then timed.
func (b *bench) timeEach(layer, op string, n int, prep func(i int) func() error) (*lat, error) {
	var l lat
	deadline := time.Now().Add(probeBudget)
	for i := 0; i < n && (i < 3 || time.Now().Before(deadline)); i++ {
		d, err := b.tr.call(layer, op, 0, prep(i))
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", layer, op, err)
		}
		l.add(d)
	}
	return &l, nil
}

func nsNote(l *lat) string { return fmt.Sprintf("n=%d", l.n()) }

// probeDwarf times the cube library on seal-sized chunks of the feed and
// on the store's own segment files.
func (b *bench) probeDwarf(st *cubestore.Store, dir string) error {
	r := b.res
	in := generate(b.seed, weekTuples+4*cubestore.DefaultSealTuples)
	chunks := make([][]dwarf.Tuple, 4)
	for i := range chunks {
		lo := weekTuples + i*cubestore.DefaultSealTuples
		chunks[i] = in[lo : lo+cubestore.DefaultSealTuples]
	}
	var cube *dwarf.Cube
	l, err := b.timeCalls("dwarf", "New", 5, func(int) error {
		var err error
		cube, err = dwarf.New(dims, chunks[0])
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer("dwarf.build_ns_per_tuple", l.q(0.5)/float64(len(chunks[0])), nsNote(l)+" builds of 16384 tuples")
	var buf bytes.Buffer
	if l, err = b.timeCalls("dwarf", "EncodeIndexed", 5, func(int) error {
		buf.Reset()
		return cube.EncodeIndexed(&buf)
	}); err != nil {
		return err
	}
	r.setLayer("dwarf.encode_ms", l.ms(0.5), nsNote(l))

	views := make([]*dwarf.CubeView, len(chunks))
	for i, c := range chunks {
		v, err := encodeView(c)
		if err != nil {
			return err
		}
		views[i] = v
	}
	if l, err = b.timeCalls("dwarf", "MergeViews", 5, func(int) error {
		_, err := dwarf.MergeViews(io.Discard, views...)
		return err
	}); err != nil {
		return err
	}
	r.setLayer("dwarf.mergeviews_ms", l.ms(0.5), nsNote(l)+" merges of 4 seal-sized views")

	var open, trusted lat
	for _, seg := range st.Stats().Segments {
		path := filepath.Join(dir, seg.File)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		d, err := b.tr.call("dwarf", "OpenView", 0, func() error { _, err := dwarf.OpenView(data); return err })
		if err != nil {
			return err
		}
		open.add(d)
		d, err = b.tr.call("dwarf", "OpenViewFile", 0, func() error {
			f, err := dwarf.OpenViewFile(path)
			if err != nil {
				return err
			}
			return f.Close()
		})
		if err != nil {
			return err
		}
		trusted.add(d)
	}
	r.setLayer("dwarf.openview_ms", open.ms(0.5), fmt.Sprintf("median of %d segments", open.n()))
	r.setLayer("dwarf.openview_trusted_ms", trusted.ms(0.5), fmt.Sprintf("median of %d segments", trusted.n()))

	// One day segment: the first calendar day of the Week.
	end := 0
	for end < len(in) && in[end].Dims[dimDay] == in[0].Dims[dimDay] {
		end++
	}
	dayView, err := encodeView(in[:end])
	if err != nil {
		return err
	}
	const batch = 64
	if l, err = b.timeCalls("dwarf", "CubeView.Point", probeCalls, func(i int) error {
		for j := 0; j < batch; j++ {
			if _, err := dayView.Point(in[(i*batch+j)%end].Dims...); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	r.setLayer("dwarf.view_point_ns", l.q(0.5)/batch, fmt.Sprintf("n=%d batches of %d", l.n(), batch))
	if l, err = b.timeCalls("dwarf", "CubeView.GroupBy", probeCalls, func(i int) error {
		_, err := dayView.GroupBy(dimStation, sels(map[int]string{dimArea: area(i % areas)}))
		return err
	}); err != nil {
		return err
	}
	r.setLayer("dwarf.view_groupby_us", l.us(0.5), nsNote(l)+" (Station within one Area)")
	return nil
}

func encodeView(tuples []dwarf.Tuple) (*dwarf.CubeView, error) {
	c, err := dwarf.New(dims, tuples)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := c.EncodeIndexed(&buf); err != nil {
		return nil, err
	}
	return dwarf.OpenView(buf.Bytes())
}

// probeServe times a dwarfd handler in process through httptest, with no
// listener or connection in the way. extra feeds the ingest handler.
func (b *bench) probeServe(h http.Handler, m *mix, extra []dwarf.Tuple) error {
	r := b.res
	for s := shape(0); s < numShapes; s++ {
		ids := m.byShape[s]
		l, err := b.timeHandler("serve", shapeNames[s]+"_handler", h, probeCalls, func(i int) *http.Request {
			return newRequest(m.queries[ids[i%len(ids)]], dialectDwarfd)
		})
		if err != nil {
			return err
		}
		r.setLayer("serve."+shapeNames[s]+"_handler_us", l.us(0.5), nsNote(l))
	}
	l, err := b.timeHandler("serve", "ingest_handler", h, 100, func(i int) *http.Request {
		body := ingestBody(extra[i*feedBatch : (i+1)*feedBatch])
		return httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
	})
	if err != nil {
		return err
	}
	r.setLayer("serve.ingest_handler_us", l.us(0.5), nsNote(l)+" durable 20-tuple batches")

	// Allocations of the canonical point path, as the repository's own
	// alloc pin measures them: a reused request and a discarding writer.
	req := newRequest(m.queries[m.byShape[shapePoint][0]], dialectDwarfd)
	w := &nullWriter{h: http.Header{}}
	for i := 0; i < 100; i++ {
		h.ServeHTTP(w, req)
	}
	const n = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		h.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&m1)
	r.setLayer("serve.point_allocs", float64(m1.Mallocs-m0.Mallocs)/n, fmt.Sprintf("n=%d (process-wide mallocs per call)", n))
	return nil
}

// timeHandler times h.ServeHTTP alone: each request and its recorder are
// built before the clock starts.
func (b *bench) timeHandler(layer, op string, h http.Handler, n int, mk func(i int) *http.Request) (*lat, error) {
	return b.timeEach(layer, op, n, func(i int) func() error {
		req, rec := mk(i), httptest.NewRecorder()
		return func() error {
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("%s %s: status %d: %.200s", req.Method, req.URL, rec.Code, rec.Body.String())
			}
			return nil
		}
	})
}

type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

func newRequest(q *query, d dialect) *http.Request {
	method, target, body := q.httpParts(d)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	return httptest.NewRequest(method, target, rd)
}

// probeStore times the store's query methods in process over the mix;
// check compares answers with the reference where they are fixed.
func (b *bench) probeStore(src querier, m *mix, check bool) error {
	for s := shape(0); s < numShapes; s++ {
		ids := m.byShape[s]
		l, err := b.timeCalls("cubestore", shapeNames[s], probeCalls, func(i int) error {
			idx := ids[i%len(ids)]
			got, err := m.queries[idx].run(src)
			if err == nil && check && m.queries[idx].fixed {
				if err := m.queries[idx].check(got, m.want[idx]); err != nil {
					b.res.fail(true, "probe %v", err)
				}
			}
			return err
		})
		if err != nil {
			return err
		}
		b.res.setLayer("cubestore."+shapeNames[s]+"_us", l.us(0.5), nsNote(l)+" in process, no HTTP")
	}
	return nil
}

// probeAppend times direct durable Appends of feed-sized batches.
func (b *bench) probeAppend(st *cubestore.Store, extra []dwarf.Tuple) error {
	l, err := b.timeCalls("cubestore", "Append", 200, func(i int) error {
		return st.Append(extra[i*feedBatch : (i+1)*feedBatch])
	})
	if err != nil {
		return err
	}
	b.appendLayers(l, "direct 20-tuple Appends after the measured phase")
	return nil
}

func (b *bench) appendLayers(l *lat, how string) {
	stalls := 0
	for _, ns := range l.ns {
		if time.Duration(ns) > stallLatency {
			stalls++
		}
	}
	b.res.setLayer("cubestore.append_p50_us", l.us(0.5), nsNote(l)+" "+how)
	b.res.setLayer("cubestore.append_p99_us", l.us(0.99), nsNote(l)+" "+how)
	b.res.setLayer("cubestore.append_stalls", float64(stalls), fmt.Sprintf("acks > %s of n=%d", stallLatency, l.n()))
}

// counterLayers reports the per-phase store counters (mean per round or
// pass) and the read-path ratios over the measured queries.
func (b *bench) counterLayers(counters []cubestore.Stats, reads cubestore.Stats, depthMax int, compactIn int64, queries, grouped int64, stores int) {
	r := b.res
	t := sum(counters...)
	per := float64(len(counters))
	note := fmt.Sprintf("mean per phase over %d", len(counters))
	r.setLayer("cubestore.seals", float64(t.Seals)/per, note)
	r.setLayer("cubestore.compactions", float64(t.Compactions)/per, note)
	r.setLayer("cubestore.streaming_compactions", float64(t.StreamingCompactions)/per, note)
	r.setLayer("cubestore.group_commits", float64(t.GroupCommits)/per, note)
	r.setLayer("cubestore.fsyncs_saved", float64(t.FsyncsSaved)/per, note)
	r.setLayer("cubestore.seal_queue_depth_max", float64(depthMax), "Stats sampled every 5ms")
	r.setLayer("cubestore.compact_bytes_in", float64(compactIn)/per, note+"; Stats sampled every 5ms")
	qn := fmt.Sprintf("per query, n=%d", queries)
	r.setLayer("cubestore.segments_scanned_per_query", ratio(float64(reads.SegmentsScanned), float64(queries)), qn)
	r.setLayer("cubestore.segments_pruned_per_query", ratio(float64(reads.SegmentsPruned), float64(queries)), qn)
	r.setLayer("cubestore.rollup_hit_ratio", ratio(float64(reads.RollupHits), float64(grouped*int64(stores))),
		fmt.Sprintf("rollup hits / grouped store queries, n=%d", grouped*int64(stores)))
	lookups := reads.CacheHits + reads.CacheMisses + reads.CacheStale
	ln := fmt.Sprintf("n=%d lookups", lookups)
	r.setLayer("qcache.hit_ratio", ratio(float64(reads.CacheHits), float64(lookups)), ln)
	r.setLayer("qcache.stale_ratio", ratio(float64(reads.CacheStale), float64(lookups)), ln)
	partial := reads.CachePartialHits + reads.CachePartialMisses
	r.setLayer("qcache.partial_hit_ratio", ratio(float64(reads.CachePartialHits), float64(partial)), fmt.Sprintf("n=%d partial lookups", partial))
}

func (b *bench) clientLayers(shapes *[numShapes]lat) {
	b.res.setLayer("client.queries_per_s", b.res.queriesPerS, "closed-loop client, median over windows")
	for s := shape(0); s < numShapes; s++ {
		n := nsNote(&shapes[s])
		b.res.setLayer("client."+shapeNames[s]+"_p90_ms", shapes[s].ms(0.90), n)
		b.res.setLayer("client."+shapeNames[s]+"_p99_ms", shapes[s].ms(0.99), n)
	}
}

// ingestLayers fills the ingest workload's per-layer table.
func (b *bench) ingestLayers(tot *ingestTotals) {
	r := b.res
	r.setLayer("cubestore.open_ms", median(tot.opens), fmt.Sprintf("median of %d", len(tot.opens)))
	b.appendLayers(&tot.appends, "writer Appends, 80-tuple batches")
	var grouped int64
	for s := shapeGroupBy; s < numShapes; s++ {
		grouped += int64(tot.shapes[s].n())
	}
	b.counterLayers(tot.counters, sum(tot.reads...), tot.depthMax, tot.compactIn, tot.queries, grouped, 1)
	// The read phase is the store's in-process query path.
	for s := shape(0); s < numShapes; s++ {
		r.setLayer("cubestore."+shapeNames[s]+"_us", tot.shapes[s].us(0.5), nsNote(&tot.shapes[s])+" read phase")
	}
	for _, k := range []string{"qcache.hit_ratio", "qcache.stale_ratio", "qcache.partial_hit_ratio"} {
		r.setLayer(k, 0, "n/a: the ingest store runs without a result cache")
	}
	b.clientLayers(&tot.shapes)
	r.notApplicable("cluster.", "the ingest workload runs no cluster")
	r.notApplicable("feed.", "the ingest workload has no HTTP feed")
}

// servingProbes runs the traced probes of the dashboard and cluster
// workloads against the last round's system, after its checks.
func (b *bench) servingProbes(env *servingEnv, dir string, m *mix, feedN int) error {
	extra := generate(b.seed, weekTuples+feedN+probeTuples)[weekTuples+feedN:]
	clustered := env.coord != nil
	if clustered {
		if err := b.probeCluster(env, m, extra); err != nil {
			return err
		}
	}
	st, storeDir := env.stores[0], filepath.Join(dir, "node-0")
	if err := b.probeStore(st, m, !clustered); err != nil {
		return err
	}
	if err := b.probeDwarf(st, storeDir); err != nil {
		return err
	}
	if err := b.probeServe(env.servers[0].Handler(), m, extra); err != nil {
		return err
	}
	return b.probeAppend(st, extra)
}

// probeCluster times the coordinator without the gateway hop, the
// gateway's handler without the client hop, and coordinator Appends.
func (b *bench) probeCluster(env *servingEnv, m *mix, extra []dwarf.Tuple) error {
	r := b.res
	// Node calls from here on belong to no client request.
	b.tr.queryReq.Store(0)
	b.tr.querySpan.Store(0)
	b.tr.feedReq.Store(0)
	b.tr.feedSpan.Store(0)
	h := env.gw.Handler()
	for s := shape(0); s < numShapes; s++ {
		ids := m.byShape[s]
		l, err := b.timeCalls("cluster", "Coordinator."+shapeNames[s], probeCalls, func(i int) error {
			idx := ids[i%len(ids)]
			got, err := m.queries[idx].run(env.coord)
			if err == nil && m.queries[idx].fixed {
				if err := m.queries[idx].check(got, m.want[idx]); err != nil {
					b.res.fail(true, "coordinator probe %v", err)
				}
			}
			return err
		})
		if err != nil {
			return err
		}
		r.setLayer("cluster.coord_"+shapeNames[s]+"_us", l.us(0.5), nsNote(l))
		if l, err = b.timeHandler("cluster", "gateway_"+shapeNames[s]+"_handler", h, probeCalls, func(i int) *http.Request {
			return newRequest(m.queries[ids[i%len(ids)]], dialectGateway)
		}); err != nil {
			return err
		}
		r.setLayer("cluster.gateway_"+shapeNames[s]+"_handler_us", l.us(0.5), nsNote(l))
	}
	l, err := b.timeCalls("cluster", "Coordinator.Append", 50, func(i int) error {
		return env.coord.Append(extra[i*feedBatch : (i+1)*feedBatch])
	})
	if err != nil {
		return err
	}
	r.setLayer("cluster.append_us", l.us(0.5), nsNote(l)+" 20-tuple batches")
	return nil
}

// servingLayers fills the dashboard and cluster per-layer tables.
func (b *bench) servingLayers(opens []float64, counters []cubestore.Stats, depthMax int, compactIn int64,
	queries int64, shapes *[numShapes]lat, acks, late *lat, clustered bool) {
	r := b.res
	r.setLayer("cubestore.open_ms", median(opens), fmt.Sprintf("median of %d store opens", len(opens)))
	grouped := int64(shapes[shapeGroupBy].n() + shapes[shapeTopK].n())
	stores := 1
	if clustered {
		stores = clusterSize
	}
	b.counterLayers(counters, sum(counters...), depthMax, compactIn, queries, grouped, stores)
	b.clientLayers(shapes)
	r.setLayer("feed.ack_p50_ms", acks.ms(0.5), nsNote(acks)+" timed from each batch's due time")
	r.setLayer("feed.ack_p99_ms", acks.ms(0.99), nsNote(acks))
	r.setLayer("feed.generator_late_ms", late.ms(0.99), nsNote(late)+" p99 send lateness")
	handler := "serve.point_handler_us"
	if clustered {
		handler = "cluster.gateway_point_handler_us"
		b.routingLayers()
	} else {
		r.notApplicable("cluster.", "the dashboard workload runs no cluster")
	}
	r.setLayer("serve.wire_us", shapes[shapePoint].us(0.5)-r.layer[handler],
		"client point p50 minus "+handler+": net/http plus loopback")
}

// routingLayers derives the cluster's fan-out from the spans: how many
// nodes each client query reached, and repeated calls to one node.
func (b *bench) routingLayers() {
	r := b.res
	shapeOf := map[uint64]string{}
	calls := map[uint64]map[string]int{}
	var partial lat
	for _, s := range b.tr.snapshot() {
		switch {
		case s.Layer == "client":
			shapeOf[s.Req] = s.Op
		case s.Layer == "cluster.node_call" && s.Req != 0 && len(s.Op) > 14 && s.Op[len(s.Op)-14:] == "/query/partial":
			if calls[s.Req] == nil {
				calls[s.Req] = map[string]int{}
			}
			calls[s.Req][s.Op]++
		case s.Layer == "serve.node" && s.Op == "/query/partial":
			partial.add(s.dur())
		}
	}
	var pointQ, groupedQ, pointNodes, groupedNodes, retries float64
	for req, shape := range shapeOf {
		nodes := float64(len(calls[req]))
		for _, n := range calls[req] {
			retries += float64(n - 1)
		}
		if shape == "point" {
			pointQ++
			pointNodes += nodes
		} else if shape == "groupby" || shape == "topk" {
			groupedQ++
			groupedNodes += nodes
		}
	}
	r.setLayer("cluster.node_partial_us", partial.us(0.5), nsNote(&partial)+" node handler spans")
	r.setLayer("cluster.nodes_per_point", ratio(pointNodes, pointQ), fmt.Sprintf("n=%.0f point queries", pointQ))
	r.setLayer("cluster.nodes_per_grouped", ratio(groupedNodes, groupedQ), fmt.Sprintf("n=%.0f grouped queries", groupedQ))
	r.setLayer("cluster.retries", retries, fmt.Sprintf("repeated node calls over n=%d queries", len(shapeOf)))
	if r.layer["cluster.nodes_per_point"] != 1 || r.layer["cluster.nodes_per_grouped"] != clusterSize || retries != 0 {
		r.fail(false, "cluster routing: %.3f nodes per point (want 1), %.3f per grouped query (want %d), %.0f retries (want 0)",
			r.layer["cluster.nodes_per_point"], r.layer["cluster.nodes_per_grouped"], clusterSize, retries)
	}
}
