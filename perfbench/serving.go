package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/cubestore"
	"repro/internal/dwarf"
	"repro/internal/serve"
)

// dashboard and cluster share one shape: rounds of set-up (bulk load the
// Week one segment per day, close, reopen, start the servers, warm up),
// then a measured phase in which one closed-loop client on one keep-alive
// connection sends the query mix while an open-loop feed POSTs 20 tuples
// to /ingest every 25 ms on a second connection. The feed continues the
// bike stream past the Week, so point and one-day range answers never
// change while it runs; after it stops, the grouped answers and the grand
// total are checked against one batch dwarf.New over base + fed tuples.
const (
	rounds      = 5
	feedBatch   = 20
	feedEvery   = 25 * time.Millisecond
	warmQueries = 500
	clusterSize = 3
	// probeTuples are generated past the feed for the traced run's
	// direct Append probes, which run after every check.
	probeTuples = 200 * feedBatch
)

// servingEnv is one round's running system.
type servingEnv struct {
	addr    string // the address the client talks to
	stores  []*cubestore.Store
	servers []*serve.Server // dwarfd (or node) servers, for handler probes
	http    []*http.Server  // client-facing last
	done    []chan struct{}
	coord   *cluster.Coordinator
	gw      *cluster.Gateway
	client  *http.Client // the coordinator's
}

// serving runs the dashboard (one dwarfd) or cluster (gateway in front of
// three dwarfd nodes) workload.
func (b *bench) serving(clustered bool) error {
	roundDur := b.seconds / rounds
	nBatches := int(roundDur / feedEvery)
	feedN := nBatches * feedBatch

	// References: the Week for answers the feed cannot change, Week + the
	// whole feed for the end-of-round check. Only answers are kept.
	in := generate(b.seed, weekTuples+feedN)
	m := newMix(b.seed, in[:weekTuples], clustered)
	weekRef, err := dwarf.New(dims, in[:weekTuples])
	if err != nil {
		return err
	}
	if m.want, err = answerAll(m.queries, weekRef); err != nil {
		return err
	}
	checks := finalChecks(m)
	finalRef, err := dwarf.New(dims, in)
	if err != nil {
		return err
	}
	checkWant, err := answerAll(checks, finalRef)
	if err != nil {
		return err
	}
	in, weekRef, finalRef = nil, nil, nil

	d := dialectDwarfd
	if clustered {
		d = dialectGateway
	}
	const host = "perfbench" // requests are built before the servers exist
	reqs := make([]request, len(m.queries))
	for i, q := range m.queries {
		reqs[i] = q.httpRequest(host, d)
	}
	checkReqs := make([]request, len(checks))
	for i, q := range checks {
		checkReqs[i] = q.httpRequest(host, d)
	}

	var setups, opens, heaps, bpt []float64
	var shapes [numShapes]lat
	win := windows{width: time.Second}
	var acks, late lat
	var queries, fedTuples int64
	var feedTime time.Duration
	var counters []cubestore.Stats
	var depthMax int
	var compactIn int64
	for round := 0; round < rounds; round++ {
		dir := filepath.Join(b.workDir, fmt.Sprintf("%s-%d", b.workload, round))
		in := generate(b.seed, weekTuples+feedN)
		feedReqs := make([]request, nBatches)
		for i := range feedReqs {
			lo := weekTuples + i*feedBatch
			feedReqs[i] = postRequest(host, "/ingest", ingestBody(in[lo:lo+feedBatch]))
		}

		quiesce()
		start := time.Now()
		env, openMs, err := b.startServing(dir, in[:weekTuples], clustered)
		if err != nil {
			return err
		}
		opens = append(opens, openMs...)
		qc, err := dial(env.addr)
		if err != nil {
			env.close()
			return err
		}
		fc, err := dial(env.addr)
		if err != nil {
			qc.close()
			env.close()
			return err
		}
		b.warmUp(qc, m, reqs)
		setups = append(setups, time.Since(start).Seconds())

		before := sum(statsOf(env.stores)...)
		smp := startSampler(b.tr, env.stores)
		phaseStart := time.Now()
		feedDone := make(chan struct{})
		var roundAcks, roundLate lat
		var okBatches int
		go func() {
			defer close(feedDone)
			okBatches = b.feedLoop(fc, feedReqs, phaseStart, &roundAcks, &roundLate)
		}()
		var events []event
		n := b.queryLoop(qc, m, reqs, phaseStart, roundDur, &shapes, &events)
		win.add(events, roundDur)
		<-feedDone
		// The feed's rate runs to its last ack, so a feed that falls behind
		// the schedule, or batches that fail, lower it.
		feedTime += time.Since(phaseStart)
		fedTuples += int64(okBatches * feedBatch)
		after := sum(statsOf(env.stores)...)
		depth, cin := smp.finish()
		depthMax, compactIn = max(depthMax, depth), compactIn+cin
		counters = append(counters, delta(after, before))
		queries += n
		acks.addAll(&roundAcks)
		late.addAll(&roundLate)
		bpt = append(bpt, float64(after.SealedBytes)/float64(after.SealedTuples))

		in, feedReqs = nil, nil
		heaps = append(heaps, liveHeapMB())
		b.checkHTTP(qc, checks, checkReqs, checkWant)
		if after.TotalTuples != weekTuples+feedN {
			b.res.fail(true, "%s: stores hold %d tuples, want %d", b.workload, after.TotalTuples, weekTuples+feedN)
		}
		if b.tr != nil && round == rounds-1 {
			if err := b.servingProbes(env, dir, m, feedN); err != nil {
				qc.close()
				fc.close()
				env.close()
				return err
			}
		}
		qc.close()
		fc.close()
		if err := env.close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}

	r := b.res
	r.e2e["setup_s"] = median(setups)
	r.queriesPerS = win.rate()
	for s := shape(0); s < numShapes; s++ {
		r.e2e[shapeNames[s]+"_p50_ms"] = win.p50ms(s)
	}
	r.e2e["ingest_tuples_per_s"] = float64(fedTuples) / feedTime.Seconds()
	r.e2e["bytes_per_tuple"] = median(bpt)
	r.e2e["live_heap_mb"] = median(heaps)
	if b.tr != nil {
		b.servingLayers(opens, counters, depthMax, compactIn, queries, &shapes, &acks, &late, clustered)
	}
	return nil
}

func statsOf(stores []*cubestore.Store) []cubestore.Stats {
	out := make([]cubestore.Stats, len(stores))
	for i, st := range stores {
		out[i] = st.Stats()
	}
	return out
}

// startServing bulk-loads and reopens the store(s) and starts the servers
// on loopback ports. It returns each store's Open time in milliseconds.
func (b *bench) startServing(dir string, week []dwarf.Tuple, clustered bool) (*servingEnv, []float64, error) {
	env := &servingEnv{}
	parts := [][]dwarf.Tuple{week}
	if clustered {
		parts = make([][]dwarf.Tuple, clusterSize)
		for _, t := range week {
			i := cluster.NodeFor(t.Dims, clusterSize)
			parts[i] = append(parts[i], t)
		}
	}
	var opens []float64
	var urls []string
	for i, part := range parts {
		st, openMs, err := b.restart(filepath.Join(dir, fmt.Sprintf("node-%d", i)), part, true, servingOpts())
		if err != nil {
			env.close()
			return nil, nil, err
		}
		opens = append(opens, openMs)
		env.stores = append(env.stores, st)
		srv, err := serve.New(serve.Options{Store: st, ClusterNode: clustered})
		if err != nil {
			env.close()
			return nil, nil, err
		}
		env.servers = append(env.servers, srv)
		layer := "serve"
		if clustered {
			layer = "serve.node"
		}
		addr, err := env.listen(b, b.tr.handler(layer, clustered, srv.Handler()))
		if err != nil {
			env.close()
			return nil, nil, err
		}
		env.addr = addr
		urls = append(urls, "http://"+addr)
	}
	if clustered {
		env.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
		if b.tr != nil {
			env.client.Transport = &transport{t: b.tr, base: env.client.Transport}
		}
		coord, err := cluster.New(cluster.Options{Nodes: urls, Dims: dims, Client: env.client})
		if err != nil {
			env.close()
			return nil, nil, err
		}
		env.coord = coord
		env.gw = cluster.NewGateway(coord, 0)
		addr, err := env.listen(b, b.tr.handler("cluster.gateway", false, env.gw.Handler()))
		if err != nil {
			env.close()
			return nil, nil, err
		}
		env.addr = addr
	}
	return env, opens, nil
}

func (env *servingEnv) listen(b *bench, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := serve.NewHTTPServer("", h)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	env.http = append(env.http, srv)
	env.done = append(env.done, done)
	b.noteListener(ln.Addr().String())
	return ln.Addr().String(), nil
}

// close stops the client-facing server first, then the coordinator's idle
// connections, the nodes and the stores, waiting for each Serve to return.
func (env *servingEnv) close() error {
	for i := len(env.http) - 1; i >= 0; i-- {
		env.http[i].Close()
		<-env.done[i]
		if i == len(env.http)-1 && env.client != nil {
			env.client.CloseIdleConnections()
		}
	}
	var first error
	for _, st := range env.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// warmUp sends every non-point template once plus warmQueries of the
// sequence, so caches fill and lazy set-up finishes before timing.
func (b *bench) warmUp(c *conn, m *mix, reqs []request) {
	var ids []int
	for s := shapeRange; s < numShapes; s++ {
		ids = append(ids, m.byShape[s]...)
	}
	for i := 0; i < warmQueries; i++ {
		ids = append(ids, int(m.seq[len(m.seq)-1-i]))
	}
	for _, i := range ids {
		if _, ok := b.send(c, m, reqs, i); !ok {
			return
		}
	}
}

// send issues one query, checks the response and returns its latency; ok
// is false when the connection failed.
func (b *bench) send(c *conn, m *mix, reqs []request, idx int) (d time.Duration, ok bool) {
	q := m.queries[idx]
	id := b.tr.id()
	start := time.Now()
	t0 := b.tr.now()
	status, body, err := c.do(reqs[idx], id)
	d = time.Since(start)
	b.tr.add(span{ID: id, Req: id, Layer: "client", Op: shapeNames[q.shape], Start: t0, End: b.tr.now()})
	b.res.count(1, 0)
	switch {
	case err != nil:
		b.res.fail(false, "%s: %v", q, err)
		return d, false
	case status != http.StatusOK:
		b.res.fail(false, "%s: status %d: %.200s", q, status, body)
	case q.fixed:
		if err := q.checkResponse(body, &m.want[idx]); err != nil {
			b.res.fail(true, "%v", err)
		}
	}
	return d, true
}

// queryLoop is the closed-loop client: next request after the previous
// response, until the phase ends.
func (b *bench) queryLoop(c *conn, m *mix, reqs []request, start time.Time, phase time.Duration,
	lats *[numShapes]lat, events *[]event) int64 {
	var n int64
	for i := 0; time.Since(start) < phase; i++ {
		idx := int(m.seq[i%len(m.seq)])
		d, ok := b.send(c, m, reqs, idx)
		s := m.queries[idx].shape
		lats[s].add(d)
		*events = append(*events, event{at: int64(time.Since(start)), ns: int64(d), shape: s, n: 1})
		n++
		if !ok {
			break // the connection is gone; the failure is recorded
		}
	}
	return n
}

// feedLoop is the open-loop feed: batch i is due at start + i·feedEvery
// whatever the server's speed, and its ack latency is timed from the due
// time, so a stall also charges the batches queued behind it. It returns
// the number of batches acked with status 200.
func (b *bench) feedLoop(c *conn, reqs []request, start time.Time, acks, late *lat) (ok int) {
	for i, req := range reqs {
		due := start.Add(time.Duration(i) * feedEvery)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late.add(time.Since(due))
		id := b.tr.id()
		t0 := b.tr.now()
		status, body, err := c.do(req, id)
		acks.add(time.Since(due))
		b.tr.add(span{ID: id, Req: id, Layer: "feed", Op: "/ingest", Start: t0, End: b.tr.now()})
		b.res.count(1, 0)
		if err != nil {
			b.res.fail(false, "feed batch %d: %v", i, err)
			return ok
		}
		if status != http.StatusOK {
			b.res.fail(false, "feed batch %d: status %d: %.200s", i, status, body)
			continue
		}
		ok++
	}
	return ok
}

// checkHTTP is the end-of-round bit-identity check over the wire.
func (b *bench) checkHTTP(c *conn, checks []*query, reqs []request, want []answer) {
	for i, q := range checks {
		status, body, err := c.do(reqs[i], 0)
		b.res.count(1, 0)
		switch {
		case err != nil:
			b.res.fail(false, "final %s: %v", q, err)
			return
		case status != http.StatusOK:
			b.res.fail(false, "final %s: status %d: %.200s", q, status, body)
		default:
			if err := q.checkResponse(body, &want[i]); err != nil {
				b.res.fail(true, "final %v", err)
			}
		}
	}
}
