package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cubestore"
	"repro/internal/dwarf"
	"repro/internal/serve"
)

// ingest: catch-up after a restart. Each pass bulk-loads the Week as one
// sealed segment per day, closes and reopens the store (the set-up), then
// two closed-loop writers Append TMonth[weekTuples:] in 80-tuple poll
// ticks with the store's default seal, frozen-queue and compaction
// settings. Once the seal queue drains and compaction settles, one
// in-process client runs the query mix against the caught-up store for
// readPhase. Passes repeat until the measured time reaches -seconds.
const (
	ingestBatch   = 80
	ingestWriters = 2
	readPhase     = 5 * time.Second
	readWindow    = 500 * time.Millisecond
	minSetups     = 5
)

// ingestTotals accumulates a run's passes.
type ingestTotals struct {
	setups, opens, heaps, bpt []float64
	appends                   lat
	shapes                    [numShapes]lat
	write, read               windows
	queries                   int64
	counters                  []cubestore.Stats // per-pass write-phase deltas
	reads                     []cubestore.Stats // per-pass read-phase deltas
	depthMax                  int
	compactIn                 int64
}

func (b *bench) ingest() error {
	// Reference: one batch dwarf.New over every tuple a pass ends with.
	// Only the answers are kept.
	all := generate(b.seed, tmonthTuples)
	m := newMix(b.seed, all[:weekTuples], false)
	for _, q := range m.queries {
		q.fixed = true // nothing writes during the read phase
	}
	checks := finalChecks(m)
	ref, err := dwarf.New(dims, all)
	if err != nil {
		return err
	}
	if m.want, err = answerAll(m.queries, ref); err != nil {
		return err
	}
	checkWant, err := answerAll(checks, ref)
	if err != nil {
		return err
	}
	all, ref = nil, nil
	runtime.GC()

	tot := ingestTotals{write: windows{width: time.Second}, read: windows{width: readWindow}}
	var measured time.Duration
	for pass := 0; pass == 0 || measured < b.seconds; pass++ {
		d, err := b.ingestPass(pass, m, checks, checkWant, &tot, measured)
		if err != nil {
			return err
		}
		measured += d
	}
	for pass := len(tot.setups); pass < minSetups; pass++ {
		if err := b.ingestSetupOnly(pass, &tot); err != nil {
			return err
		}
	}
	r := b.res
	r.e2e["setup_s"] = median(tot.setups)
	r.e2e["ingest_tuples_per_s"] = tot.write.rate()
	r.e2e["bytes_per_tuple"] = median(tot.bpt)
	r.e2e["live_heap_mb"] = median(tot.heaps)
	r.queriesPerS = tot.read.rate()
	for s := shape(0); s < numShapes; s++ {
		r.e2e[shapeNames[s]+"_p50_ms"] = tot.read.p50ms(s)
	}
	if b.tr != nil {
		b.ingestLayers(&tot)
	}
	return nil
}

// ingestPass runs one set-up, write phase and read phase, returning the
// measured time it added.
func (b *bench) ingestPass(pass int, m *mix, checks []*query, checkWant []answer, tot *ingestTotals, measuredSoFar time.Duration) (time.Duration, error) {
	r := b.res
	dir := filepath.Join(b.workDir, fmt.Sprintf("ingest-%d", pass))
	defer os.RemoveAll(dir)
	all := generate(b.seed, tmonthTuples)

	st, err := b.ingestSetup(dir, all[:weekTuples], tot)
	if err != nil {
		return 0, err
	}
	defer st.Close()

	rest := all[weekTuples:]
	nb := (len(rest) + ingestBatch - 1) / ingestBatch
	before := st.Stats()
	smp := startSampler(b.tr, []*cubestore.Store{st})
	var next atomic.Int64
	var lats [ingestWriters]lat
	var acked [ingestWriters][]event
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < ingestWriters; w++ {
		wg.Add(1)
		go func(l *lat, acked *[]event) {
			defer wg.Done()
			var n, failed int64
			for {
				i := int(next.Add(1) - 1)
				if i >= nb {
					break
				}
				batch := rest[i*ingestBatch : min((i+1)*ingestBatch, len(rest))]
				d, err := b.tr.call("cubestore", "Append", 0, func() error { return st.Append(batch) })
				l.add(d)
				n++
				if err != nil {
					failed++
					r.fail(false, "append batch %d: %v", i, err)
				} else {
					*acked = append(*acked, event{at: int64(time.Since(start)), ns: int64(d), n: int32(len(batch))})
				}
			}
			r.count(n, failed)
		}(&lats[w], &acked[w])
	}
	wg.Wait()
	write := time.Since(start)
	var ackedAll []event
	for _, a := range acked {
		ackedAll = append(ackedAll, a...)
	}
	tot.write.add(ackedAll, write)
	for i := range lats {
		tot.appends.addAll(&lats[i])
	}

	// Let the seal queue drain and compaction settle, so the sealed bytes
	// per tuple describe a finished catch-up.
	drainBy := time.Now().Add(60 * time.Second)
	for st.Stats().SealQueueDepth > 0 {
		if time.Now().After(drainBy) {
			smp.finish()
			return 0, fmt.Errorf("ingest: seal queue did not drain in 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := st.Compact(); err != nil {
		smp.finish()
		return 0, fmt.Errorf("ingest: compact: %w", err)
	}
	after := st.Stats()
	depth, compactIn := smp.finish()
	tot.depthMax = max(tot.depthMax, depth)
	tot.compactIn += compactIn
	tot.counters = append(tot.counters, delta(after, before))
	tot.bpt = append(tot.bpt, float64(after.SealedBytes)/float64(after.SealedTuples))
	if after.TotalTuples != tmonthTuples {
		r.fail(true, "ingest: store holds %d tuples, want %d", after.TotalTuples, tmonthTuples)
	}

	all, rest = nil, nil
	tot.heaps = append(tot.heaps, liveHeapMB())

	// Read phase: the dashboard's query mix in process, every answer checked.
	readBefore := st.Stats()
	var events []event
	n, readTime := b.readLoop(st, m, &tot.shapes, &events)
	tot.reads = append(tot.reads, delta(st.Stats(), readBefore))
	tot.read.add(events, readPhase)
	tot.queries += n
	b.checkFinal(st, checks, checkWant)

	measured := write + readTime
	if b.tr != nil && measuredSoFar+measured >= b.seconds {
		if err := b.probeDwarf(st, dir); err != nil {
			return 0, err
		}
		srv, err := serve.New(serve.Options{Store: st})
		if err != nil {
			return 0, err
		}
		if err := b.probeServe(srv.Handler(), m, generate(b.seed, tmonthTuples+probeTuples)[tmonthTuples:]); err != nil {
			return 0, err
		}
		b.res.setLayer("serve.wire_us", 0, "n/a: the ingest workload sends no HTTP")
	}
	return measured, st.Close()
}

// restart is every workload's set-up step for one store: bulk-load the
// base tuples one segment per day, close, and reopen with opts. It returns
// the reopened store and how long Open took, in milliseconds.
func (b *bench) restart(dir string, base []dwarf.Tuple, withRollups bool, opts cubestore.Options) (*cubestore.Store, float64, error) {
	if _, err := b.tr.call("cubestore", "bulkload", 0, func() error { return bulkLoad(dir, base, withRollups) }); err != nil {
		return nil, 0, fmt.Errorf("bulk load: %w", err)
	}
	var st *cubestore.Store
	openDur, err := b.tr.call("cubestore", "Open", 0, func() error {
		var err error
		st, err = cubestore.Open(dir, opts)
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("reopen: %w", err)
	}
	return st, openDur.Seconds() * 1e3, nil
}

// ingestSetup is the ingest workload's timed set-up.
func (b *bench) ingestSetup(dir string, week []dwarf.Tuple, tot *ingestTotals) (*cubestore.Store, error) {
	quiesce()
	start := time.Now()
	st, openMs, err := b.restart(dir, week, false, cubestore.Options{})
	if err != nil {
		return nil, err
	}
	tot.setups = append(tot.setups, time.Since(start).Seconds())
	tot.opens = append(tot.opens, openMs)
	return st, nil
}

func (b *bench) ingestSetupOnly(pass int, tot *ingestTotals) error {
	dir := filepath.Join(b.workDir, fmt.Sprintf("ingest-setup-%d", pass))
	defer os.RemoveAll(dir)
	st, err := b.ingestSetup(dir, generate(b.seed, weekTuples), tot)
	if err != nil {
		return err
	}
	return st.Close()
}

// readLoop is one closed-loop in-process client running the mix against
// src for readPhase.
func (b *bench) readLoop(src querier, m *mix, shapes *[numShapes]lat, events *[]event) (int64, time.Duration) {
	var n, failed int64
	start := time.Now()
	for i := 0; time.Since(start) < readPhase; i++ {
		idx := m.seq[i%len(m.seq)]
		q := m.queries[idx]
		var got answer
		d, err := b.tr.call("cubestore", shapeNames[q.shape], 0, func() error {
			var err error
			got, err = q.run(src)
			return err
		})
		shapes[q.shape].add(d)
		*events = append(*events, event{at: int64(time.Since(start)), ns: int64(d), shape: q.shape, n: 1})
		n++
		if err != nil {
			failed++
			b.res.fail(false, "%s: %v", q, err)
		} else if err := q.check(got, m.want[idx]); err != nil {
			b.res.fail(true, "%v", err)
		}
	}
	b.res.count(n, failed)
	return n, time.Since(start)
}

// checkFinal compares the end state with the batch reference in process.
func (b *bench) checkFinal(src querier, checks []*query, want []answer) {
	for i, q := range checks {
		got, err := q.run(src)
		b.res.count(1, 0)
		if err != nil {
			b.res.fail(false, "final %s: %v", q, err)
		} else if err := q.check(got, want[i]); err != nil {
			b.res.fail(true, "final %v", err)
		}
	}
}

// quiesce runs before each timed set-up so that it starts from the same
// state every time: the benchmark's own garbage collected and the dirty
// pages of earlier phases written back, so neither the collector nor the
// set-up's fsyncs pay for work that came before the clock started.
func quiesce() {
	runtime.GC()
	syscall.Sync()
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// delta subtracts the lifetime counters the per-layer table reports.
func delta(a, b cubestore.Stats) cubestore.Stats {
	return cubestore.Stats{
		Seals: a.Seals - b.Seals, Compactions: a.Compactions - b.Compactions,
		StreamingCompactions: a.StreamingCompactions - b.StreamingCompactions,
		GroupCommits:         a.GroupCommits - b.GroupCommits, FsyncsSaved: a.FsyncsSaved - b.FsyncsSaved,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		CacheStale: a.CacheStale - b.CacheStale, CachePartialHits: a.CachePartialHits - b.CachePartialHits,
		CachePartialMisses: a.CachePartialMisses - b.CachePartialMisses, RollupHits: a.RollupHits - b.RollupHits,
		SegmentsScanned: a.SegmentsScanned - b.SegmentsScanned, SegmentsPruned: a.SegmentsPruned - b.SegmentsPruned,
	}
}

// sum adds the same counters over several stores (the cluster's nodes).
func sum(stats ...cubestore.Stats) cubestore.Stats {
	var t cubestore.Stats
	for _, s := range stats {
		t.Seals += s.Seals
		t.Compactions += s.Compactions
		t.StreamingCompactions += s.StreamingCompactions
		t.GroupCommits += s.GroupCommits
		t.FsyncsSaved += s.FsyncsSaved
		t.CacheHits += s.CacheHits
		t.CacheMisses += s.CacheMisses
		t.CacheStale += s.CacheStale
		t.CachePartialHits += s.CachePartialHits
		t.CachePartialMisses += s.CachePartialMisses
		t.RollupHits += s.RollupHits
		t.SegmentsScanned += s.SegmentsScanned
		t.SegmentsPruned += s.SegmentsPruned
		t.SealedBytes += s.SealedBytes
		t.SealedTuples += s.SealedTuples
		t.TotalTuples += s.TotalTuples
	}
	return t
}
