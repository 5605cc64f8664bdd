// Command perfbench is the repository benchmark: three workloads — ingest,
// dashboard and cluster — run in one process against the real public APIs
// (cubestore.Store, serve.Server over loopback TCP, and cluster.Gateway in
// front of three in-process dwarfd nodes). It checks every answer and
// prints the end-to-end metrics; with -trace 1 it runs the workload twice,
// untraced and then with outside-in spans around every call into a layer,
// and prints the per-layer table plus the tracing overhead.
//
//	go run . -workload dashboard -seed 1 -seconds 20 -trace 0
//
// perfbench/BENCHMARK.md records why each workload and metric exists and
// the steadiness runs behind the bounds in BENCHMARK.json. The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload prints with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"point_p50_ms", "ms"},
	{"range_p50_ms", "ms"},
	{"groupby_p50_ms", "ms"},
	{"topk_p50_ms", "ms"},
	{"ingest_tuples_per_s", "1/s"},
	{"bytes_per_tuple", "B"},
	{"live_heap_mb", "MB"},
}

// result is what one pass over a workload measured.
type result struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	mismatch  bool
	errs      []string
	e2e       map[string]float64
	layer     map[string]float64
	note      map[string]string // per-layer sample counts and reasons
	// queriesPerS is the closed-loop client's query rate. It is printed
	// with the end-to-end table but not gated: host CPU steal moves it
	// three to four times as much as the per-shape p50s.
	queriesPerS float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, note: map[string]string{}}
}

// count records n attempted operations of which failed went wrong.
func (r *result) count(n, failed int64) {
	r.mu.Lock()
	r.attempted += n
	r.failed += failed
	r.mu.Unlock()
}

// fail records one failed operation. A wrong answer also marks the run
// incorrect.
func (r *result) fail(wrongAnswer bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if wrongAnswer {
		r.mismatch = true
	}
	if len(r.errs) < 10 {
		r.errs = append(r.errs, msg)
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
}

func (r *result) setLayer(name string, v float64, note string) {
	r.layer[name] = v
	if note != "" {
		r.note[name] = note
	}
}

// bench is one process's run of one workload.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	workDir  string // scratch root for stores; removed on exit
	tr       *tracer
	res      *result

	mu    sync.Mutex
	addrs []string // every listener opened, checked closed on exit
}

func (b *bench) noteListener(addr string) {
	b.mu.Lock()
	b.addrs = append(b.addrs, addr)
	b.mu.Unlock()
}

var workloads = map[string]func(*bench) error{
	"ingest":    (*bench).ingest,
	"dashboard": func(b *bench) error { return b.serving(false) },
	"cluster":   func(b *bench) error { return b.serving(true) },
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "ingest, dashboard or cluster")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: also run traced and print the per-layer table")
	workRoot := flag.String("workdir", ".bench_build/work", "directory for temporary stores and span files")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload ingest|dashboard|cluster, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	startGoroutines := runtime.NumGoroutine()
	if err := os.MkdirAll(*workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(*workRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Watchdog: a hung run exits with an error instead of lingering.
	limit := 170*time.Second + time.Duration(max(0, *seconds-20))*3*time.Second
	dog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: run exceeded %s\n", limit)
		os.RemoveAll(workDir)
		os.Exit(3)
	})
	defer dog.Stop()
	defer os.RemoveAll(workDir)

	newBench := func(traced bool) *bench {
		b := &bench{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			workDir: workDir, res: newResult()}
		if traced {
			b.tr = newTracer()
		}
		return b
	}
	plain := newBench(false)
	if err := fn(plain); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	final := plain
	if *trace == 1 {
		traced := newBench(true)
		if err := fn(traced); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		traced.res.attempted += plain.res.attempted
		traced.res.failed += plain.res.failed
		traced.res.mismatch = traced.res.mismatch || plain.res.mismatch
		for _, m := range endToEnd {
			traced.res.setLayer("overhead."+m.name, plain.res.e2e[m.name]-traced.res.e2e[m.name],
				"untraced minus traced")
		}
		path := filepath.Join(*workRoot, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := traced.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s (%d dropped past the in-memory cap)\n", traced.tr.len(), path, traced.tr.dropped)
		final = traced
		plain.addrs = append(plain.addrs, traced.addrs...)
	}
	if err := hygiene(plain.addrs, startGoroutines); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.RemoveAll(workDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return report(final, *trace == 1)
}

// hygiene asserts that the run left nothing behind: every listener it
// opened refuses connections and the goroutine count is back near where
// it started (servers, stores and idle client connections all closed).
func hygiene(addrs []string, startGoroutines int) error {
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			c.Close()
			return fmt.Errorf("listener %s still open after shutdown", a)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > startGoroutines+1 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			return fmt.Errorf("%d goroutines still running at exit (started with %d):\n%s",
				runtime.NumGoroutine(), startGoroutines, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func report(b *bench, traced bool) int {
	r := b.res
	metrics := map[string]metricOut{}
	fmt.Printf("\n%s seed=%d seconds=%s\n", b.workload, b.seed, b.seconds)
	if traced {
		fmt.Printf("%-40s %14s  %-6s %s\n", "per-layer metric", "value", "unit", "n / note")
		for _, m := range layerMetrics {
			v := r.layer[m.name]
			metrics[m.name] = metricOut{v, m.unit}
			fmt.Printf("%-40s %14.4f  %-6s %s\n", m.name, v, m.unit, r.note[m.name])
		}
		for _, c := range r.layerChecks() {
			fmt.Println(c)
		}
	} else {
		fmt.Printf("%-24s %14s  %s\n", "end-to-end metric", "value", "unit")
		for _, m := range endToEnd {
			metrics[m.name] = metricOut{r.e2e[m.name], m.unit}
			fmt.Printf("%-24s %14.4f  %s\n", m.name, r.e2e[m.name], m.unit)
		}
		fmt.Printf("%-24s %14.4f  %s  (not gated, see BENCHMARK.md)\n", "queries_per_s", r.queriesPerS, "1/s")
	}
	correct := !r.mismatch && r.failed == 0
	fmt.Printf("attempted=%d failed=%d correct=%v\n", r.attempted, r.failed, correct)
	if len(r.errs) > 0 {
		fmt.Printf("first failures:\n  %s\n", strings.Join(r.errs, "\n  "))
	}
	out, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if r.mismatch {
		fmt.Fprintln(os.Stderr, "perfbench: WRONG ANSWERS — see the failures above")
		return 1
	}
	return 0
}
