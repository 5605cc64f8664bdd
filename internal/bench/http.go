package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dwarf"
	"repro/internal/serve"
)

// The http experiment measures the end-to-end serving path the way a
// dashboard fleet hits it: a real dwarfd handler behind a real TCP
// listener, N persistent connections issuing a query-shape mix. Every row
// is the append-encoder path ("encoder": "append"); the committed
// BENCH_http.json also keeps the "reflect" rows measured when the
// reflection encoder still existed, as the serving tier's recorded
// before/after.
//
// The load generator is deliberately not net/http.Client: each connection
// runs one goroutine over a raw TCP conn with preformatted request bytes
// and a zero-allocation response reader (Content-Length and chunked both
// handled), so the process-wide runtime.MemStats delta divided by requests
// is dominated by the server path under test, not by client-side plumbing.

// HTTPOptions configures the load experiment.
type HTTPOptions struct {
	// Preset is the dataset served (Day when empty).
	Preset string
	// Conns is the concurrency sweep (1, 16, 64 when empty).
	Conns []int
	// Requests is the total request budget per run (12000 when zero),
	// split evenly across the run's connections.
	Requests int
	// Warmup requests are issued (and discarded) before each measured run.
	Warmup int
}

// HTTPHandlerResult is one handler-only measurement: the request path with
// the kernel and encoder on it but without net/http's per-connection
// machinery (read loop, request parse, goroutine), which costs a fixed
// ~30 allocs/request and would otherwise drown the encoder's share at the
// wire level.
type HTTPHandlerResult struct {
	Preset      string  `json:"preset"`
	Encoder     string  `json:"encoder"`
	Shape       string  `json:"shape"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// HTTPResult is one (encoder, workload, connections) load measurement.
type HTTPResult struct {
	Preset           string  `json:"preset"`
	Encoder          string  `json:"encoder"`  // "append" ("reflect" in recorded history)
	Workload         string  `json:"workload"` // "point" or "mixed"
	Connections      int     `json:"connections"`
	Requests         int     `json:"requests"`
	Seconds          float64 `json:"seconds"`
	RequestsPerSec   float64 `json:"requests_per_sec"`
	AllocsPerReq     float64 `json:"allocs_per_request"`
	AllocBytesPerReq float64 `json:"alloc_bytes_per_request"`
	P50Micros        float64 `json:"p50_us"`
	P99Micros        float64 `json:"p99_us"`
	P999Micros       float64 `json:"p999_us"`
}

// RunHTTPLoad serves the preset's indexed cube from a temp directory over
// 127.0.0.1 and sweeps workload × connections, after measuring the handler
// path alone for the headline allocs-per-request figure.
func RunHTTPLoad(opts HTTPOptions, progress func(string)) ([]HTTPResult, []HTTPHandlerResult, error) {
	if opts.Preset == "" {
		opts.Preset = "Day"
	}
	if len(opts.Conns) == 0 {
		opts.Conns = []int{1, 16, 64}
	}
	if opts.Requests <= 0 {
		opts.Requests = 12000
	}
	if opts.Warmup <= 0 {
		opts.Warmup = 500
	}

	cube, err := DatasetCube(opts.Preset)
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "dwarfhttp-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	// Queries use the canonical file name (as listed by /cubes): the
	// extensionless convenience alias costs an extra stat per request.
	cubeName := sanitize(opts.Preset) + ".dwarf"
	var buf bytes.Buffer
	if err := cube.EncodeIndexed(&buf); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, cubeName), buf.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}

	const encoder = "append"
	s, err := serve.New(serve.Options{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	if progress != nil {
		progress(fmt.Sprintf("http: %s handler-only shapes", opts.Preset))
	}
	var handler []HTTPHandlerResult
	for _, sh := range handlerShapes(cubeName, cube) {
		r := measureHandler(s.Handler(), sh)
		r.Preset, r.Encoder = opts.Preset, encoder
		handler = append(handler, r)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := serve.NewHTTPServer("", s.Handler())
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	workloads := []struct {
		name string
		reqs [][]byte
	}{
		{"point", pointRequests(addr, cubeName, cube, 64)},
		{"mixed", mixedRequests(addr, cubeName, cube, 64)},
	}
	var out []HTTPResult
	for _, wl := range workloads {
		for _, conns := range opts.Conns {
			if progress != nil {
				progress(fmt.Sprintf("http: %s %s conns=%d", opts.Preset, wl.name, conns))
			}
			st, err := measureHTTP(addr, wl.reqs, conns, opts.Requests, opts.Warmup)
			if err != nil {
				return nil, nil, fmt.Errorf("http %s/%d: %w", wl.name, conns, err)
			}
			out = append(out, HTTPResult{
				Preset: opts.Preset, Encoder: encoder, Workload: wl.name,
				Connections: conns, Requests: st.requests,
				Seconds:          st.seconds,
				RequestsPerSec:   float64(st.requests) / st.seconds,
				AllocsPerReq:     float64(st.allocs) / float64(st.requests),
				AllocBytesPerReq: float64(st.bytes) / float64(st.requests),
				P50Micros:        st.percentile(0.50),
				P99Micros:        st.percentile(0.99),
				P999Micros:       st.percentile(0.999),
			})
		}
	}
	return out, handler, nil
}

// handlerShape is one request template for the handler-only benchmark.
type handlerShape struct {
	name   string
	method string
	path   string
	body   []byte
}

// handlerShapes builds the handler-only battery: the fully keyed point GET
// (the latency-critical dashboard shape) and a paged group-by POST.
func handlerShapes(cubeName string, cube *dwarf.Cube) []handlerShape {
	var keys []string
	cube.Tuples(func(k []string, _ dwarf.Aggregate) bool {
		keys = append([]string(nil), k...)
		return false
	})
	var path strings.Builder
	path.WriteString("/query/point?cube=")
	path.WriteString(cubeName)
	for _, k := range keys {
		path.WriteString("&key=")
		path.WriteString(url.QueryEscape(k))
	}
	dims := cube.Dims()
	dim := dims[len(dims)-1]
	for _, d := range dims {
		if d == "Station" {
			dim = d
		}
	}
	return []handlerShape{
		{name: "point", method: http.MethodGet, path: path.String()},
		{name: "groupby", method: http.MethodPost, path: "/query/groupby",
			body: []byte(fmt.Sprintf(`{"cube":%q,"dim":%q,"limit":50}`, cubeName, dim))},
	}
}

// nullResponseWriter satisfies http.ResponseWriter while discarding the
// body, so the benchmark counts only the handler's own work.
type nullResponseWriter struct {
	h http.Header
	n int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
func (w *nullResponseWriter) WriteHeader(int) {}

// measureHandler benchmarks h.ServeHTTP for one request shape. POST bodies
// are re-armed each iteration with a reused reader-over-bytes, which costs
// two allocations of its own.
func measureHandler(h http.Handler, sh handlerShape) HTTPHandlerResult {
	w := &nullResponseWriter{h: make(http.Header, 4)}
	req := httptest.NewRequest(sh.method, sh.path, nil)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sh.body != nil {
				req.Body = io.NopCloser(bytes.NewReader(sh.body))
				req.ContentLength = int64(len(sh.body))
			}
			h.ServeHTTP(w, req)
		}
	})
	return HTTPHandlerResult{
		Shape:       sh.name,
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

// pointRequests builds the GET point battery: real fact coordinates with
// rotating ALL wildcards, exactly the kernel benchmark's mix.
func pointRequests(addr, cubeName string, cube *dwarf.Cube, n int) [][]byte {
	var points [][]string
	cube.Tuples(func(keys []string, _ dwarf.Aggregate) bool {
		q := append([]string(nil), keys...)
		switch len(points) % 4 {
		case 1:
			q[len(q)-1] = dwarf.All
		case 2:
			q[len(q)-1], q[len(q)-2] = dwarf.All, dwarf.All
		case 3:
			q[0] = dwarf.All
		}
		points = append(points, q)
		return len(points) < n
	})
	var out [][]byte
	for _, keys := range points {
		var path strings.Builder
		path.WriteString("/query/point?cube=")
		path.WriteString(cubeName)
		for _, k := range keys {
			path.WriteString("&key=")
			path.WriteString(url.QueryEscape(k))
		}
		out = append(out, rawGET(addr, path.String()))
	}
	return out
}

// mixedRequests is the dashboard mix: mostly points, plus a paged group-by,
// a top-k, and a range per cycle.
func mixedRequests(addr, cubeName string, cube *dwarf.Cube, n int) [][]byte {
	out := pointRequests(addr, cubeName, cube, n)
	dims := cube.Dims()
	station := 0
	for i, d := range dims {
		if d == "Station" {
			station = i
		}
	}
	post := func(path, body string) {
		out = append(out, rawPOST(addr, path, body))
	}
	// One of each keyed shape per 8 points, spread through the list.
	for i := 0; i < len(out); i += 9 {
		post("/query/groupby", fmt.Sprintf(`{"cube":%q,"dim":%q,"limit":50}`, cubeName, dims[station]))
		post("/query/topk", fmt.Sprintf(`{"cube":%q,"dim":%q,"k":10,"by":"sum"}`, cubeName, dims[station]))
		post("/query/range", fmt.Sprintf(`{"cube":%q,"selectors":[{"lo":"area-1","hi":"area-6"}]}`, cubeName))
	}
	// Deterministic shuffle so shapes interleave instead of trailing.
	for i := len(out) - 1; i > 0; i-- {
		j := (i*2654435761 + 17) % (i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func rawGET(addr, path string) []byte {
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", path, addr))
}

func rawPOST(addr, path, body string) []byte {
	return []byte(fmt.Sprintf(
		"POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, addr, len(body), body))
}

// httpRunStats aggregates one measured run.
type httpRunStats struct {
	requests int
	seconds  float64
	allocs   uint64
	bytes    uint64
	latNs    []int64 // sorted ascending after the run
}

func (st *httpRunStats) percentile(q float64) float64 {
	if len(st.latNs) == 0 {
		return 0
	}
	i := int(q * float64(len(st.latNs)))
	if i >= len(st.latNs) {
		i = len(st.latNs) - 1
	}
	return float64(st.latNs[i]) / 1e3
}

// measureHTTP drives total requests over conns persistent connections and
// returns merged latencies plus the process-wide allocation delta.
func measureHTTP(addr string, reqs [][]byte, conns, total, warmup int) (*httpRunStats, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("no request templates")
	}
	if err := httpWorker(addr, reqs, warmup, 0, nil); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	perConn := total / conns
	if perConn < 1 {
		perConn = 1
	}
	lats := make([][]int64, conns)
	errs := make([]error, conns)
	for i := range lats {
		lats[i] = make([]int64, perConn)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = httpWorker(addr, reqs, perConn, i, lats[i])
		}(i)
	}
	wg.Wait()
	seconds := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	st := &httpRunStats{
		requests: perConn * conns,
		seconds:  seconds,
		allocs:   m1.Mallocs - m0.Mallocs,
		bytes:    m1.TotalAlloc - m0.TotalAlloc,
	}
	for _, l := range lats {
		st.latNs = append(st.latNs, l...)
	}
	sort.Slice(st.latNs, func(a, b int) bool { return st.latNs[a] < st.latNs[b] })
	return st, nil
}

// httpWorker owns one keep-alive connection: write request, read response,
// record latency. offset decorrelates the template cursor across workers.
func httpWorker(addr string, reqs [][]byte, n, offset int, latNs []int64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 16<<10)
	for i := 0; i < n; i++ {
		req := reqs[(i+offset)%len(reqs)]
		start := time.Now()
		if _, err := bw.Write(req); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := readHTTPResponse(br); err != nil {
			return err
		}
		if latNs != nil {
			latNs[i] = int64(time.Since(start))
		}
	}
	return nil
}

var (
	http200       = []byte("HTTP/1.1 200")
	hdrContentLen = []byte("content-length:")
	hdrChunked    = []byte("transfer-encoding:")
)

// readHTTPResponse consumes exactly one keep-alive response without
// allocating: status line, headers, then a Content-Length or chunked body.
// Non-200 statuses are load-generator bugs and fail the run.
func readHTTPResponse(br *bufio.Reader) error {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, http200) {
		return fmt.Errorf("response status %q", strings.TrimSpace(string(line)))
	}
	contentLen := -1
	chunked := false
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(line) <= 2 { // blank line: end of headers
			break
		}
		if len(line) > len(hdrContentLen) && asciiEqualFold(line[:len(hdrContentLen)], hdrContentLen) {
			contentLen = parseIntBytes(bytes.TrimSpace(line[len(hdrContentLen):]))
		} else if len(line) > len(hdrChunked) && asciiEqualFold(line[:len(hdrChunked)], hdrChunked) {
			chunked = bytes.Contains(line, []byte("chunked"))
		}
	}
	if chunked {
		return discardChunks(br)
	}
	if contentLen < 0 {
		return fmt.Errorf("response without content-length or chunking")
	}
	_, err = br.Discard(contentLen)
	return err
}

// discardChunks consumes a chunked body: hex size line, chunk, CRLF, until
// the zero chunk's trailing CRLF.
func discardChunks(br *bufio.Reader) error {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size := 0
		for _, c := range bytes.TrimSpace(line) {
			switch {
			case c >= '0' && c <= '9':
				size = size<<4 | int(c-'0')
			case c >= 'a' && c <= 'f':
				size = size<<4 | int(c-'a'+10)
			case c >= 'A' && c <= 'F':
				size = size<<4 | int(c-'A'+10)
			default:
				return fmt.Errorf("bad chunk size line %q", line)
			}
		}
		if _, err := br.Discard(size + 2); err != nil { // chunk + CRLF
			return err
		}
		if size == 0 {
			return nil
		}
	}
}

func asciiEqualFold(a, b []byte) bool {
	for i := range a {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

func parseIntBytes(b []byte) int {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// FormatHTTPLoad renders the load sweep.
func FormatHTTPLoad(results []HTTPResult) *Table {
	t := NewTable("HTTP serving path — append encoders over loopback TCP",
		"Dataset", "Encoder", "Workload", "Conns", "Requests", "req/s",
		"p50 µs", "p99 µs", "p99.9 µs", "allocs/req", "B/req")
	for _, r := range results {
		t.AddRow(r.Preset, r.Encoder, r.Workload,
			fmt.Sprintf("%d", r.Connections),
			fmt.Sprintf("%d", r.Requests),
			fmt.Sprintf("%.0f", r.RequestsPerSec),
			fmt.Sprintf("%.0f", r.P50Micros),
			fmt.Sprintf("%.0f", r.P99Micros),
			fmt.Sprintf("%.0f", r.P999Micros),
			fmt.Sprintf("%.1f", r.AllocsPerReq),
			fmt.Sprintf("%.0f", r.AllocBytesPerReq))
	}
	return t
}

// FormatHTTPHandler renders the handler-only figures, where the encoder's
// cost is visible without net/http's fixed per-connection overhead.
func FormatHTTPHandler(results []HTTPHandlerResult) *Table {
	t := NewTable("HTTP handler path only (no TCP / connection machinery)",
		"Dataset", "Encoder", "Shape", "ns/req", "allocs/req", "B/req")
	for _, r := range results {
		t.AddRow(r.Preset, r.Encoder, r.Shape,
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%d", r.AllocsPerOp),
			fmt.Sprintf("%d", r.BytesPerOp))
	}
	return t
}

// httpReport is the BENCH_http.json schema, the serving tier's counterpart
// to BENCH_query.json.
type httpReport struct {
	Experiment string              `json:"experiment"`
	Generated  string              `json:"generated"`
	GoMaxProcs int                 `json:"gomaxprocs"`
	Handler    []HTTPHandlerResult `json:"handler"`
	Results    []HTTPResult        `json:"results"`
}

// WriteHTTPJSON writes the load results as JSON to path.
func WriteHTTPJSON(path string, results []HTTPResult, handler []HTTPHandlerResult) error {
	rep := httpReport{
		Experiment: "http",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Handler:    handler,
		Results:    results,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
