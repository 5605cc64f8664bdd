// Package serve implements dwarfd's HTTP query service: a registry of
// encoded cube files served zero-copy through dwarf.CubeView, with a small
// LRU of hot views shared by all request handlers. Queries never decode the
// node graph — the paper's cubes are built once and queried many times, so
// the serving path reads the encoded bytes directly (§5.1's anticipated
// query-time argument, pushed to its logical end).
//
// Endpoints:
//
//	GET  /cubes                     registry of cube files + the hot cache
//	GET  /query/point?cube=N&key=K… point/ALL query, one key per dimension
//	POST /query/range               {"cube","selectors":[{…} per dimension]}
//	POST /query/groupby             {"cube","dim","selectors":[…],"limit","offset"}
//	POST /query/pivot               {"cube","dims":["Area",…],"selectors":[…],"limit","offset"}
//	POST /query/topk                {"cube","dim","selectors":[…],"k","by","threshold"}
//	POST /query/rollup              {"cube","keep":["Area",…],"limit","offset"}
//	GET  /stats?cube=N              node/cell counts off the encoded bytes
//
// Every handler programs against the shared query surface (query.Querier),
// which the unified kernel serves identically for static cube files
// (zero-copy CubeView) and the live store, so every endpoint works on both.
//
// With Options.Store set the server also runs in live mode: the reserved
// cube name "live" (Options.LiveName) routes every /query/* shape to the
// live source — a cubestore fanning out over sealed segments plus the
// memtable on dwarfd, a cluster.Coordinator scatter-gathering over dwarfd
// nodes behind dwarfgw — so answers reflect every acknowledged tuple, and
// more endpoints appear:
//
//	POST /ingest                    {"tuples":[{"dims":[…],"measure":…},…]}
//	GET  /store/stats               segment inventory, WAL position, counters (local store only)
//	GET  /cluster/stats             per-node health (sources that front nodes only)
//
// A live-only server (no Dir) also answers requests that omit "cube" from
// the live source.
//
// A selector is {"keys":[…]} for an explicit set, {"lo":…,"hi":…} for an
// inclusive range, or {} (or omitted trailing entries) for ALL.
//
// Keyed results (group-by, pivot, top-k, rollup) are paginated: at most
// Options.GroupLimit groups (DefaultGroupLimit when zero) are returned per
// response, in a deterministic order (key order; rank order for top-k), and
// "limit"/"offset" window into that order. "truncated": true means more
// groups remain after this window — clients page by advancing "offset"
// until it is false — and the total count always rides along, so a
// high-cardinality dimension can never produce an unbounded response body.
//
// A query body may set "allow_partial": true. Against a source merged from
// independently failing backends (the cluster coordinator), a query that
// fails because backends failed is then re-run over the survivors and the
// answer is marked "partial": true with the "failed_nodes" list; without
// the flag such a failure is a 502 naming every failed backend.
//
// Responses are produced by the hand-rolled appenders in encode.go —
// pooled buffers, no reflection, paged rows streamed straight out of the
// kernel's results — byte-identical to encoding/json over the typed
// envelopes the test suite keeps as its oracle. See docs/SERVING.md for
// the encoding contract.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cubestore"
	"repro/internal/dwarf"
	"repro/internal/query"
)

// DefaultCacheSize is the LRU capacity when Options.CacheSize is zero.
const DefaultCacheSize = 8

// DefaultGroupLimit caps how many groups one group-by/top-k/rollup response
// may carry when Options.GroupLimit is zero. Clients page through larger
// results with "limit" and "offset".
const DefaultGroupLimit = 1000

// DefaultLiveName is the reserved cube name routing queries to the live
// store when Options.LiveName is empty.
const DefaultLiveName = "live"

// maxQueryBodyBytes bounds /query/* request bodies; maxIngestBodyBytes
// bounds /ingest batches. Oversized bodies get a clean 413.
const (
	maxQueryBodyBytes  = 1 << 20
	maxIngestBodyBytes = 64 << 20
)

// Options configures a Server.
type Options struct {
	// Dir is the directory of .dwarf cube files served by base name. It may
	// be empty when Store is set (live-only serving).
	Dir string
	// CacheSize caps the hot-view LRU (DefaultCacheSize when zero).
	CacheSize int
	// Store, when set, enables live mode: /ingest appends to it and the
	// LiveName cube answers queries over it. A *cubestore.Store also gets
	// /store/stats and store generations on /query/partial.
	Store Source
	// LiveName is the reserved cube name for the live store
	// (DefaultLiveName when empty).
	LiveName string
	// GroupLimit caps the groups per keyed-query response
	// (DefaultGroupLimit when zero).
	GroupLimit int
	// ClusterNode additionally mounts POST /query/partial — the compact,
	// unpaged per-node wire format a cluster coordinator scatter-gathers
	// over (internal/cluster, docs/CLUSTER.md). Off by default: partial
	// responses carry full group maps with no paging cap, so the endpoint
	// is only for dwarfd processes fronted by a coordinator.
	ClusterNode bool
	// TimeDim, when set, names the dimension a request's "window" parameter
	// compiles against: window "24h" becomes an inclusive range selector
	// [now-24h, now] on that dimension. The dimension's keys must be
	// timestamps formatted with TimeLayout (a Go time layout, e.g.
	// "2006-01-02") so lexicographic key order equals time order.
	TimeDim string
	// TimeLayout is the Go time layout TimeDim keys are formatted with.
	// Required when TimeDim is set.
	TimeLayout string
	// Now overrides the clock windows are anchored to; time.Now when nil.
	// Tests pin it for deterministic windows.
	Now func() time.Time
}

// Source is a live dataset the server queries and appends to: a
// *cubestore.Store on dwarfd, a cluster coordinator behind dwarfgw.
type Source interface {
	query.Querier
	Append([]dwarf.Tuple) error
}

// survivable is implemented by sources merged from independently failing
// backends. Survivors is asked only after a strict run failed with err on a
// request that set allow_partial: it returns a source over the backends
// that did not fail plus the failed backends' names, or ok false when err
// is not a backend failure or no backend survived.
type survivable interface {
	Survivors(err error) (alive query.Querier, failed []string, ok bool)
}

// NodeStatus is one backend's health on /cluster/stats.
type NodeStatus struct {
	Node       string `json:"node"`
	OK         bool   `json:"ok"`
	Generation uint64 `json:"generation,omitempty"`
	Error      string `json:"error,omitempty"`
}

// nodeReporter is implemented by sources that front other servers;
// the server then mounts /cluster/stats.
type nodeReporter interface {
	NodeStats() []NodeStatus
}

// ErrUpstream marks a failure of a backend the live source fronts (a
// cluster node): the request was fine but no answer could be assembled.
// Errors matching it map to 502.
var ErrUpstream = errors.New("serve: upstream failure")

// Server answers cube queries over HTTP straight off encoded cube files
// and, in live mode, straight off a live source.
type Server struct {
	dir         string
	cache       *viewCache
	store       Source
	local       *cubestore.Store // store, when it is a local cubestore
	liveName    string
	groupLimit  int
	clusterNode bool
	timeDim     string
	timeLayout  string
	now         func() time.Time
}

// New builds a Server over opts.Dir (which must exist when set) and/or the
// live store.
func New(opts Options) (*Server, error) {
	if opts.Dir == "" && opts.Store == nil {
		return nil, errors.New("serve: neither cube directory nor live store set")
	}
	if opts.Dir != "" {
		st, err := os.Stat(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if !st.IsDir() {
			return nil, fmt.Errorf("serve: %s is not a directory", opts.Dir)
		}
	}
	size := opts.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	liveName := opts.LiveName
	if liveName == "" {
		liveName = DefaultLiveName
	}
	limit := opts.GroupLimit
	if limit <= 0 {
		limit = DefaultGroupLimit
	}
	if opts.TimeDim != "" && opts.TimeLayout == "" {
		return nil, errors.New("serve: TimeDim set without TimeLayout")
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	local, _ := opts.Store.(*cubestore.Store)
	return &Server{
		dir: opts.Dir, cache: newViewCache(size),
		store: opts.Store, local: local, liveName: liveName, groupLimit: limit,
		clusterNode: opts.ClusterNode, timeDim: opts.TimeDim, timeLayout: opts.TimeLayout, now: now,
	}, nil
}

// Warm pre-opens the named cube files into the hot-view LRU so the first
// request after startup pays no cold read. The live name is skipped (the
// store needs no warming); any other unloadable name fails loudly — a
// misspelled -warm argument should stop the process, not serve cold.
func (s *Server) Warm(names []string) error {
	for _, name := range names {
		if s.isLive(name) {
			continue
		}
		if _, err := s.view(name); err != nil {
			return fmt.Errorf("serve: warming %q: %w", name, err)
		}
	}
	return nil
}

// NewHTTPServer wraps handler in an http.Server with the serving tier's
// timeout policy: a short header-read deadline (slow or stalled clients get
// net/http's clean 408 instead of holding a connection open), bounded
// request/response lifetimes sized for the largest allowed ingest batch,
// and idle keep-alive reaping.
func NewHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// ListenAndServe runs a Server at addr until the listener fails.
func ListenAndServe(addr string, opts Options) error {
	s, err := New(opts)
	if err != nil {
		return err
	}
	return NewHTTPServer(addr, s.Handler()).ListenAndServe()
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cubes", s.handleCubes)
	mux.HandleFunc("/query/point", s.handlePoint)
	mux.HandleFunc("/query/range", s.handleRange)
	mux.HandleFunc("/query/groupby", s.handleGroupBy)
	mux.HandleFunc("/query/pivot", s.handlePivot)
	mux.HandleFunc("/query/topk", s.handleTopK)
	mux.HandleFunc("/query/rollup", s.handleRollUp)
	mux.HandleFunc("/stats", s.handleStats)
	if s.clusterNode {
		mux.HandleFunc("/query/partial", s.handlePartial)
	}
	if s.store != nil {
		mux.HandleFunc("/ingest", s.handleIngest)
	}
	if s.local != nil {
		mux.HandleFunc("/store/stats", s.handleStoreStats)
	}
	if nr, ok := s.store.(nodeReporter); ok {
		mux.HandleFunc("/cluster/stats", func(w http.ResponseWriter, r *http.Request) {
			buf := getBuf()
			*buf = appendClusterStatsResponse((*buf)[:0], s.store.Dims(), nr.NodeStats())
			send(w, http.StatusOK, buf)
		})
	}
	return mux
}

// httpError carries a status code out of the load/parse helpers.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errStatus maps an error to its response status.
func errStatus(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, os.ErrNotExist):
		return http.StatusNotFound
	case errors.Is(err, dwarf.ErrBadQuery),
		errors.Is(err, dwarf.ErrDimMismatch),
		errors.Is(err, dwarf.ErrReservedKey),
		errors.Is(err, dwarf.ErrNotFiniteValue),
		errors.Is(err, query.ErrUnknownDim):
		return http.StatusBadRequest
	case errors.Is(err, cubestore.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, dwarf.ErrCorruptCube), errors.Is(err, dwarf.ErrBadMagic), errors.Is(err, dwarf.ErrBadVersion),
		errors.Is(err, ErrUpstream):
		// The file on disk is not a servable cube, or a backend failed:
		// the client didn't err, what the server fronts did.
		return http.StatusBadGateway
	}
	return http.StatusInternalServerError
}

// fail writes the error envelope with the mapped status.
func (s *Server) fail(w http.ResponseWriter, err error) {
	buf := getBuf()
	*buf = appendErrorResponse((*buf)[:0], err.Error())
	send(w, errStatus(err), buf)
}

// jsonContentType is the shared Content-Type header value: assigning the
// slice directly skips Header.Set's per-request []string allocation. The
// slice is never mutated.
var jsonContentType = []string{"application/json"}

// send writes one fully-encoded response body and recycles its buffer.
func send(w http.ResponseWriter, status int, buf *[]byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(*buf)))
	w.WriteHeader(status)
	w.Write(*buf)
	putBuf(buf)
}

// view resolves a cube name to a (possibly cached) CubeView. Names are
// confined to base names inside the serving directory; a bare name without
// extension falls back to name.dwarf. Cached entries are revalidated
// against the file's size and mtime, so an atomically replaced cube file
// (WriteCubeFile) is picked up on the next request.
//
// Views are deliberately backed by a heap copy (ReadFile) rather than the
// mmap path: an evicted heap view stays valid for in-flight readers until
// the GC collects it, whereas unmapping under a concurrent reader would
// fault. Trailer-carrying files skip the payload checksum the same way
// OpenViewFile does — the trailer is validated and every query stays
// bounds-checked.
func (s *Server) view(name string) (*dwarf.CubeView, error) {
	if name == "" {
		return nil, badRequest("missing cube parameter")
	}
	if s.dir == "" {
		// Live-only server: never resolve file names relative to the
		// process working directory.
		return nil, badRequest("cube %q not found (live-only server serves %q)", name, s.liveName)
	}
	if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		return nil, badRequest("cube name %q must be a plain file name", name)
	}
	// The cached entry carries its precomputed path, so the steady-state
	// request does one stat and no string building.
	path, cached := s.cache.path(name)
	if !cached {
		path = filepath.Join(s.dir, name)
	}
	size, modTime, err := statFile(path)
	if errors.Is(err, os.ErrNotExist) && filepath.Ext(name) == "" {
		return s.view(name + ".dwarf")
	}
	if err != nil {
		return nil, err
	}
	if v, ok := s.cache.get(name, size, modTime); ok {
		return v, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v *dwarf.CubeView
	if dwarf.HasOffsetTrailer(data) {
		v, err = dwarf.OpenViewTrusted(data)
	} else {
		v, err = dwarf.OpenView(data)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s.cache.add(name, path, v, size, modTime), nil
}

// isLive reports whether a cube name addresses the live source: the
// reserved live name, or no name at all on a live-only server.
func (s *Server) isLive(name string) bool {
	return s.store != nil && (name == s.liveName || name == "" && s.dir == "")
}

// source resolves a cube name to its query target — the live source for
// the live name, a (cached) file-backed view otherwise — as the shared
// engine surface (query.Querier) every /query/* handler is written against.
func (s *Server) source(name string) (query.Querier, error) {
	if s.isLive(name) {
		return s.store, nil
	}
	return s.view(name)
}

// target is what every /query/* body names: the cube, and whether an
// answer over surviving backends is acceptable when some fail.
type target struct {
	Cube         string `json:"cube"`
	AllowPartial bool   `json:"allow_partial,omitempty"`
}

// answer runs fn over v. When fn fails and the request set allowPartial
// over a survivable source, fn re-runs over the surviving backends and the
// failed ones are returned for the envelope's partial marking; an answer
// over zero backends is never a partial answer, so that stays an error.
func answer[T any](v query.Querier, allowPartial bool, fn func(query.Querier) (T, error)) (T, []string, error) {
	res, err := fn(v)
	if err == nil || !allowPartial {
		return res, nil, err
	}
	sv, ok := v.(survivable)
	if !ok {
		return res, nil, err
	}
	alive, failed, ok := sv.Survivors(err)
	if !ok {
		return res, nil, err
	}
	res, err = fn(alive)
	return res, failed, err
}

// sendAnswer sends a finished 200 envelope, marked partial when backends
// failed.
func sendAnswer(w http.ResponseWriter, buf *[]byte, failed []string) {
	*buf = appendPartialMark(*buf, failed)
	send(w, http.StatusOK, buf)
}

// selectorSpec is the wire form of a dwarf.Selector.
type selectorSpec struct {
	Keys []string `json:"keys,omitempty"`
	Lo   *string  `json:"lo,omitempty"`
	Hi   *string  `json:"hi,omitempty"`
}

func (sp selectorSpec) selector(i int) (dwarf.Selector, error) {
	switch {
	case sp.Lo != nil || sp.Hi != nil:
		if sp.Lo == nil || sp.Hi == nil || len(sp.Keys) > 0 {
			return dwarf.Selector{}, badRequest("selector %d: a range needs lo and hi and no keys", i)
		}
		return dwarf.SelectRange(*sp.Lo, *sp.Hi), nil
	case len(sp.Keys) > 0:
		return dwarf.SelectKeys(sp.Keys...), nil
	default:
		return dwarf.SelectAll(), nil
	}
}

// selectors pads missing trailing specs with ALL so clients can send only
// the dimensions they restrict.
func selectors(specs []selectorSpec, ndims int) ([]dwarf.Selector, error) {
	if len(specs) > ndims {
		return nil, badRequest("got %d selectors, cube has %d dimensions", len(specs), ndims)
	}
	out := make([]dwarf.Selector, ndims)
	for i, sp := range specs {
		sel, err := sp.selector(i)
		if err != nil {
			return nil, err
		}
		out[i] = sel
	}
	return out, nil
}

// applyWindow compiles a request's "window" duration into an inclusive
// range selector [now-window, now] on the server's time dimension, in
// place. The window composes with the other dimensions' selectors but
// conflicts with an explicit selector on the time dimension itself — the
// request is ambiguous, so it is rejected rather than silently merged.
func (s *Server) applyWindow(q query.Querier, sels []dwarf.Selector, win string) error {
	if win == "" {
		return nil
	}
	if s.timeDim == "" {
		return badRequest("window given but the server has no time dimension configured")
	}
	idx, err := query.DimIndex(q, s.timeDim)
	if err != nil {
		return badRequest("window: cube has no %q dimension (have %v)", s.timeDim, q.Dims())
	}
	if sels[idx].HasRange || len(sels[idx].Keys) > 0 {
		return badRequest("window conflicts with an explicit selector on %q", s.timeDim)
	}
	d, err := parseWindow(win)
	if err != nil {
		return err
	}
	now := s.now()
	sels[idx] = dwarf.SelectRange(now.Add(-d).Format(s.timeLayout), now.Format(s.timeLayout))
	return nil
}

// parseWindow accepts time.ParseDuration forms ("90m", "24h") plus a day
// suffix ("7d"), which ParseDuration lacks.
func parseWindow(win string) (time.Duration, error) {
	if n, ok := strings.CutSuffix(win, "d"); ok {
		if days, err := strconv.Atoi(n); err == nil && days > 0 {
			return time.Duration(days) * 24 * time.Hour, nil
		}
		return 0, badRequest("bad window %q: want a positive duration like 24h or 7d", win)
	}
	d, err := time.ParseDuration(win)
	if err != nil || d <= 0 {
		return 0, badRequest("bad window %q: want a positive duration like 24h or 7d", win)
	}
	return d, nil
}

// decodeBody decodes a bounded JSON request body. Bodies over limit map to
// 413 (and net/http closes the connection); malformed JSON maps to 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &httpError{
				status: http.StatusRequestEntityTooLarge,
				msg:    fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
			}
		}
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// cubeInfo is one registry row in the /cubes response.
type cubeInfo struct {
	Name      string `json:"name"`
	SizeBytes int64  `json:"size_bytes"`
	Indexed   bool   `json:"indexed"`
	Loaded    bool   `json:"loaded"`
}

// handleCubes lists the registry: every cube file in the serving directory
// plus the current hot cache, MRU first, plus the live cube when the server
// fronts a store.
func (s *Server) handleCubes(w http.ResponseWriter, r *http.Request) {
	cubes := []cubeInfo{}
	if s.dir != "" {
		entries, err := os.ReadDir(s.dir)
		if err != nil {
			s.fail(w, err)
			return
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".dwarf") {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			cubes = append(cubes, cubeInfo{
				Name:      e.Name(),
				SizeBytes: info.Size(),
				Indexed:   fileHasTrailer(filepath.Join(s.dir, e.Name())),
				Loaded:    s.cache.lookup(e.Name()),
			})
		}
		sort.Slice(cubes, func(i, j int) bool { return cubes[i].Name < cubes[j].Name })
	}
	live := ""
	if s.store != nil {
		live = s.liveName
	}
	buf := getBuf()
	*buf = appendCubesResponse((*buf)[:0], s.dir, cubes, s.cache.snapshot(), live, s.store != nil)
	send(w, http.StatusOK, buf)
}

// fileHasTrailer peeks at the file's last bytes for the v2 trailer magic —
// a display hint, not a validation (OpenView does that). Streams written
// since zone maps end with the v3 metadata section instead, so when the
// tail carries the v3 magic the check walks one self-describing section
// back and looks for the v2 magic there.
func fileHasTrailer(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() < 16 {
		return false
	}
	end := st.Size()
	var tail [8]byte
	if _, err := f.ReadAt(tail[:], end-8); err != nil {
		return false
	}
	if string(tail[:]) == "DWRFMET3" {
		var lenWord [4]byte
		if _, err := f.ReadAt(lenWord[:], end-12); err != nil {
			return false
		}
		end -= int64(binary.LittleEndian.Uint32(lenWord[:])) + 16
		if end < 16 {
			return false
		}
		if _, err := f.ReadAt(tail[:], end-8); err != nil {
			return false
		}
	}
	return string(tail[:]) == "DWRFNDX2"
}

// pointRequest is the POST form of /query/point.
type pointRequest struct {
	target
	Keys []string `json:"keys"`
}

// pointArgs is pooled scratch for the GET /query/point parameter parse, so
// the hot read path never materializes a url.Values map.
type pointArgs struct {
	keys []string
}

var pointArgsPool = sync.Pool{New: func() any { return &pointArgs{} }}

// parsePointQuery extracts cube and keys from a raw query string with
// url.ParseQuery's exact semantics — pairs containing ';' or failing to
// unescape are skipped, first value wins for single-valued parameters —
// without building a map. Returned strings alias rawQuery unless they
// needed unescaping; the keys slice is p's, recycled across requests.
func parsePointQuery(rawQuery string, p *pointArgs) (cube string, keys []string) {
	p.keys = p.keys[:0]
	var cubeSet, csvSet bool
	var keysCSV string
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		rawK, rawV, _ := strings.Cut(pair, "=")
		k, ok := unescapeQueryComponent(rawK)
		if !ok {
			continue
		}
		v, ok := unescapeQueryComponent(rawV)
		if !ok {
			continue
		}
		switch k {
		case "cube":
			if !cubeSet {
				cube, cubeSet = v, true
			}
		case "key":
			p.keys = append(p.keys, v)
		case "keys":
			if !csvSet {
				keysCSV, csvSet = v, true
			}
		}
	}
	if len(p.keys) == 0 && keysCSV != "" {
		for rest := keysCSV; ; {
			k, after, found := strings.Cut(rest, ",")
			p.keys = append(p.keys, k)
			if !found {
				break
			}
			rest = after
		}
	}
	if len(p.keys) == 0 {
		// No key parameters at all: keep the historical null (nil slice)
		// in the response, not [].
		return cube, nil
	}
	return cube, p.keys
}

// unescapeQueryComponent is url.QueryUnescape with a zero-allocation pass
// for the common unescaped case.
func unescapeQueryComponent(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	out, err := url.QueryUnescape(s)
	if err != nil {
		return "", false
	}
	return out, true
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	var cube string
	var keys []string
	var allowPartial bool
	if r.Method == http.MethodPost {
		var req pointRequest
		if err := decodeBody(w, r, &req, maxQueryBodyBytes); err != nil {
			s.fail(w, err)
			return
		}
		cube, keys, allowPartial = req.Cube, req.Keys, req.AllowPartial
	} else {
		pa := pointArgsPool.Get().(*pointArgs)
		defer pointArgsPool.Put(pa)
		cube, keys = parsePointQuery(r.URL.RawQuery, pa)
	}
	v, err := s.source(cube)
	if err != nil {
		s.fail(w, err)
		return
	}
	agg, failed, err := answer(v, allowPartial, func(q query.Querier) (dwarf.Aggregate, error) {
		return q.Point(keys...)
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	buf := getBuf()
	*buf = appendPointResponse((*buf)[:0], cube, keys, agg)
	sendAnswer(w, buf, failed)
}

// rangeRequest is the body of /query/range. Window, when set, is a
// trailing-duration shorthand ("24h", "7d") compiled into a range selector
// on the server's time dimension (Options.TimeDim).
type rangeRequest struct {
	target
	Selectors []selectorSpec `json:"selectors"`
	Window    string         `json:"window,omitempty"`
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, badRequest("POST a JSON body to /query/range"))
		return
	}
	var req rangeRequest
	if err := decodeBody(w, r, &req, maxQueryBodyBytes); err != nil {
		s.fail(w, err)
		return
	}
	v, err := s.source(req.Cube)
	if err != nil {
		s.fail(w, err)
		return
	}
	sels, err := selectors(req.Selectors, v.NumDims())
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := s.applyWindow(v, sels, req.Window); err != nil {
		s.fail(w, err)
		return
	}
	agg, failed, err := answer(v, req.AllowPartial, func(q query.Querier) (dwarf.Aggregate, error) {
		return q.Range(sels)
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	buf := getBuf()
	*buf = appendRangeResponse((*buf)[:0], req.Cube, agg)
	sendAnswer(w, buf, failed)
}

// page bounds one keyed response: the requested offset into the result's
// deterministic order plus the requested limit, clamped to the server cap.
type page struct {
	Limit  int `json:"limit,omitempty"`
	Offset int `json:"offset,omitempty"`
}

// clamp resolves the effective window against the server's group cap.
func (p page) clamp(cap int) (offset, limit int, err error) {
	if p.Offset < 0 || p.Limit < 0 {
		return 0, 0, badRequest("limit and offset must be non-negative")
	}
	limit = p.Limit
	if limit == 0 || limit > cap {
		limit = cap
	}
	return p.Offset, limit, nil
}

// window cuts rows to [offset, offset+limit). truncated reports that rows
// remain AFTER the window, so a paging client advances offset exactly while
// truncated is true and terminates on the final (or past-the-end) page.
func window[T any](rows []T, offset, limit int) (out []T, truncated bool) {
	if offset >= len(rows) {
		return nil, false
	}
	rows = rows[offset:]
	if len(rows) > limit {
		return rows[:limit], true
	}
	return rows, false
}

// dimIndex resolves a request's dimension field: a dimension name or a
// 0-based index rendered as a string.
func dimIndex(q query.Querier, field string) (int, error) {
	if n, err := strconv.Atoi(field); err == nil {
		return n, nil
	}
	idx, err := query.DimIndex(q, field)
	if err != nil {
		return -1, badRequest("unknown dimension %q (have %v)", field, q.Dims())
	}
	return idx, nil
}

// groupByRequest is the body of /query/groupby. Dim is a dimension name or
// a 0-based index rendered as a string.
type groupByRequest struct {
	target
	Dim       string         `json:"dim"`
	Selectors []selectorSpec `json:"selectors"`
	Window    string         `json:"window,omitempty"`
	page
}

func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, badRequest("POST a JSON body to /query/groupby"))
		return
	}
	var req groupByRequest
	if err := decodeBody(w, r, &req, maxQueryBodyBytes); err != nil {
		s.fail(w, err)
		return
	}
	v, err := s.source(req.Cube)
	if err != nil {
		s.fail(w, err)
		return
	}
	dim, err := dimIndex(v, req.Dim)
	if err != nil {
		s.fail(w, err)
		return
	}
	offset, limit, err := req.clamp(s.groupLimit)
	if err != nil {
		s.fail(w, err)
		return
	}
	sels, err := selectors(req.Selectors, v.NumDims())
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := s.applyWindow(v, sels, req.Window); err != nil {
		s.fail(w, err)
		return
	}
	groups, failed, err := answer(v, req.AllowPartial, func(q query.Querier) (map[string]dwarf.Aggregate, error) {
		return q.GroupBy(dim, sels)
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	// The page windows over key-sorted order, so offsets are deterministic.
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pageKeys, truncated := window(keys, offset, limit)
	buf := getBuf()
	*buf = appendGroupByResponse((*buf)[:0], req.Cube, v.Dims()[dim], pageKeys, groups,
		len(groups), offset, limit, truncated)
	sendAnswer(w, buf, failed)
}

// topKRequest is the body of /query/topk. By is a metric name (sum, count,
// min, max, avg; sum when empty); Threshold, when present, is the iceberg
// floor applied before the K cut.
type topKRequest struct {
	target
	Dim       string         `json:"dim"`
	Selectors []selectorSpec `json:"selectors"`
	K         int            `json:"k"`
	By        string         `json:"by"`
	Threshold *float64       `json:"threshold"`
	Window    string         `json:"window,omitempty"`
	page
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, badRequest("POST a JSON body to /query/topk"))
		return
	}
	var req topKRequest
	if err := decodeBody(w, r, &req, maxQueryBodyBytes); err != nil {
		s.fail(w, err)
		return
	}
	v, err := s.source(req.Cube)
	if err != nil {
		s.fail(w, err)
		return
	}
	dim, err := dimIndex(v, req.Dim)
	if err != nil {
		s.fail(w, err)
		return
	}
	offset, limit, err := req.clamp(s.groupLimit)
	if err != nil {
		s.fail(w, err)
		return
	}
	if req.K < 0 {
		s.fail(w, badRequest("k must be non-negative"))
		return
	}
	by, err := dwarf.ParseMetric(req.By)
	if err != nil {
		s.fail(w, err)
		return
	}
	sels, err := selectors(req.Selectors, v.NumDims())
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := s.applyWindow(v, sels, req.Window); err != nil {
		s.fail(w, err)
		return
	}
	spec := dwarf.TopKSpec{K: req.K, By: by}
	if req.Threshold != nil {
		spec.Threshold, spec.HasThreshold = *req.Threshold, true
	}
	entries, failed, err := answer(v, req.AllowPartial, func(q query.Querier) ([]dwarf.GroupEntry, error) {
		return q.TopK(dim, sels, spec)
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	pageEntries, truncated := window(entries, offset, limit)
	buf := getBuf()
	*buf = appendTopKResponse((*buf)[:0], req.Cube, v.Dims()[dim], by, pageEntries,
		len(entries), offset, limit, truncated)
	sendAnswer(w, buf, failed)
}

// writeRows emits the shared keyed-rows envelope for one page of
// pivot-shaped results.
func writeRows(w http.ResponseWriter, cube string, dims []string, rows []dwarf.PivotGroup,
	offset, limit int, failed []string) {

	pageRows, truncated := window(rows, offset, limit)
	buf := getBuf()
	*buf = appendRowsResponse((*buf)[:0], cube, dims, pageRows, len(rows), offset, limit, truncated)
	sendAnswer(w, buf, failed)
}

// rollUpRequest is the body of /query/rollup: the named dimensions to keep;
// all others are aggregated away through their ALL cells.
type rollUpRequest struct {
	target
	Keep []string `json:"keep"`
	page
}

func (s *Server) handleRollUp(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, badRequest("POST a JSON body to /query/rollup"))
		return
	}
	var req rollUpRequest
	if err := decodeBody(w, r, &req, maxQueryBodyBytes); err != nil {
		s.fail(w, err)
		return
	}
	v, err := s.source(req.Cube)
	if err != nil {
		s.fail(w, err)
		return
	}
	offset, limit, err := req.clamp(s.groupLimit)
	if err != nil {
		s.fail(w, err)
		return
	}
	var dims []string
	rows, failed, err := answer(v, req.AllowPartial, func(q query.Querier) (rows []dwarf.PivotGroup, err error) {
		dims, rows, err = query.RollUp(q, req.Keep...)
		return rows, err
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	writeRows(w, req.Cube, dims, rows, offset, limit, failed)
}

// pivotRequest is the body of /query/pivot: the dimensions to group by
// (names or 0-based indexes rendered as strings), in output-column order.
type pivotRequest struct {
	target
	Dims      []string       `json:"dims"`
	Selectors []selectorSpec `json:"selectors"`
	Window    string         `json:"window,omitempty"`
	page
}

// handlePivot is the multi-dimension group-by: one keyed row per distinct
// combination over the requested dimensions, sorted by keys, paged like
// rollup (whose envelope it shares).
func (s *Server) handlePivot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, badRequest("POST a JSON body to /query/pivot"))
		return
	}
	var req pivotRequest
	if err := decodeBody(w, r, &req, maxQueryBodyBytes); err != nil {
		s.fail(w, err)
		return
	}
	v, err := s.source(req.Cube)
	if err != nil {
		s.fail(w, err)
		return
	}
	offset, limit, err := req.clamp(s.groupLimit)
	if err != nil {
		s.fail(w, err)
		return
	}
	dims := make([]int, len(req.Dims))
	for i, d := range req.Dims {
		if dims[i], err = dimIndex(v, d); err != nil {
			s.fail(w, err)
			return
		}
	}
	sels, err := selectors(req.Selectors, v.NumDims())
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := s.applyWindow(v, sels, req.Window); err != nil {
		s.fail(w, err)
		return
	}
	rows, failed, err := answer(v, req.AllowPartial, func(q query.Querier) ([]dwarf.PivotGroup, error) {
		return q.Pivot(dims, sels)
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	// Pivot validated every index, so naming the columns is now safe.
	allDims := v.Dims()
	names := make([]string, len(dims))
	for i, idx := range dims {
		names[i] = allDims[idx]
	}
	writeRows(w, req.Cube, names, rows, offset, limit, failed)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cube := r.URL.Query().Get("cube")
	if s.isLive(cube) {
		if s.local == nil {
			s.fail(w, badRequest("cube %q is not a local store: no store stats here", cube))
			return
		}
		s.handleStoreStats(w, r)
		return
	}
	v, err := s.view(cube)
	if err != nil {
		s.fail(w, err)
		return
	}
	st, err := v.Stats()
	if err != nil {
		s.fail(w, err)
		return
	}
	buf := getBuf()
	*buf = appendStatsResponse((*buf)[:0], cube, v.Dims(), v.NumSourceTuples(),
		v.Indexed(), v.EncodedBytes(), st)
	send(w, http.StatusOK, buf)
}

// tupleSpec is the wire form of one fact tuple.
type tupleSpec struct {
	Dims    []string `json:"dims"`
	Measure float64  `json:"measure"`
}

// ingestRequest is the body of POST /ingest.
type ingestRequest struct {
	Tuples []tupleSpec `json:"tuples"`
}

// handleIngest appends one batch to the live source. When it responds 200
// the batch is durable (store fsync policy permitting) and visible to every
// subsequent /query/* against the live cube. The ack carries the store's
// total_tuples only for a local store: a cluster would need a second round
// trip to every node to know it.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, badRequest("POST a JSON body to /ingest"))
		return
	}
	var req ingestRequest
	if err := decodeBody(w, r, &req, maxIngestBodyBytes); err != nil {
		s.fail(w, err)
		return
	}
	if len(req.Tuples) == 0 {
		s.fail(w, badRequest("no tuples in batch"))
		return
	}
	batch := make([]dwarf.Tuple, len(req.Tuples))
	for i, t := range req.Tuples {
		batch[i] = dwarf.Tuple{Dims: t.Dims, Measure: t.Measure}
	}
	if err := s.store.Append(batch); err != nil {
		s.fail(w, err)
		return
	}
	total := -1
	if s.local != nil {
		total = s.local.TotalTuples()
	}
	buf := getBuf()
	*buf = appendIngestResponse((*buf)[:0], len(batch), total)
	send(w, http.StatusOK, buf)
}

// handleStoreStats reports the live store's shape: segment inventory with
// compaction levels, live/sealed tuple counts, WAL position and lifetime
// seal/compaction counters.
func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	buf := getBuf()
	*buf = appendStoreStatsResponse((*buf)[:0], s.liveName, s.local.Stats())
	send(w, http.StatusOK, buf)
}
