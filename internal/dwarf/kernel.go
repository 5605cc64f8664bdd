package dwarf

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"unsafe"
)

// This file is the unified query kernel: every query shape is implemented
// exactly once, against the Source cursor interface, and therefore answers
// identically over the in-memory node graph (*Cube), the zero-copy encoded
// view (*CubeView) and — via per-target fan-out plus partial merging in
// internal/cubestore — the live store. The exported methods on Cube and
// CubeView (query.go, view.go) are thin wrappers over these functions.
//
// Allocation discipline: walks keep all traversal state (one CellIter per
// level) in a fixed-size kernelState that escape analysis keeps on the
// stack, so zero-copy queries allocate nothing per node visited; only
// result containers (group maps, cloned group keys) and oversized-arity
// fallbacks allocate.

// kernelMaxDims is the dimension count the stack-resident iterator array
// covers; wider cubes fall back to one heap allocation per query.
const kernelMaxDims = 16

// kernelState is the reusable traversal state of one kernel walk.
type kernelState struct {
	src   Source
	ndims int
	sels  []Selector
	// keysets[d] is sels[d].Keys deduplicated (first occurrence wins), so
	// the dedup work and its allocation happen once per query, not once per
	// node visited.
	keysets  [][]string
	itersBuf [kernelMaxDims]CellIter
	iters    []CellIter
}

func (w *kernelState) init(src Source, sels []Selector) {
	w.src = src
	w.ndims = src.NumDims()
	w.sels = sels
	if w.ndims <= kernelMaxDims {
		w.iters = w.itersBuf[:w.ndims]
	} else {
		w.iters = make([]CellIter, w.ndims)
	}
	for d, sel := range sels {
		if len(sel.Keys) == 0 {
			continue
		}
		if w.keysets == nil {
			w.keysets = make([][]string, w.ndims)
		}
		w.keysets[d] = dedupKeys(sel.Keys)
	}
}

// dedupKeys drops repeated keys, keeping first occurrences in order. The
// common duplicate-free case returns the input slice unchanged.
func dedupKeys(keys []string) []string {
	for i := 1; i < len(keys); i++ {
		for j := 0; j < i; j++ {
			if keys[i] == keys[j] {
				// Rare path: rebuild without duplicates.
				out := make([]string, 0, len(keys)-1)
				out = append(out, keys[:i]...)
				for _, k := range keys[i+1:] {
					seen := false
					for _, have := range out {
						if k == have {
							seen = true
							break
						}
					}
					if !seen {
						out = append(out, k)
					}
				}
				return out
			}
		}
	}
	return keys
}

func badQueryArity(got, want int) error {
	return fmt.Errorf("%w: got %d selectors, cube has %d dimensions", ErrBadQuery, got, want)
}

// ---- Point ----

// QueryPoint answers a point or ALL-wildcard query — one key per dimension,
// where the reserved All key aggregates over that dimension — against any
// Source. Absent combinations yield the zero Aggregate; errors are reserved
// for malformed queries and corrupt streams.
func QueryPoint(src Source, keys ...string) (Aggregate, error) {
	ndims := src.NumDims()
	if len(keys) != ndims {
		return Aggregate{}, fmt.Errorf("%w: got %d keys, cube has %d dimensions", ErrBadQuery, len(keys), ndims)
	}
	cur, err := src.SourceRoot()
	if err != nil {
		return Aggregate{}, err
	}
	for l := 0; l < ndims; l++ {
		if cur.IsNil() {
			return Aggregate{}, nil
		}
		leaf := l == ndims-1
		if keys[l] == All {
			agg, child, err := src.SourceAll(cur, l)
			if err != nil || leaf {
				return agg, err
			}
			cur = child
			continue
		}
		agg, child, found, err := src.SourceLookup(cur, l, keys[l])
		if err != nil {
			return Aggregate{}, err
		}
		if !found {
			return Aggregate{}, nil
		}
		if leaf {
			return agg, nil
		}
		cur = child
	}
	return Aggregate{}, nil
}

// ---- Range ----

// QueryRange aggregates over the sub-cube addressed by one selector per
// dimension. Pure-ALL dimensions are answered through ALL cells without
// enumeration, matching how a DWARF serves group-bys.
func QueryRange(src Source, sels []Selector) (Aggregate, error) {
	if len(sels) != src.NumDims() {
		return Aggregate{}, badQueryArity(len(sels), src.NumDims())
	}
	root, err := src.SourceRoot()
	if err != nil {
		return Aggregate{}, err
	}
	var w kernelState
	w.init(src, sels)
	return w.rangeAt(root, 0)
}

func (w *kernelState) rangeAt(n Cursor, depth int) (Aggregate, error) {
	if n.IsNil() {
		return Aggregate{}, nil
	}
	sel := w.sels[depth]
	leaf := depth == w.ndims-1
	if sel.isAll() {
		agg, child, err := w.src.SourceAll(n, depth)
		if err != nil || leaf {
			return agg, err
		}
		return w.rangeAt(child, depth+1)
	}
	var out Aggregate
	if sel.HasRange {
		it := &w.iters[depth]
		if err := w.src.SourceCells(n, depth, sel.Lo, it); err != nil {
			return Aggregate{}, err
		}
		for {
			key, agg, child, ok, err := w.src.SourceNext(it)
			if err != nil {
				return Aggregate{}, err
			}
			if !ok || key > sel.Hi {
				break
			}
			if key < sel.Lo {
				continue
			}
			if !leaf {
				if agg, err = w.rangeAt(child, depth+1); err != nil {
					return Aggregate{}, err
				}
			}
			out = MergeAggregates(out, agg)
		}
		return out, nil
	}
	for _, k := range w.keysets[depth] {
		agg, child, found, err := w.src.SourceLookup(n, depth, k)
		if err != nil {
			return Aggregate{}, err
		}
		if !found {
			continue
		}
		if !leaf {
			if agg, err = w.rangeAt(child, depth+1); err != nil {
				return Aggregate{}, err
			}
		}
		out = MergeAggregates(out, agg)
	}
	return out, nil
}

// ---- GroupBy / Pivot (one walk serves both) ----

// keyArena clones retained group keys into shared chunks, so a walk over an
// unstable-key source (encoded views, whose keys alias the mapped bytes)
// costs one allocation per ~4 KiB of retained key bytes instead of one per
// key. Handed-out strings alias a chunk that is only ever appended to
// within its capacity — never grown in place — so they stay valid for the
// life of the result.
type keyArena struct{ buf []byte }

const keyArenaChunk = 4096

func (a *keyArena) clone(s string) string {
	if len(s) == 0 {
		return ""
	}
	if len(s) > cap(a.buf)-len(a.buf) {
		size := keyArenaChunk
		if len(s) > size {
			size = len(s)
		}
		a.buf = make([]byte, 0, size)
	}
	off := len(a.buf)
	a.buf = append(a.buf, s...)
	return unsafe.String(&a.buf[off], len(s))
}

func (a *keyArena) cloneBytes(b []byte) string {
	return a.clone(unsafe.String(unsafe.SliceData(b), len(b)))
}

// pivotState extends the kernel walk with grouping: the dimensions in
// grouped contribute their cell key to the group identity instead of being
// collapsed, and leaf aggregates accumulate per distinct group.
type pivotState struct {
	kernelState
	grouped []bool
	keys    []string // current group key per grouped depth
	stable  bool
	arena   keyArena // clones of retained keys (unstable sources)

	// Single-dimension grouping (GroupBy) accumulates directly into the
	// result map; multi-dimension grouping (Pivot) accumulates under an
	// unambiguous composite encoding of the key tuple.
	single  int // the grouped depth, or -1 for composite mode
	out     map[string]Aggregate
	order   []int // grouped depths in output order (composite mode)
	acc     map[string]*Aggregate
	scratch []byte
	aggSlab []Aggregate // chunked accumulator storage (composite mode)
}

// newAgg hands out a stable *Aggregate from chunked slab storage: one
// allocation per chunk of groups, not one per group. Chunks are never grown
// in place, so earlier pointers stay valid.
func (w *pivotState) newAgg(a Aggregate) *Aggregate {
	if len(w.aggSlab) == cap(w.aggSlab) {
		w.aggSlab = make([]Aggregate, 0, 128)
	}
	w.aggSlab = append(w.aggSlab, a)
	return &w.aggSlab[len(w.aggSlab)-1]
}

func (w *pivotState) walk(n Cursor, depth int) error {
	if n.IsNil() {
		return nil
	}
	sel := w.sels[depth]
	leaf := depth == w.ndims-1
	if !w.grouped[depth] && sel.isAll() {
		agg, child, err := w.src.SourceAll(n, depth)
		if err != nil {
			return err
		}
		if leaf {
			w.emit(agg)
			return nil
		}
		return w.walk(child, depth+1)
	}
	// A selector carrying both a range and keys means the range — the same
	// precedence Range applies, so every shape reads a Selector identically.
	if !sel.HasRange && len(sel.Keys) > 0 {
		for _, k := range w.keysets[depth] {
			agg, child, found, err := w.src.SourceLookup(n, depth, k)
			if err != nil {
				return err
			}
			if !found {
				continue
			}
			if w.grouped[depth] {
				w.keys[depth] = k
			}
			if leaf {
				w.emit(agg)
			} else if err := w.walk(child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	it := &w.iters[depth]
	if err := w.src.SourceCells(n, depth, sel.Lo, it); err != nil {
		return err
	}
	for {
		key, agg, child, ok, err := w.src.SourceNext(it)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if sel.HasRange {
			if key > sel.Hi {
				break
			}
			if key < sel.Lo {
				continue
			}
		}
		if w.grouped[depth] {
			if depth == w.single && !w.stable {
				// Clone once per cell visited, before any emit: a GroupBy
				// result map must only ever be handed stable keys, since
				// assigning to an existing string key of a Go map replaces
				// the stored key with the one assigned.
				key = w.arena.clone(key)
			}
			w.keys[depth] = key
		}
		if leaf {
			w.emit(agg)
		} else if err := w.walk(child, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// emit folds one leaf aggregate into the current group. A GroupBy key is
// already stable (walk clones it into the arena); a Pivot's composite key
// is cloned exactly once, on first insertion, into the same arena rather
// than one heap string per key.
func (w *pivotState) emit(a Aggregate) {
	if w.single >= 0 {
		k := w.keys[w.single]
		w.out[k] = MergeAggregates(w.out[k], a)
		return
	}
	w.scratch = appendGroupKey(w.scratch[:0], w.keys, w.order)
	if p, ok := w.acc[string(w.scratch)]; ok {
		*p = MergeAggregates(*p, a)
		return
	}
	w.acc[w.arena.cloneBytes(w.scratch)] = w.newAgg(a)
}

// appendGroupKey appends the unambiguous composite encoding of the group
// key tuple (per key: uvarint length, then the bytes) for depths in order.
func appendGroupKey(dst []byte, keys []string, order []int) []byte {
	for _, d := range order {
		dst = binary.AppendUvarint(dst, uint64(len(keys[d])))
		dst = append(dst, keys[d]...)
	}
	return dst
}

// decodeGroupKey splits a composite group key back into its parts.
func decodeGroupKey(enc string, n int) []string {
	out := make([]string, 0, n)
	for len(enc) > 0 && len(out) < n {
		l, w := binary.Uvarint([]byte(enc[:min(len(enc), binary.MaxVarintLen64)]))
		if w <= 0 || uint64(len(enc)-w) < l {
			break // unreachable for keys we encoded ourselves
		}
		out = append(out, strings.Clone(enc[w:w+int(l)]))
		enc = enc[w+int(l):]
	}
	return out
}

// QueryGroupBy returns, for the dimension at index dim, the aggregate of
// every key under the restriction of sels (sels[dim] is ignored and
// replaced by each key in turn).
func QueryGroupBy(src Source, dim int, sels []Selector) (map[string]Aggregate, error) {
	ndims := src.NumDims()
	if dim < 0 || dim >= ndims {
		return nil, fmt.Errorf("%w: group-by dimension %d out of range", ErrBadQuery, dim)
	}
	if len(sels) != ndims {
		return nil, badQueryArity(len(sels), ndims)
	}
	root, err := src.SourceRoot()
	if err != nil {
		return nil, err
	}
	w := pivotState{single: dim, stable: src.StableKeys(), out: make(map[string]Aggregate)}
	w.init(src, sels)
	grouped := make([]bool, ndims)
	grouped[dim] = true
	w.grouped = grouped
	w.keys = make([]string, ndims)
	if err := w.walk(root, 0); err != nil {
		return nil, err
	}
	return w.out, nil
}

// PivotGroup is one row of a multi-dimension group-by: the group's key per
// grouped dimension (in the order the query named them) and its aggregate.
type PivotGroup struct {
	Keys []string
	Agg  Aggregate
}

// QueryPivot is the multi-dimension GroupBy: for every distinct key
// combination over the dimensions in dims (under the restriction of sels,
// whose entries at grouped dimensions select which members appear), the
// merged aggregate. Rows are sorted by Keys, so the result order is
// deterministic across sources. At least one dimension must be named.
func QueryPivot(src Source, dims []int, sels []Selector) ([]PivotGroup, error) {
	ndims := src.NumDims()
	if len(sels) != ndims {
		return nil, badQueryArity(len(sels), ndims)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("%w: pivot needs at least one group dimension", ErrBadQuery)
	}
	grouped := make([]bool, ndims)
	for _, d := range dims {
		if d < 0 || d >= ndims {
			return nil, fmt.Errorf("%w: group-by dimension %d out of range", ErrBadQuery, d)
		}
		if grouped[d] {
			return nil, fmt.Errorf("%w: group-by dimension %d named twice", ErrBadQuery, d)
		}
		grouped[d] = true
	}
	root, err := src.SourceRoot()
	if err != nil {
		return nil, err
	}
	w := pivotState{single: -1, stable: src.StableKeys(), acc: make(map[string]*Aggregate), order: dims}
	w.init(src, sels)
	w.grouped = grouped
	w.keys = make([]string, ndims)
	if err := w.walk(root, 0); err != nil {
		return nil, err
	}
	return pivotRows(w.acc, len(dims)), nil
}

// pivotRows materializes a composite-keyed accumulator as sorted rows.
func pivotRows(acc map[string]*Aggregate, nkeys int) []PivotGroup {
	out := make([]PivotGroup, 0, len(acc))
	for enc, agg := range acc {
		out = append(out, PivotGroup{Keys: decodeGroupKey(enc, nkeys), Agg: *agg})
	}
	sortPivotGroups(out)
	return out
}

func sortPivotGroups(rows []PivotGroup) {
	sort.Slice(rows, func(i, j int) bool { return compareKeyTuples(rows[i].Keys, rows[j].Keys) < 0 })
}

func compareKeyTuples(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// MergePivotGroups folds per-source pivot partials into one sorted result,
// merging aggregates of equal key tuples in the order the partials are
// given — the store's fan-out merge for Pivot and RollUp.
func MergePivotGroups(parts ...[]PivotGroup) []PivotGroup {
	if len(parts) == 1 {
		// Aliases the lone input rather than copying. Callers merging
		// cache-shared partials must therefore always include at least one
		// private part (the store always appends the live memtable's rows,
		// a cluster coordinator merges one part per node), or copy before
		// treating the result as their own.
		return parts[0]
	}
	acc := make(map[string]*Aggregate)
	var scratch []byte
	nkeys := 0
	for _, rows := range parts {
		for i := range rows {
			if len(rows[i].Keys) > nkeys {
				nkeys = len(rows[i].Keys)
			}
			scratch = scratch[:0]
			for _, k := range rows[i].Keys {
				scratch = binary.AppendUvarint(scratch, uint64(len(k)))
				scratch = append(scratch, k...)
			}
			if p, ok := acc[string(scratch)]; ok {
				*p = MergeAggregates(*p, rows[i].Agg)
			} else {
				agg := rows[i].Agg
				acc[string(scratch)] = &agg
			}
		}
	}
	return pivotRows(acc, nkeys)
}

// MergeGroupMaps folds per-source GroupBy partials into dst, merging equal
// keys in the order given — the store's fan-out merge for GroupBy and TopK.
func MergeGroupMaps(dst map[string]Aggregate, parts ...map[string]Aggregate) map[string]Aggregate {
	if dst == nil {
		dst = make(map[string]Aggregate)
	}
	for _, part := range parts {
		for k, a := range part {
			dst[k] = MergeAggregates(dst[k], a)
		}
	}
	return dst
}

// ---- TopK / iceberg ----

// Metric selects the aggregate component a TopK query ranks by.
type Metric uint8

// The rankable aggregate components.
const (
	BySum Metric = iota
	ByCount
	ByMin
	ByMax
	ByAvg
)

// Of returns the metric's value for one aggregate.
func (m Metric) Of(a Aggregate) float64 {
	switch m {
	case ByCount:
		return float64(a.Count)
	case ByMin:
		return a.Min
	case ByMax:
		return a.Max
	case ByAvg:
		return a.Avg()
	default:
		return a.Sum
	}
}

// String renders the metric's wire name.
func (m Metric) String() string {
	switch m {
	case ByCount:
		return "count"
	case ByMin:
		return "min"
	case ByMax:
		return "max"
	case ByAvg:
		return "avg"
	default:
		return "sum"
	}
}

// ParseMetric resolves a wire name ("sum", "count", "min", "max", "avg");
// the empty string selects BySum.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "", "sum":
		return BySum, nil
	case "count":
		return ByCount, nil
	case "min":
		return ByMin, nil
	case "max":
		return ByMax, nil
	case "avg":
		return ByAvg, nil
	}
	return BySum, fmt.Errorf("%w: unknown metric %q", ErrBadQuery, s)
}

// TopKSpec shapes a TopK/iceberg query: rank groups by a metric
// (descending, ties broken by key ascending), optionally drop groups below
// an iceberg threshold, and keep at most K.
type TopKSpec struct {
	// K caps the number of groups returned; <= 0 returns every group that
	// clears the threshold.
	K int
	// By is the ranking metric (BySum for the zero value).
	By Metric
	// Threshold, when HasThreshold is set, drops groups whose metric is
	// below it before the cut — the iceberg condition.
	Threshold    float64
	HasThreshold bool
}

// GroupEntry is one ranked group of a TopK result.
type GroupEntry struct {
	Key string
	Agg Aggregate
}

// QueryTopK ranks the groups of the dimension at index dim (under the
// restriction of sels) by spec's metric and returns the surviving entries,
// best first. The grouping is exactly QueryGroupBy's; the cut happens after
// all partial aggregates are in, so a store fans out the grouping and cuts
// once over the merged map (TopKFromGroups).
func QueryTopK(src Source, dim int, sels []Selector, spec TopKSpec) ([]GroupEntry, error) {
	groups, err := QueryGroupBy(src, dim, sels)
	if err != nil {
		return nil, err
	}
	return TopKFromGroups(groups, spec), nil
}

// TopKFromGroups ranks a (fully merged) group map: metric descending, ties
// by key ascending, iceberg threshold applied before the K cut. It is the
// single finishing step shared by every TopK path, so single-source and
// fan-out answers order identically. groups is read, never mutated — the
// store's cached read path and the cluster coordinator both hand it a
// cache-shared map, relying on that.
func TopKFromGroups(groups map[string]Aggregate, spec TopKSpec) []GroupEntry {
	out := make([]GroupEntry, 0, len(groups))
	for k, a := range groups {
		if spec.HasThreshold && spec.By.Of(a) < spec.Threshold {
			continue
		}
		out = append(out, GroupEntry{Key: k, Agg: a})
	}
	sort.Slice(out, func(i, j int) bool {
		mi, mj := spec.By.Of(out[i].Agg), spec.By.Of(out[j].Agg)
		if mi != mj {
			return mi > mj
		}
		return out[i].Key < out[j].Key
	})
	if spec.K > 0 && len(out) > spec.K {
		out = out[:spec.K]
	}
	return out
}

// ---- Tuples ----

// QueryTuples enumerates the source's base facts in sorted dimension order,
// duplicate key combinations already merged into one aggregate. The
// callback receives a reused dims slice holding retainable strings; copy
// the slice to keep a row. Enumeration can fail on a corrupt stream.
func QueryTuples(src Source, fn func(dims []string, agg Aggregate) bool) error {
	root, err := src.SourceRoot()
	if err != nil {
		return err
	}
	var w kernelState
	w.init(src, nil)
	dims := make([]string, w.ndims)
	_, err = w.tuplesAt(root, 0, dims, src.StableKeys(), fn)
	return err
}

func (w *kernelState) tuplesAt(n Cursor, depth int, dims []string, stable bool, fn func([]string, Aggregate) bool) (bool, error) {
	if n.IsNil() {
		return true, nil
	}
	leaf := depth == w.ndims-1
	it := &w.iters[depth]
	if err := w.src.SourceCells(n, depth, "", it); err != nil {
		return false, err
	}
	for {
		key, agg, child, ok, err := w.src.SourceNext(it)
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		if !stable {
			key = strings.Clone(key)
		}
		dims[depth] = key
		if leaf {
			if !fn(dims, agg) {
				return false, nil
			}
		} else {
			cont, err := w.tuplesAt(child, depth+1, dims, stable, fn)
			if err != nil || !cont {
				return cont, err
			}
		}
	}
}
