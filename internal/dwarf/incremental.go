package dwarf

import "sync"

// Incremental is a tuple buffer plus an immutable list of encoded runs —
// the streaming construction mode for a live feed, and the building block
// of the paper's §7 maintenance loop. Add and AddBatch only validate and
// append; they never build. Runs folds the buffered tuples into a new run:
// BuildIndexed bytes plus a CubeView over them, so a folded memtable is
// held in the paper's encoded format rather than as a *Node graph. The runs
// then merge binary-counter style with MergeViews: while the newest run
// holds at least half as many source tuples as the one before it, the two
// become one. Each run therefore holds more than twice the tuples of the
// next, the list stays logarithmic in the folds, and a fold costs
// O(tail) amortized instead of a rebuild of everything folded so far.
// IndexedBytes encodes every tuple without folding: the buffered tail goes
// straight to bytes with BuildIndexed and is merged with the runs through
// one MergeViews. A buffer never read before its IndexedBytes is
// therefore constructed exactly once, and byte-identically to New over the
// same tuples. The zero value is not usable; call NewIncremental.
//
// An Incremental is safe for concurrent use: Add, AddBatch, Runs,
// IndexedBytes and Buffered may be called from multiple goroutines. Folds
// run outside the buffer's lock, so appends never wait for a build;
// concurrent Runs calls wait for the fold in progress and then fold only
// what arrived since. A *Runs handed out is immutable and stays valid and
// unchanged forever: a later fold replaces the incremental's run list with
// a new one and never touches a list or a run already handed out.
// cubestore relies on this to query a memtable while ingestion keeps
// appending.
type Incremental struct {
	dims []string
	// fold serializes Runs calls, so at most one build runs at a time.
	fold sync.Mutex
	// mu guards pending and runs; it is never held across a build.
	mu      sync.Mutex
	pending []Tuple
	// runs is every tuple folded so far (no runs before the first fold).
	runs *Runs
}

// NewIncremental creates a streaming builder over dims.
func NewIncremental(dims []string) (*Incremental, error) {
	data, err := BuildIndexed(dims, nil)
	if err != nil {
		return nil, err
	}
	empty, err := OpenViewTrusted(data)
	if err != nil {
		return nil, err
	}
	return &Incremental{
		dims: append([]string(nil), dims...),
		runs: &Runs{views: []*CubeView{empty}},
	}, nil
}

// Add buffers one tuple.
func (inc *Incremental) Add(t Tuple) error {
	return inc.AddBatch([]Tuple{t})
}

// AddBatch buffers many tuples as one atomic call: a Runs() from another
// goroutine sees either none or all of the batch. All tuples are validated
// before any is buffered — a bad tuple rejected here costs one call, while
// one discovered at fold time would poison the whole builder — and their
// dimension keys are copied, so callers may reuse their slices.
func (inc *Incremental) AddBatch(tuples []Tuple) error {
	for _, t := range tuples {
		if err := ValidateTuple(t, len(inc.dims)); err != nil {
			return err
		}
	}
	// One backing array for the whole batch's keys instead of one per tuple.
	keys := make([]string, 0, len(tuples)*len(inc.dims))
	inc.mu.Lock()
	defer inc.mu.Unlock()
	for _, t := range tuples {
		start := len(keys)
		keys = append(keys, t.Dims...)
		inc.pending = append(inc.pending, Tuple{Dims: keys[start:len(keys):len(keys)], Measure: t.Measure})
	}
	return nil
}

// Runs folds every buffered tuple into a new run, merges runs as the type
// comment describes, and returns the run list. The builder remains usable;
// later Adds extend from this point. The returned list is immutable (see
// Incremental), so it is safe to query or retain concurrently with further
// ingestion. The folded tuples are released.
func (inc *Incremental) Runs() (*Runs, error) {
	inc.fold.Lock()
	defer inc.fold.Unlock()
	inc.mu.Lock()
	tail, prev := inc.pending, inc.runs
	inc.mu.Unlock()
	if len(tail) == 0 {
		return prev, nil
	}
	// AddBatch only ever appends past len(tail), so reading tail while
	// appends continue is safe.
	data, err := BuildIndexed(inc.dims, tail)
	if err != nil {
		return nil, err
	}
	next, err := prev.with(data)
	if err != nil {
		return nil, err
	}
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.runs = next
	// Drop the folded tuples' backing array rather than re-slicing it, so
	// they are not kept reachable; only tuples appended during the build
	// are carried over.
	if rest := inc.pending[len(tail):]; len(rest) > 0 {
		inc.pending = append([]Tuple(nil), rest...)
	} else {
		inc.pending = nil
	}
	return next, nil
}

// IndexedBytes returns every tuple added so far in the EncodeIndexed
// format, without folding the buffer. The pending tuples, handed over under
// the lock, are built straight to bytes with BuildIndexed; with runs
// folded before, one MergeViews of the runs and that build writes the
// output, so with exact sums the bytes are those of New over every tuple.
// The builder is left as it was: a Runs call that runs meanwhile folds the
// same pending tuples itself.
//
// The build or merge runs in sc (a fresh Scratch when sc is nil), and its
// result aliases sc's buffer. With nothing pending and a lone run, there
// is nothing to build: the result is that run's own bytes, which *Runs
// lists handed out keep reading, so a caller never writes into the result
// of either kind.
func (inc *Incremental) IndexedBytes(sc *Scratch) ([]byte, error) {
	if sc == nil {
		sc = new(Scratch)
	}
	inc.mu.Lock()
	tail, prev := inc.pending, inc.runs
	inc.mu.Unlock()
	views := prev.views[:len(prev.data):len(prev.data)]
	switch {
	case len(views) == 0:
		return sc.BuildIndexed(inc.dims, tail)
	case len(tail) > 0:
		// The tail gets a buffer of its own: the merge below writes sc's.
		out, err := BuildIndexed(inc.dims, tail)
		if err != nil {
			return nil, err
		}
		tv, err := OpenViewTrusted(out)
		if err != nil {
			return nil, err
		}
		views = append(views, tv)
	case len(views) == 1:
		// A lone run is already one build, or one canonical merge, of
		// every tuple.
		return prev.data[0], nil
	}
	out, _, err := sc.MergeViewsBytes(views...)
	return out, err
}

// Buffered reports the tuples not yet folded into a run.
func (inc *Incremental) Buffered() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return len(inc.pending)
}

// RunStats reports the folded runs and the bytes they hold: each run's
// output buffer, whose capacity stays pinned however much of it the
// encoding fills, plus its view's heap index (CubeView.heapBytes), without
// folding.
func (inc *Incremental) RunStats() (runs, bytes int) {
	inc.mu.Lock()
	r := inc.runs
	inc.mu.Unlock()
	for i, d := range r.data {
		bytes += cap(d) + r.views[i].heapBytes()
	}
	return len(r.data), bytes
}

// Dims returns the builder's dimension names in order.
func (inc *Incremental) Dims() []string {
	return append([]string(nil), inc.dims...)
}

// Runs is an immutable list of encoded runs, oldest first: every tuple an
// Incremental had folded when it was handed out. It answers the full query
// surface by walking its runs serially in run order and merging their
// partial results the way a store merges segments, so every answer equals
// one cube's over the runs' union. With no runs it answers as the empty
// cube over the builder's dimensions, argument errors included.
type Runs struct {
	// data holds each run's EncodeIndexed bytes, oldest first.
	data [][]byte
	// views are the query sources: one view over each run, or the empty
	// cube when there are none.
	views []*CubeView
}

// with returns the list extended by the run data and merged down until
// every run holds more than twice the source tuples of the next. The
// result shares no array with r, whose readers may still be walking it.
//
// Merging the two newest runs while the newer holds at least half the
// older's tuples can cascade; the cascade's extent depends only on tuple
// counts, so it is found first and written as one k-way MergeViews, which
// reads each input once instead of re-merging every intermediate run.
func (r *Runs) with(data []byte) (*Runs, error) {
	data = fit(data)
	v, err := OpenViewTrusted(data)
	if err != nil {
		return nil, err
	}
	n := len(r.data)
	next := &Runs{
		data:  append(append(make([][]byte, 0, n+1), r.data...), data),
		views: append(append(make([]*CubeView, 0, n+1), r.views[:n]...), v),
	}
	k, tuples := 1, v.NumSourceTuples()
	for ; k <= n && 2*tuples >= next.views[n-k].NumSourceTuples(); k++ {
		tuples += next.views[n-k].NumSourceTuples()
	}
	if k > 1 {
		if data, _, err = MergeViewsBytes(next.views[n+1-k:]...); err != nil {
			return nil, err
		}
		data = fit(data)
		if v, err = OpenViewTrusted(data); err != nil {
			return nil, err
		}
		next.data = append(next.data[:n+1-k], data)
		next.views = append(next.views[:n+1-k], v)
	}
	return next, nil
}

// fit returns data in a buffer with at most half its length spare. A run
// lives as long as its memtable, and the doubling output buffer it was
// built in can pin up to twice its bytes: after 16,384 bike tuples folded
// 20 at a time, 3.29 MB of buffers held 2.46 MB of runs. Copying every run
// to its exact length cost cluster query p50s about 10 % in alternating
// perfbench pairs on 2 CPUs, so only a buffer over half spare is copied.
func fit(data []byte) []byte {
	if cap(data)-len(data) <= len(data)/2 {
		return data
	}
	return append(make([]byte, 0, len(data)), data...)
}

// Dims returns the dimension names in order.
func (r *Runs) Dims() []string { return r.views[0].Dims() }

// NumDims returns the number of dimensions.
func (r *Runs) NumDims() int { return r.views[0].NumDims() }

// aggregate merges an aggregate shape's per-run answers in run order.
func (r *Runs) aggregate(run func(*CubeView) (Aggregate, error)) (Aggregate, error) {
	var agg Aggregate
	for _, v := range r.views {
		a, err := run(v)
		if err != nil {
			return Aggregate{}, err
		}
		agg = MergeAggregates(agg, a)
	}
	return agg, nil
}

// Point answers a point/ALL query over every run.
func (r *Runs) Point(keys ...string) (Aggregate, error) {
	return r.aggregate(func(v *CubeView) (Aggregate, error) { return v.Point(keys...) })
}

// Range aggregates the sub-cube addressed by one selector per dimension.
func (r *Runs) Range(sels []Selector) (Aggregate, error) {
	return r.aggregate(func(v *CubeView) (Aggregate, error) { return v.Range(sels) })
}

// GroupBy groups the dimension at index dim under the restriction of sels,
// merging the runs' group maps per key.
func (r *Runs) GroupBy(dim int, sels []Selector) (map[string]Aggregate, error) {
	if len(r.views) == 1 {
		return r.views[0].GroupBy(dim, sels)
	}
	parts := make([]map[string]Aggregate, len(r.views))
	for i, v := range r.views {
		var err error
		if parts[i], err = v.GroupBy(dim, sels); err != nil {
			return nil, err
		}
	}
	// Every part is a fresh map, so the first may take the rest.
	return MergeGroupMaps(parts[0], parts[1:]...), nil
}

// Pivot is the multi-dimension GroupBy, merging the runs' rows per key
// tuple.
func (r *Runs) Pivot(dims []int, sels []Selector) ([]PivotGroup, error) {
	parts := make([][]PivotGroup, len(r.views))
	for i, v := range r.views {
		var err error
		if parts[i], err = v.Pivot(dims, sels); err != nil {
			return nil, err
		}
	}
	return MergePivotGroups(parts...), nil
}

// TopK ranks the merged groups of the dimension at index dim.
func (r *Runs) TopK(dim int, sels []Selector, spec TopKSpec) ([]GroupEntry, error) {
	groups, err := r.GroupBy(dim, sels)
	if err != nil {
		return nil, err
	}
	return TopKFromGroups(groups, spec), nil
}
