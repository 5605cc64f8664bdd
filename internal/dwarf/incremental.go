package dwarf

import "sync"

// Incremental is a tuple buffer with a cube that is built only when asked
// for — the streaming construction mode for a live feed, and the building
// block of the paper's §7 maintenance loop. Add and AddBatch only validate
// and append; they never build. Cube folds every buffered tuple with one
// sorted-scan New, and merges that into the standing cube with MergeAll
// only when an earlier Cube call already built one. A buffer that is never
// read before its final Cube is therefore constructed exactly once, and
// byte-identically to New over the same tuples. Construction options
// (ablations, WithWorkers) apply to every fold. The zero value is not
// usable; call NewIncremental.
//
// An Incremental is safe for concurrent use: Add, AddBatch, Cube and
// Buffered may be called from multiple goroutines. Folds run outside the
// buffer's lock, so appends never wait for a build; concurrent Cube calls
// wait for the fold in progress and then fold only what arrived since.
// Ownership rule for Cube(): the returned *Cube is immutable and stays
// valid and unchanged forever — later folds merge into NEW cubes and never
// touch one already handed out. The flip side is that later standing cubes
// share sub-dwarfs with earlier ones by pointer, so callers must treat a
// returned cube (and every Node reachable through Root()) as strictly
// read-only; writing to its nodes would corrupt the builder's standing cube
// out from under a concurrent fold. cubestore relies on this rule to query
// a memtable's cube while ingestion keeps appending.
type Incremental struct {
	dims []string
	opts []Option
	// fold serializes Cube calls, so at most one build runs at a time.
	fold sync.Mutex
	// mu guards pending and cube; it is never held across a build.
	mu      sync.Mutex
	pending []Tuple
	// cube is the standing cube: every tuple folded so far (an empty cube
	// before the first fold).
	cube *Cube
}

// NewIncremental creates a streaming builder over dims.
func NewIncremental(dims []string, opts ...Option) (*Incremental, error) {
	empty, err := New(dims, nil, opts...)
	if err != nil {
		return nil, err
	}
	return &Incremental{
		dims: append([]string(nil), dims...),
		opts: opts,
		cube: empty,
	}, nil
}

// Add buffers one tuple.
func (inc *Incremental) Add(t Tuple) error {
	return inc.AddBatch([]Tuple{t})
}

// AddBatch buffers many tuples as one atomic call: a Cube() from another
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

// Cube folds every buffered tuple and returns the standing cube. The
// builder remains usable; later Adds extend from this point. The returned
// cube is immutable — no later Add or fold modifies it (see the ownership
// rule on Incremental) — so it is safe to query, encode or retain
// concurrently with further ingestion. The folded tuples are released.
func (inc *Incremental) Cube() (*Cube, error) {
	inc.fold.Lock()
	defer inc.fold.Unlock()
	inc.mu.Lock()
	tail, standing := inc.pending, inc.cube
	inc.mu.Unlock()
	if len(tail) == 0 {
		return standing, nil
	}
	// AddBatch only ever appends past len(tail), so reading tail while
	// appends continue is safe.
	folded, err := New(inc.dims, tail, inc.opts...)
	if err != nil {
		return nil, err
	}
	if standing.numTuples > 0 {
		if folded, err = MergeAll(standing, folded); err != nil {
			return nil, err
		}
	}
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.cube = folded
	// Drop the folded tuples' backing array rather than re-slicing it, so
	// they are not kept reachable; only tuples appended during the build
	// are carried over.
	if rest := inc.pending[len(tail):]; len(rest) > 0 {
		inc.pending = append([]Tuple(nil), rest...)
	} else {
		inc.pending = nil
	}
	return folded, nil
}

// Buffered reports the tuples not yet folded into the standing cube.
func (inc *Incremental) Buffered() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return len(inc.pending)
}

// Dims returns the builder's dimension names in order.
func (inc *Incremental) Dims() []string {
	return append([]string(nil), inc.dims...)
}
