package dwarf

import "fmt"

// Merge combines two cubes over identical dimension lists into a new cube
// whose aggregates equal a cube built from the union of both inputs' facts.
// The result may share unchanged sub-dwarfs with the inputs (cubes are
// immutable, so sharing is safe). This is the primitive behind the paper's
// §7 future-work item, incremental cube updates: build a small DWARF from
// the new batch and merge it into the standing cube. The merged cube carries
// a's options forward — including the Workers setting, so later Appends keep
// building sharded.
func Merge(a, b *Cube) (*Cube, error) { return MergeAll(a, b) }

// MergeAll combines any number of cubes over identical dimension lists in
// one k-way pass: a single suffixCoalesce descends over all k roots at
// once, merging cells in key order and folding matching aggregates in input
// order. Folding k cubes this way costs one coalesce of the union instead
// of the k-1 full re-coalesce passes a pairwise Merge chain performs, and
// produces bit-identical aggregates (the pairwise chain folds in the same
// left-to-right order). The result carries the first cube's options
// forward and is marked FromQuery when any input is (the same flag rule
// MergeViews applies, so the two engines stay interchangeable). With a
// single input the input cube itself is returned.
//
// The output's aggregates are identical to a batch build's, but its
// encoding is not byte-identical: sub-dwarfs are not hash-consed across
// inputs, so equal sub-dwarfs that came from different inputs are stored
// twice. On four 4,096-tuple bike chunks the k-way merge encodes 3.9 %
// larger than New over the same tuples, and a sequential chain of pairwise
// merges 5.9 % larger. MergeViews output is byte-identical to the batch
// build.
//
// For merging cubes that are already encoded, MergeViews does the same
// k-way descent directly over the bytes without materializing any nodes.
func MergeAll(cubes ...*Cube) (*Cube, error) {
	if len(cubes) == 0 {
		return nil, fmt.Errorf("dwarf: MergeAll needs at least one cube")
	}
	a := cubes[0]
	for _, c := range cubes[1:] {
		if len(a.dims) != len(c.dims) {
			return nil, fmt.Errorf("%w: %d vs %d dimensions", ErrDimsMismatch, len(a.dims), len(c.dims))
		}
		for i := range a.dims {
			if a.dims[i] != c.dims[i] {
				return nil, fmt.Errorf("%w: dimension %d is %q vs %q", ErrDimsMismatch, i, a.dims[i], c.dims[i])
			}
		}
	}
	if len(cubes) == 1 {
		return a, nil
	}
	mb := newBuilder(len(a.dims), a.opts)
	roots := make([]*Node, len(cubes))
	numTuples := 0
	fromQuery := false
	for i, c := range cubes {
		roots[i] = c.root
		numTuples += c.numTuples
		fromQuery = fromQuery || c.FromQuery
		mb.seq = maxInt64(mb.seq, c.nextSeq)
	}
	root := mb.suffixCoalesce(roots)
	if root == nil {
		root = mb.close(mb.newNode(0))
	}
	return &Cube{
		dims:      append([]string(nil), a.dims...),
		root:      root,
		opts:      a.opts,
		numTuples: numTuples,
		FromQuery: fromQuery,
		nextSeq:   mb.seq,
	}, nil
}

// Append folds a batch of new fact tuples into the cube, returning the
// updated cube. The receiver is unchanged. The delta cube inherits the
// receiver's options (including its Workers setting, so delta construction
// shards in parallel when the cube was built that way); extra opts apply on
// top, letting callers override just the delta build.
func (c *Cube) Append(tuples []Tuple, opts ...Option) (*Cube, error) {
	delta, err := New(c.dims, tuples, append(optionsAsList(c.opts), opts...)...)
	if err != nil {
		return nil, err
	}
	return Merge(c, delta)
}

func optionsAsList(o Options) []Option {
	var out []Option
	if o.DisableSuffixCoalescing {
		out = append(out, WithoutSuffixCoalescing())
	}
	if o.DisableHashConsing {
		out = append(out, WithoutHashConsing())
	}
	if o.Workers > 0 {
		out = append(out, WithWorkers(o.Workers))
	}
	return out
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
