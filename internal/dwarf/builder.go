package dwarf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
)

// Tuple is one fact: a key per dimension plus the measure, the shape the
// paper's Fig. 1 feeds into cube construction:
// (dimension_1, ..., dimension_n, measure).
type Tuple struct {
	Dims    []string
	Measure float64
}

// Options tune cube construction. The zero value enables all DWARF
// compression; the Disable* switches exist for the ablation benchmarks.
type Options struct {
	// DisableSuffixCoalescing materializes every ALL sub-dwarf and every
	// single-input merge as a private deep copy instead of sharing the
	// sub-dwarf by pointer. The result is the uncompressed cube tree.
	DisableSuffixCoalescing bool
	// DisableHashConsing turns off cross-branch detection of structurally
	// identical sub-dwarfs. Construction-time suffix coalescing (single
	// input merges) still shares pointers unless DisableSuffixCoalescing
	// is also set.
	DisableHashConsing bool
}

// Option mutates Options.
type Option func(*Options)

// WithoutSuffixCoalescing disables pointer sharing of identical sub-dwarfs.
func WithoutSuffixCoalescing() Option {
	return func(o *Options) { o.DisableSuffixCoalescing = true }
}

// WithoutHashConsing disables cross-branch identical sub-dwarf detection.
func WithoutHashConsing() Option {
	return func(o *Options) { o.DisableHashConsing = true }
}

// Cube is a built DWARF cube. Cubes are immutable after construction.
type Cube struct {
	dims      []string
	root      *Node
	numTuples int
	// FromQuery mirrors the paper's is_cube flag: true when this cube was
	// produced by querying/extracting from another DWARF rather than built
	// directly from source tuples.
	FromQuery bool
}

// Validation errors returned by New and related constructors.
var (
	ErrNoDimensions   = errors.New("dwarf: cube needs at least one dimension")
	ErrDimMismatch    = errors.New("dwarf: tuple dimension count does not match cube dimensions")
	ErrReservedKey    = errors.New("dwarf: tuple uses the reserved wildcard key")
	ErrDimsMismatch   = errors.New("dwarf: cubes have different dimension lists")
	ErrBadQuery       = errors.New("dwarf: query key count does not match cube dimensions")
	ErrNotFiniteValue = errors.New("dwarf: measure must be a finite number")
)

// ValidateTuple checks one fact tuple against the construction rules New
// enforces: dimension count, no reserved wildcard key, finite measure.
// Callers that persist tuples before building — the live store logs a
// batch to its WAL ahead of the memtable — validate with this same
// function, so an accepted batch can never fail to build on replay.
func ValidateTuple(t Tuple, ndims int) error {
	if len(t.Dims) != ndims {
		return fmt.Errorf("%w: tuple has %d dims, want %d", ErrDimMismatch, len(t.Dims), ndims)
	}
	for _, k := range t.Dims {
		if k == All {
			return fmt.Errorf("%w: %q", ErrReservedKey, All)
		}
	}
	if math.IsNaN(t.Measure) || math.IsInf(t.Measure, 0) {
		return ErrNotFiniteValue
	}
	return nil
}

// New constructs a DWARF cube from the given fact tuples. The tuple slice is
// not modified; tuples are copied and sorted internally. Duplicate dimension
// key combinations are merged into one leaf aggregate.
func New(dims []string, tuples []Tuple, opts ...Option) (*Cube, error) {
	ats, err := aggTuples(dims, tuples)
	if err != nil {
		return nil, err
	}
	c, err := NewFromAggregates(dims, ats, opts...)
	if err != nil {
		return nil, err
	}
	c.numTuples = len(tuples)
	return c, nil
}

// aggTuples validates raw facts with New's rules and lifts each measure to
// its single-value aggregate.
func aggTuples(dims []string, tuples []Tuple) ([]AggTuple, error) {
	if err := validateTuples(dims, tuples); err != nil {
		return nil, err
	}
	ats := make([]AggTuple, len(tuples))
	for i := range tuples {
		ats[i] = AggTuple{Dims: tuples[i].Dims, Agg: NewAggregate(tuples[i].Measure)}
	}
	return ats, nil
}

// validateTuples checks raw facts with ValidateTuple, naming the first bad
// one.
func validateTuples(dims []string, tuples []Tuple) error {
	for i := range tuples {
		if err := ValidateTuple(tuples[i], len(dims)); err != nil {
			return fmt.Errorf("tuple %d: %w", i, err)
		}
	}
	return nil
}

// validateAggTuples checks pre-aggregated facts against the cube's
// dimensions and returns their source tuple count, the sum of the
// aggregate counts.
func validateAggTuples(dims []string, tuples []AggTuple) (int, error) {
	if len(dims) == 0 {
		return 0, ErrNoDimensions
	}
	numTuples := 0
	for i := range tuples {
		if len(tuples[i].Dims) != len(dims) {
			return 0, fmt.Errorf("%w: tuple %d has %d dims, cube has %d",
				ErrDimMismatch, i, len(tuples[i].Dims), len(dims))
		}
		for _, k := range tuples[i].Dims {
			if k == All {
				return 0, fmt.Errorf("%w: %q in tuple %d", ErrReservedKey, All, i)
			}
		}
		numTuples += int(tuples[i].Agg.Count)
	}
	return numTuples, nil
}

// AggTuple is a fact carrying full aggregate state instead of a raw
// measure; rollups and re-materializations use it to preserve counts and
// min/max through a rebuild.
type AggTuple struct {
	Dims []string
	Agg  Aggregate
}

// NewFromAggregates constructs a cube from pre-aggregated facts. The source
// tuple count is the sum of the aggregate counts.
func NewFromAggregates(dims []string, tuples []AggTuple, opts ...Option) (*Cube, error) {
	numTuples, err := validateAggTuples(dims, tuples)
	if err != nil {
		return nil, err
	}
	var o Options
	for _, fn := range opts {
		fn(&o)
	}

	root := newBuilder(len(dims), o).buildSorted(sortTuples(tuples))
	// Renumber nodes in a structure-determined order so that any two builds
	// of the same facts, in any input order, carry identical sequence ids
	// and render identical Dumps.
	renumber(root)
	return &Cube{
		dims:      append([]string(nil), dims...),
		root:      root,
		numTuples: numTuples,
	}, nil
}

// Dims returns the cube's dimension names in order.
func (c *Cube) Dims() []string { return append([]string(nil), c.dims...) }

// NumDims returns the number of dimensions.
func (c *Cube) NumDims() int { return len(c.dims) }

// NumSourceTuples returns how many fact tuples were folded into the cube
// (before duplicate-key merging).
func (c *Cube) NumSourceTuples() int { return c.numTuples }

// Root returns the top-level node, the entry point of all traversals.
func (c *Cube) Root() *Node { return c.root }

// builder holds the construction state: the open path of nodes being filled
// and the hash-consing table of closed nodes. The table buckets candidates
// by a seeded structural hash and verifies matches with an exact compare
// (children are canonical already, so pointer equality decides), which
// keeps hash-consing sound for any key bytes and any hash collision.
type builder struct {
	ndims int
	opts  Options
	seq   int64
	canon map[uint64][]*Node
	seed  maphash.Seed
	open  []*Node
}

func newBuilder(ndims int, opts Options) *builder {
	return &builder{
		ndims: ndims,
		opts:  opts,
		canon: make(map[uint64][]*Node),
		seed:  maphash.MakeSeed(),
		open:  make([]*Node, ndims),
	}
}

func (b *builder) newNode(level int) *Node {
	b.seq++
	return &Node{Level: level, Leaf: level == b.ndims-1, seq: b.seq}
}

// sortTuples returns a sorted copy of the facts, the order the paper's
// single-scan construction requires: sortPerm's permutation, the one
// BuildIndexed scans, gathered.
func sortTuples(tuples []AggTuple) []AggTuple {
	var sc sortScratch
	perm := sortPerm(aggFacts(tuples), &sc, false)
	sorted := make([]AggTuple, len(tuples))
	for i, p := range perm {
		sorted[i] = tuples[p]
	}
	return sorted
}

// buildSorted runs the classic top-down DWARF construction on pre-sorted
// facts: scan them keeping the path of open nodes, close sub-dwarfs as soon
// as the scan leaves them (computing their ALL cells via suffix coalescing),
// share identical closed sub-dwarfs, and finally close the root.
func (b *builder) buildSorted(sorted []AggTuple) *Node {
	b.open[0] = b.newNode(0)
	var prev []string
	for ti := range sorted {
		t := &sorted[ti]
		p := commonPrefix(prev, t.Dims)
		if prev != nil {
			if p == b.ndims {
				// Duplicate key combination: merge into the last leaf cell.
				leaf := b.open[b.ndims-1]
				lc := &leaf.Cells[len(leaf.Cells)-1]
				lc.Agg = MergeAggregates(lc.Agg, t.Agg)
				continue
			}
			// Close everything below the divergence level, deepest first,
			// attaching each closed node to its parent cell.
			for l := b.ndims - 1; l > p; l-- {
				b.attachClosed(l)
			}
		}
		// Open the new suffix: one new cell per level from p down.
		for l := p; l < b.ndims; l++ {
			n := b.open[l]
			if n.Leaf {
				n.Cells = append(n.Cells, Cell{Key: t.Dims[l], Agg: t.Agg})
			} else {
				n.Cells = append(n.Cells, Cell{Key: t.Dims[l]})
				b.open[l+1] = b.newNode(l + 1)
			}
		}
		prev = t.Dims
	}
	if prev != nil {
		for l := b.ndims - 1; l > 0; l-- {
			b.attachClosed(l)
		}
	}
	// With no facts the root stays bare: no cells and zero aggregates.
	root := b.close(b.open[0])
	b.open[0] = nil
	return root
}

// attachClosed closes the open node at level l and stores it as the child
// of the most recent cell of level l-1.
func (b *builder) attachClosed(l int) {
	closed := b.close(b.open[l])
	parent := b.open[l-1]
	parent.Cells[len(parent.Cells)-1].Child = closed
	b.open[l] = nil
}

// close computes the node's ALL cell and canonicalizes the node. Children of
// the node are already closed.
func (b *builder) close(n *Node) *Node {
	if n.Leaf {
		var agg Aggregate
		for i := range n.Cells {
			agg = MergeAggregates(agg, n.Cells[i].Agg)
		}
		n.AllAgg = agg
	} else if len(n.Cells) > 0 {
		children := make([]*Node, 0, len(n.Cells))
		for i := range n.Cells {
			children = append(children, n.Cells[i].Child)
		}
		n.AllChild = b.suffixCoalesce(children)
	}
	return b.canonicalize(n)
}

// suffixCoalesce merges a set of closed sub-dwarfs of the same level into the
// sub-dwarf of their union. With a single input the result is the input
// itself — the suffix coalescing that gives DWARF its compression.
func (b *builder) suffixCoalesce(nodes []*Node) *Node {
	nodes = dropNil(nodes)
	if len(nodes) == 0 {
		return nil
	}
	if len(nodes) == 1 {
		if b.opts.DisableSuffixCoalescing {
			return b.deepCopy(nodes[0])
		}
		return nodes[0]
	}
	out := b.newNode(nodes[0].Level)

	// K-way merge of the sorted cell lists.
	idx := make([]int, len(nodes))
	for {
		minKey, found := "", false
		for i, n := range nodes {
			if idx[i] < len(n.Cells) {
				k := n.Cells[idx[i]].Key
				if !found || k < minKey {
					minKey, found = k, true
				}
			}
		}
		if !found {
			break
		}
		if out.Leaf {
			var agg Aggregate
			for i, n := range nodes {
				if idx[i] < len(n.Cells) && n.Cells[idx[i]].Key == minKey {
					agg = MergeAggregates(agg, n.Cells[idx[i]].Agg)
					idx[i]++
				}
			}
			out.Cells = append(out.Cells, Cell{Key: minKey, Agg: agg})
		} else {
			var sub []*Node
			for i, n := range nodes {
				if idx[i] < len(n.Cells) && n.Cells[idx[i]].Key == minKey {
					sub = append(sub, n.Cells[idx[i]].Child)
					idx[i]++
				}
			}
			out.Cells = append(out.Cells, Cell{Key: minKey, Child: b.suffixCoalesce(sub)})
		}
	}

	// The merged node's ALL is the merge of the inputs' ALLs, which is
	// equivalent to (and cheaper than) coalescing the merged cells again.
	if out.Leaf {
		var agg Aggregate
		for _, n := range nodes {
			agg = MergeAggregates(agg, n.AllAgg)
		}
		out.AllAgg = agg
	} else {
		alls := make([]*Node, 0, len(nodes))
		for _, n := range nodes {
			alls = append(alls, n.AllChild)
		}
		out.AllChild = b.suffixCoalesce(alls)
	}
	return b.canonicalize(out)
}

// canonicalize returns an existing structurally identical node if one was
// already closed, sharing the sub-dwarf across branches; otherwise it
// registers and returns n. Children are canonical already, so structural
// identity reduces to comparing cell keys, child pointers and aggregate
// bits; the hash only selects the bucket to compare against.
func (b *builder) canonicalize(n *Node) *Node {
	if b.opts.DisableHashConsing || b.opts.DisableSuffixCoalescing {
		return n
	}
	h := b.nodeHash(n)
	for _, cand := range b.canon[h] {
		if structEqual(cand, n) {
			return cand
		}
	}
	b.canon[h] = append(b.canon[h], n)
	return n
}

// nodeHash computes the bucket hash of a closed node. Child identity is
// hashed through the child's seq: canonical children of equal structure are
// the same pointer and so carry the same seq. The hash only picks a bucket;
// structEqual decides.
func (b *builder) nodeHash(n *Node) uint64 {
	var h maphash.Hash
	h.SetSeed(b.seed)
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(n.Level))
	for i := range n.Cells {
		c := &n.Cells[i]
		h.WriteString(c.Key)
		h.WriteByte(0)
		if n.Leaf {
			hashAgg(&h, buf[:], c.Agg)
		} else {
			u64(uint64(c.Child.seq))
		}
	}
	h.WriteByte(1)
	if n.Leaf {
		hashAgg(&h, buf[:], n.AllAgg)
	} else if n.AllChild != nil {
		u64(uint64(n.AllChild.seq))
	}
	return h.Sum64()
}

func hashAgg(h *maphash.Hash, buf []byte, a Aggregate) {
	binary.LittleEndian.PutUint64(buf, math.Float64bits(a.Sum))
	h.Write(buf)
	binary.LittleEndian.PutUint64(buf, uint64(a.Count))
	h.Write(buf)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(a.Min))
	h.Write(buf)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(a.Max))
	h.Write(buf)
}

// structEqual reports whether two closed nodes are structurally identical:
// same level and cells, bit-identical aggregates, and pointer-identical
// (i.e. canonical) children.
func structEqual(a, b *Node) bool {
	if a.Level != b.Level || a.Leaf != b.Leaf || len(a.Cells) != len(b.Cells) {
		return false
	}
	if a.Leaf {
		if !aggBitsEqual(a.AllAgg, b.AllAgg) {
			return false
		}
	} else if a.AllChild != b.AllChild {
		return false
	}
	for i := range a.Cells {
		ca, cb := &a.Cells[i], &b.Cells[i]
		if ca.Key != cb.Key {
			return false
		}
		if a.Leaf {
			if !aggBitsEqual(ca.Agg, cb.Agg) {
				return false
			}
		} else if ca.Child != cb.Child {
			return false
		}
	}
	return true
}

// aggBitsEqual is bit-exact aggregate equality, the sharing criterion
// hash-consing uses (floats compared by bits, not ==).
func aggBitsEqual(a, b Aggregate) bool {
	return math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		a.Count == b.Count &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// renumber assigns sequence ids by a deterministic depth-first walk (cells
// in key order, ALL last — Dump's traversal), numbering each distinct node
// on first visit. Construction order stops mattering: structurally
// identical cubes get identical ids, which Dump and Node.Seq read.
func renumber(root *Node) {
	var seq int64
	seen := make(map[*Node]bool)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		seq++
		n.seq = seq
		for i := range n.Cells {
			walk(n.Cells[i].Child)
		}
		walk(n.AllChild)
	}
	walk(root)
}

// deepCopy clones an entire sub-dwarf with no sharing (ablation support).
func (b *builder) deepCopy(n *Node) *Node {
	if n == nil {
		return nil
	}
	out := b.newNode(n.Level)
	out.Cells = make([]Cell, len(n.Cells))
	for i := range n.Cells {
		out.Cells[i] = Cell{Key: n.Cells[i].Key, Agg: n.Cells[i].Agg, Child: b.deepCopy(n.Cells[i].Child)}
	}
	out.AllAgg = n.AllAgg
	out.AllChild = b.deepCopy(n.AllChild)
	return out
}

func dropNil(nodes []*Node) []*Node {
	out := nodes[:0]
	for _, n := range nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// compareDims orders key tuples lexicographically, dimension by dimension.
func compareDims(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

func commonPrefix(a, b []string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
