package dwarf

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"testing"
)

// The node-graph builder: the classic top-down DWARF construction, which
// links *Node values and shares closed sub-dwarfs through a structural
// hash-consing table. The package builds every cube with BuildIndexed's
// stream builder (New decodes its bytes); this second construction, by
// another route, is the oracle the construction, merge, fold and view
// suites compare against. Its nodes' seq is a creation counter, not a
// stream id, so the suites compare its cubes by their EncodeIndexed bytes
// and Stats, never by Dump.

// oracle builds the cube of tuples with the node-graph builder under
// opts, validating and counting source tuples as New does.
func oracle(dims []string, tuples []Tuple, opts ...Option) (*Cube, error) {
	if err := validateTuples(dims, tuples); err != nil {
		return nil, err
	}
	ats := make([]AggTuple, len(tuples))
	for i := range tuples {
		ats[i] = AggTuple{Dims: tuples[i].Dims, Agg: NewAggregate(tuples[i].Measure)}
	}
	c, err := oracleFromAggregates(dims, ats, opts...)
	if err != nil {
		return nil, err
	}
	c.numTuples = len(tuples)
	return c, nil
}

// oracleFromAggregates is oracle over pre-aggregated facts, the
// counterpart of NewFromAggregates.
func oracleFromAggregates(dims []string, tuples []AggTuple, opts ...Option) (*Cube, error) {
	numTuples, err := validateAggTuples(dims, tuples)
	if err != nil {
		return nil, err
	}
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return &Cube{
		dims:      append([]string(nil), dims...),
		root:      newBuilder(len(dims), o).buildSorted(sortTuples(tuples)),
		numTuples: numTuples,
	}, nil
}

// Oracle and OptionSets hand the oracle and the ablation option sets to
// the package's external tests, which can read the smartcity presets
// (smartcity imports this package).
var (
	Oracle     = oracle
	OptionSets = viewOptionSets
)

// mustOracle is oracle for inputs the test knows to be valid.
func mustOracle(tb testing.TB, dims []string, tuples []Tuple, opts ...Option) *Cube {
	tb.Helper()
	c, err := oracle(dims, tuples, opts...)
	if err != nil {
		tb.Fatalf("oracle: %v", err)
	}
	return c
}

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
// single-scan construction requires: a stable comparison sort by
// compareDims, the order the production radix sort (sortPerm) is held to.
func sortTuples(tuples []AggTuple) []AggTuple {
	sorted := slices.Clone(tuples)
	slices.SortStableFunc(sorted, func(a, b AggTuple) int { return compareDims(a.Dims, b.Dims) })
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
// hashed through the child's seq, the builder's creation counter:
// canonical children of equal structure are the same pointer and so carry
// the same seq. The hash only picks a bucket; structEqual decides.
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
