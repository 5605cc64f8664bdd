package dwarf

import "unsafe"

// BuildIndexed constructs the cube of tuples and returns it in the
// EncodeIndexed format: the paper's single sorted scan (§4). It validates
// like New, which decodes these same bytes into its node graph. No *Node
// graph is built, and the tuples are never copied: BuildIndexed sorts a
// permutation of them (sortPerm), scans it keeping one open node per
// level, folds duplicate key combinations into their leaf cell, and closes
// every node straight into a record through the emitter MergeViews uses.
// Each ALL cell is one k-way merge of the node's already-emitted children,
// folding matching leaf aggregates left to right in child order. The merge
// reads the children as emit kept them decoded, and compares keys by their
// rank in the sort (mergeSelf), so no record is parsed back and no key
// compared byte by byte. Its bytes equal the node-graph builder's that the
// package tests keep as an oracle, float sums included. Stores use it
// wherever a fresh build goes straight to a file.
func BuildIndexed(dims []string, tuples []Tuple) ([]byte, error) {
	return new(Scratch).BuildIndexed(dims, tuples)
}

// BuildIndexedFromAggregates is BuildIndexed over pre-aggregated facts,
// the counterpart of NewFromAggregates.
func BuildIndexedFromAggregates(dims []string, tuples []AggTuple) ([]byte, error) {
	numTuples, err := validateAggTuples(dims, tuples)
	if err != nil {
		return nil, err
	}
	return new(Scratch).build(dims, aggFacts(tuples), uint64(numTuples), Options{})
}

// BuildIndexed is the package BuildIndexed building in sc: the result
// aliases sc's output buffer (see Scratch).
func (sc *Scratch) BuildIndexed(dims []string, tuples []Tuple) ([]byte, error) {
	if err := validateTuples(dims, tuples); err != nil {
		return nil, err
	}
	return sc.build(dims, rawFacts(tuples), uint64(len(tuples)), Options{})
}

// build is BuildIndexed over validated facts. The merger's only input is
// its own output (self), whose cells emit keeps decoded, keyed by rank.
// The ablation options, which only New and NewFromAggregates pass, turn
// off the emitter's content table and the merge memo (DisableHashConsing)
// or re-emit every single-input merge as a copy (DisableSuffixCoalescing,
// which implies the former).
func (sc *Scratch) build(dims []string, f facts, numTuples uint64, o Options) ([]byte, error) {
	m := sc.merger(nil, dims, numTuples, false)
	perm := sortPerm(f, &sc.sort)
	m.self, m.keys = true, sc.sort.keys
	m.copySingles = o.DisableSuffixCoalescing
	m.noConsing = o.DisableHashConsing || o.DisableSuffixCoalescing
	b := streamBuilder{m: m, open: sc.open, refs: sc.refs, ranks: sc.sort.ranks}
	if len(b.open) < len(dims) {
		b.open = make([][]mcell, len(dims))
	}
	for l := range b.open {
		// A failed build may have left cells open.
		b.open[l] = b.open[l][:0]
	}
	root, err := b.build(f, perm)
	sc.open, sc.refs = b.open, b.refs
	if err != nil {
		return nil, err
	}
	return m.assemble(root)
}

// streamBuilder is the scan state of BuildIndexed: per level, the cells of
// the open node. A non-leaf cell's child is filled in when the scan closes
// the node below it.
type streamBuilder struct {
	m     *viewMerger
	open  [][]mcell
	refs  []nref
	ranks [][]int32 // sortScratch.ranks
}

// build scans the facts in sorted order (perm), emitting each node's
// record as the scan leaves it, and returns the root's id. Measures are
// lifted as the scan reads them.
func (b *streamBuilder) build(f facts, perm []int32) (uint32, error) {
	nd := b.m.ndims
	if len(perm) == 0 {
		// Empty cube: a bare root with no cells and zero aggregates.
		return b.m.emit(0, nd == 1, nil, 0, Aggregate{})
	}
	var prev []string
	for _, ti := range perm {
		keys := f.keys(int(ti))
		p := commonPrefix(prev, keys)
		if prev != nil {
			if p == nd {
				// Duplicate key combination: merge into the last leaf cell.
				leaf := b.open[nd-1]
				lc := &leaf[len(leaf)-1]
				lc.agg = MergeAggregates(lc.agg, f.agg(int(ti)))
				continue
			}
			// Close everything below the divergence level, deepest first.
			for l := nd - 1; l > p; l-- {
				if err := b.attachClosed(l); err != nil {
					return 0, err
				}
			}
		}
		// Open the new suffix: one new cell per level from p down.
		for l := p; l < nd; l++ {
			c := mcell{key: keyBytes(keys[l]), rank: b.ranks[l][ti]}
			if l == nd-1 {
				c.agg = f.agg(int(ti))
			}
			b.open[l] = append(b.open[l], c)
		}
		prev = keys
	}
	for l := nd - 1; l > 0; l-- {
		if err := b.attachClosed(l); err != nil {
			return 0, err
		}
	}
	return b.close(0)
}

// attachClosed closes the open node at level l and makes it the child of
// the most recent cell of level l-1.
func (b *streamBuilder) attachClosed(l int) error {
	id, err := b.close(l)
	if err != nil {
		return err
	}
	parent := b.open[l-1]
	parent[len(parent)-1].child = id
	return nil
}

// close emits the open node at level l with its ALL cell — the left fold
// of its cells' aggregates at the leaf level, otherwise the merge of its
// children — and empties the level for the next node.
func (b *streamBuilder) close(l int) (uint32, error) {
	cells := b.open[l]
	b.open[l] = cells[:0]
	if l == b.m.ndims-1 {
		var all Aggregate
		for i := range cells {
			all = MergeAggregates(all, cells[i].agg)
		}
		return b.m.emit(l, true, cells, 0, all)
	}
	refs := b.refs[:0]
	for i := range cells {
		refs = append(refs, nref{id: uint64(cells[i].child)})
	}
	b.refs = refs
	all, err := b.m.merge(refs, l+1)
	if err != nil {
		return 0, err
	}
	return b.m.emit(l, false, cells, all, Aggregate{})
}

// keyBytes views a tuple key as bytes without copying. The emitter only
// reads cell keys (into records and zone maps), never writes them.
func keyBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}
