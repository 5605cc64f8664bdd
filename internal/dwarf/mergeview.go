package dwarf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"slices"
)

// Streaming k-way merge over encoded cubes. MergeViews combines any number
// of CubeViews directly view-to-bytes: one synchronized descent walks the
// encoded DWRFCUBE structures with a cursor per input, merging cells in key
// order, combining aggregates with MergeAggregates, and re-applying suffix
// coalescing and hash-consing on the *emitted encoded* sub-dwarfs — no
// *Node is ever allocated. The working set is the output stream under
// construction plus O(depth × fanout × k) cursor state and the
// content-addressing tables; it never materializes an input node graph,
// which is what keeps segment compaction in cubestore bounded by the output
// size instead of the sum of the decoded inputs. That working set lives in
// a Scratch, which a caller running merges or builds back to back reuses.
//
// The output is the *canonical* encoding of the merged fact multiset:
// structurally identical sub-dwarfs are emitted once (content-addressed on
// their encoded record bytes, exact compare — children are canonical ids
// already, so byte equality is structural equality), and records are laid
// down in the same depth-first child-before-parent order EncodeIndexed
// uses. The stream is therefore byte-identical to EncodeIndexed of a
// default-options batch build over the union of the inputs' facts whenever
// aggregate arithmetic is exact (integer-valued measures; with general
// floats the structure is still identical and only sum association may
// differ) and the inputs are base cubes — merging query-derived inputs
// keeps the FromQuery header flag set, where a batch build of raw facts
// would clear it. Inputs built with ablation options merge fine — the
// output is re-canonicalized regardless of how the inputs were compressed.

// ErrMergeTooLarge reports a merged stream that cannot carry the u32 offset
// index (the same 4 GiB limit AppendOffsetTrailer has).
var ErrMergeTooLarge = errors.New("dwarf: merged stream exceeds the 4 GiB offset-index limit")

// MergeStats describes one streaming merge.
type MergeStats struct {
	// Inputs is the number of views merged.
	Inputs int
	// Tuples is the output header's source tuple count (sum of the inputs').
	Tuples int
	// Nodes and Cells count the node records and key cells emitted (the
	// canonical structure, equal to the batch-built cube's Stats).
	Nodes int
	Cells int
	// SharedNodes counts sub-dwarfs that resolved to an already-emitted
	// record via the content table — the streaming equivalent of the
	// builder's hash-consing hits.
	SharedNodes int
	// BytesWritten is the total output length, offset trailer included.
	BytesWritten int64
}

// MergeViews merges k encoded cubes into dst as a single v2-indexed stream
// (see the package comment above for the canonical-output guarantee). Every
// view must be over the same dimension list. Views without a trailer index
// are index-scanned (and thereby fully validated) on first use; corrupt
// structure surfaces as ErrCorruptCube, never a panic.
func MergeViews(dst io.Writer, views ...*CubeView) (MergeStats, error) {
	out, stats, err := MergeViewsBytes(views...)
	if err != nil {
		return stats, err
	}
	if _, err := dst.Write(out); err != nil {
		return stats, err
	}
	return stats, nil
}

// MergeViewsBytes is MergeViews returning the encoded stream as one
// contiguous byte slice, for callers that keep the merged cube in memory.
func MergeViewsBytes(views ...*CubeView) ([]byte, MergeStats, error) {
	return new(Scratch).MergeViewsBytes(views...)
}

// MergeViewsBytes is the package MergeViewsBytes merging in sc: the result
// aliases sc's output buffer (see Scratch).
func (sc *Scratch) MergeViewsBytes(views ...*CubeView) ([]byte, MergeStats, error) {
	var stats MergeStats
	if len(views) == 0 {
		return nil, stats, errors.New("dwarf: MergeViews needs at least one input view")
	}
	dims := views[0].hdr.dims
	var numTuples uint64
	fromQuery := false
	for i, v := range views {
		if err := v.ensure(); err != nil {
			return nil, stats, err
		}
		if i > 0 {
			if len(v.hdr.dims) != len(dims) {
				return nil, stats, fmt.Errorf("%w: %d vs %d dimensions", ErrDimsMismatch, len(dims), len(v.hdr.dims))
			}
			for j := range dims {
				if v.hdr.dims[j] != dims[j] {
					return nil, stats, fmt.Errorf("%w: dimension %d is %q vs %q", ErrDimsMismatch, j, dims[j], v.hdr.dims[j])
				}
			}
		}
		numTuples += v.hdr.numTuples
		fromQuery = fromQuery || v.hdr.fromQuery
	}
	stats.Inputs = len(views)
	stats.Tuples = int(numTuples)

	m := sc.merger(views, dims, numTuples, fromQuery)
	roots := sc.refs[:0]
	for i, v := range views {
		if v.rootID != 0 {
			roots = append(roots, nref{view: i, id: v.rootID})
		}
	}
	sc.refs = roots
	var rootOut uint32
	var err error
	if len(roots) > 0 {
		rootOut, err = m.merge(roots, 0)
	} else {
		// No input has a root (all empty streams): emit the canonical empty
		// root the batch builder closes over zero facts.
		rootOut, err = m.emit(0, m.ndims == 1, nil, 0, Aggregate{})
	}
	if err != nil {
		return nil, stats, err
	}
	stats.Nodes = len(m.starts)
	stats.Cells = m.cells
	stats.SharedNodes = m.shared

	out, err := m.assemble(rootOut)
	if err != nil {
		return nil, stats, err
	}
	stats.BytesWritten = int64(len(out))
	return out, stats, nil
}

// Scratch is the working memory of BuildIndexed and MergeViews, reusable
// from one build or merge to the next: the output buffer, the node index
// (starts, allOffs, hashes), a build's decoded cells, the content and
// memo tables, the scan's open cells and the sort permutation. Once they
// have grown to a workload's size, a build through a Scratch allocates
// next to nothing, which is what lets a store seal a queue of memtables
// without leaving each seal's working set behind as garbage.
//
// The bytes a call through a Scratch returns alias its output buffer: they
// stay valid only until the next call through the same Scratch, so a
// caller writes or copies them out before that. A Scratch is not safe for
// concurrent use. The zero value is ready to use.
type Scratch struct {
	m    viewMerger
	sort sortScratch
	open [][]mcell
	refs []nref
}

// nref names one input sub-dwarf: a view index plus a node id in that
// view's stream.
type nref struct {
	view int
	id   uint64
}

// mcell is one merged cell awaiting emission. key aliases an input stream
// (inputs are immutable for the duration of the merge); in a build, rank
// is the key's rank in its dimension (see sortScratch.ranks).
type mcell struct {
	key   []byte
	child uint32
	rank  int32
	agg   Aggregate
}

// cellIter walks one input node's cell list in key order, validating the
// strictly-sorted invariant as it goes (trailer-indexed views skip the full
// structural scan, so the merge re-checks what it depends on).
type cellIter struct {
	view int
	// n.cells is the cursor over the remaining cells, n.ncells their count.
	n    vnode
	done bool
	key  []byte

	child uint64
	agg   Aggregate
}

func (it *cellIter) next() error {
	if it.n.ncells == 0 {
		it.done = true
		return nil
	}
	it.n.ncells--
	k, err := it.n.cells.str()
	if err != nil {
		return err
	}
	if it.key != nil && cmpKeys(it.key, k) >= 0 {
		return errCorrupt("node %d: cell keys not strictly sorted", it.n.id)
	}
	it.key = k
	if it.n.leaf {
		it.agg, err = it.n.cells.agg()
	} else {
		var id uint64
		if id, err = it.n.cells.uvarint(); err == nil {
			id, err = it.n.childID(id)
			it.child = id
		}
	}
	return err
}

// levelScratch is the per-recursion-level working state. Only one frame per
// level is ever live (the descent goes strictly down one level per call),
// so reusing these slices across the whole merge keeps the steady-state
// allocation count independent of node count.
type levelScratch struct {
	iters     []cellIter
	match     []int // iters positioned on the current smallest key
	cells     []mcell
	childRefs []nref
	allRefs   []nref

	// mergeSelf's cursors: per input, the current cell's key rank
	// (exhausted past the last cell) and the cell's position in dcells.
	cur      []int32
	pos, end []uint32
}

// viewMerger holds the merge state: the output under construction, the
// content-addressing table, and the two memo tables that keep shared
// sub-dwarf work linear.
type viewMerger struct {
	ndims int
	views []*CubeView

	// head is the output's v1 header up to its node count, which is known
	// only once the last record is out. buf opens with room for head and
	// the widest count, then holds the records back to back, so assemble
	// writes the header in place instead of copying the records after it.
	head    []byte
	buf     []byte
	starts  []uint32 // per emitted node: record offset in buf
	allOffs []uint32

	// canon is the content table: an open-addressed set of emitted node
	// ids, a power of two long and at most half full, probed by record
	// hash; hashes[id-1] is node id's. It beats a map of hash to newest id
	// plus a collision chain on a memtable fold's small builds, each in a
	// fresh Scratch: on 2 CPUs, BenchmarkMemtableFold ran 7 % faster (12
	// of 14 alternating runs) and allocated 4 % fewer bytes.
	canon  []uint32
	hashes []uint64
	seed   maphash.Seed

	// self is set in a build (BuildIndexed): the only input is the output
	// under construction, so a single-ref merge is the identity, and emit
	// keeps every new node's cells decoded for mergeSelf to read back.
	// keys[level][rank] is a rank's key (sortScratch.keys). Node id's
	// cells are dcells[dstart[id-1]:dstart[id]] (the last node's run to
	// the end); aggOffs is emit's scratch for the offsets of a leaf
	// record's aggregates.
	self    bool
	keys    [][]string
	dstart  []uint32
	dcells  []dcell
	aggOffs []uint32

	// The ablation switches of a build under New's options: noConsing
	// skips the content table and the multi memo, so every emit is a new
	// record and every k-way merge runs afresh; copySingles re-emits a
	// single-input merge as a copy instead of returning its input.
	noConsing, copySingles bool

	// single memoizes the translation of one input sub-dwarf, densely:
	// single[view][id-1] is its output id, 0 when not merged yet. multi
	// memoizes genuine k-way merges by their input reference set.
	single [][]uint32
	multi  refMemo

	levels []levelScratch
	rec    []byte // record under construction (only used at emit time)
	key    []byte // memo key scratch

	cells  int
	shared int
}

// merger readies sc's merger for a merge of views into a stream whose
// header carries dims, numTuples and fromQuery, keeping every table and
// buffer it grew before.
func (sc *Scratch) merger(views []*CubeView, dims []string, numTuples uint64, fromQuery bool) *viewMerger {
	m := &sc.m
	if m.canon == nil {
		m.canon = make([]uint32, 64)
		m.seed = maphash.MakeSeed()
	}
	m.ndims = len(dims)
	m.views = append(m.views[:0], views...)
	head := appendStreamHead(m.head[:0], dims, numTuples, fromQuery, 0)
	m.head = head[:len(head)-1] // the one-byte zero node count
	m.buf = slices.Grow(m.buf[:0], len(m.head)+binary.MaxVarintLen32)[:len(m.head)+binary.MaxVarintLen32]
	m.starts, m.allOffs, m.hashes = m.starts[:0], m.allOffs[:0], m.hashes[:0]
	clear(m.canon)
	m.self, m.keys = false, nil
	m.noConsing, m.copySingles = false, false
	m.dstart, m.dcells = m.dstart[:0], m.dcells[:0]
	m.single = slices.Grow(m.single[:0], len(views))[:len(views)]
	for i, v := range views {
		memo := slices.Grow(m.single[i][:0], len(v.starts))[:len(v.starts)]
		clear(memo)
		m.single[i] = memo
	}
	m.multi.reset()
	if len(m.levels) < m.ndims {
		m.levels = append(m.levels, make([]levelScratch, m.ndims-len(m.levels))...)
	}
	m.cells, m.shared = 0, 0
	return m
}

// merge returns the output id of the sub-dwarf merging refs (all at the
// given level), memoized so shared input structure is merged once.
func (m *viewMerger) merge(refs []nref, level int) (uint32, error) {
	if len(refs) == 1 {
		r := refs[0]
		if m.copySingles {
			return m.mergeSelf(refs, level)
		}
		if m.self {
			return uint32(r.id), nil
		}
		memo := m.single[r.view]
		if r.id == 0 || r.id > uint64(len(memo)) {
			// Out of range: mergeNodes reports the corrupt reference.
			return m.mergeNodes(refs, level)
		}
		if id := memo[r.id-1]; id != 0 {
			return id, nil
		}
		id, err := m.mergeNodes(refs, level)
		if err == nil {
			memo[r.id-1] = id
		}
		return id, err
	}
	if m.noConsing {
		return m.mergeNodes(refs, level)
	}
	m.key = m.key[:0]
	for _, r := range refs {
		if len(m.views) > 1 {
			m.key = binary.AppendUvarint(m.key, uint64(r.view))
		}
		m.key = binary.AppendUvarint(m.key, r.id)
	}
	h := maphash.Bytes(m.seed, m.key)
	if id := m.multi.get(h, m.key); id != 0 {
		return id, nil
	}
	// The recursion reuses m.key, so the memo key is stored now.
	key := m.multi.store(m.key)
	id, err := m.mergeNodes(refs, level)
	if err == nil {
		m.multi.put(h, key, id)
	}
	return id, err
}

// refMemo memoizes k-way merges: an open-addressed table from a reference
// set's encoded bytes to the merge's output id. The keys lie back to back
// in one arena, each behind its uvarint length, so once the table and the
// arena have grown, a miss allocates nothing.
type refMemo struct {
	slots []memoSlot // a power of two long, at most half full
	arena []byte
	n     int
}

// memoSlot is one refMemo entry: the key's hash and arena offset, and the
// merge's output id, 0 marking an empty slot.
type memoSlot struct {
	hash    uint64
	off, id uint32
}

func (t *refMemo) reset() {
	clear(t.slots)
	t.arena = t.arena[:0]
	t.n = 0
}

// get returns the id stored under key (whose hash is h), or 0.
func (t *refMemo) get(h uint64, key []byte) uint32 {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; len(t.slots) > 0; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.id == 0 {
			return 0
		}
		if s.hash == h && bytes.Equal(t.key(s.off), key) {
			return s.id
		}
	}
	return 0
}

// store copies key into the arena for a later put, returning its offset.
func (t *refMemo) store(key []byte) uint32 {
	off := uint32(len(t.arena))
	t.arena = appendKey(t.arena, key)
	return off
}

// key returns the key stored at off.
func (t *refMemo) key(off uint32) []byte {
	n, w := binary.Uvarint(t.arena[off:])
	return t.arena[int(off)+w : int(off)+w+int(n)]
}

// put records id under the key stored at off, which get has just missed.
func (t *refMemo) put(h uint64, off, id uint32) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]memoSlot, max(64, 2*len(old)))
		for i := range old {
			if old[i].id != 0 {
				t.insert(old[i])
			}
		}
	}
	t.insert(memoSlot{hash: h, off: off, id: id})
	t.n++
}

func (t *refMemo) insert(e memoSlot) {
	mask := uint64(len(t.slots) - 1)
	i := e.hash & mask
	for t.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = e
}

// mergeNodes performs the k-way cell merge of refs and emits the resulting
// record. Cells are visited in key order and children merged depth-first
// before the node itself — the same post-order EncodeIndexed's
// VisitDepthFirst walks, which is what makes output ids line up with a
// batch build's.
func (m *viewMerger) mergeNodes(refs []nref, level int) (uint32, error) {
	if m.self {
		return m.mergeSelf(refs, level)
	}
	leaf := level == m.ndims-1
	sc := &m.levels[level]
	sc.iters = slices.Grow(sc.iters[:0], len(refs))[:len(refs)]
	for i, r := range refs {
		it := &sc.iters[i]
		var err error
		if it.n, err = m.views[r.view].node(r.id); err != nil {
			return 0, err
		}
		it.view, it.done, it.key = r.view, false, nil
		n := &it.n
		if n.level != level {
			return 0, errCorrupt("merge: input %d node %d at level %d, want %d", r.view, r.id, n.level, level)
		}
		if n.leaf != leaf {
			return 0, errCorrupt("merge: input %d node %d leaf flag %v disagrees with level %d of %d",
				r.view, r.id, n.leaf, level, m.ndims)
		}
		if err := it.next(); err != nil {
			return 0, err
		}
	}

	sc.cells = sc.cells[:0]
	for {
		// One pass finds the smallest current key and, in input order,
		// the inputs positioned on it.
		var minKey []byte
		sc.match = sc.match[:0]
		for i := range sc.iters {
			it := &sc.iters[i]
			if it.done {
				continue
			}
			if len(sc.match) > 0 {
				c := cmpKeys(it.key, minKey)
				if c > 0 {
					continue
				}
				if c < 0 {
					sc.match = sc.match[:0]
				}
			}
			minKey = it.key
			sc.match = append(sc.match, i)
		}
		if len(sc.match) == 0 {
			break
		}
		if leaf {
			// Fold matching leaf aggregates left to right in input
			// order, the fold a build's ALL merge (mergeSelf) performs.
			var agg Aggregate
			for _, i := range sc.match {
				it := &sc.iters[i]
				agg = MergeAggregates(agg, it.agg)
				if err := it.next(); err != nil {
					return 0, err
				}
			}
			sc.cells = append(sc.cells, mcell{key: minKey, agg: agg})
		} else {
			sc.childRefs = sc.childRefs[:0]
			for _, i := range sc.match {
				it := &sc.iters[i]
				sc.childRefs = append(sc.childRefs, nref{view: it.view, id: it.child})
				if err := it.next(); err != nil {
					return 0, err
				}
			}
			child, err := m.merge(sc.childRefs, level+1)
			if err != nil {
				return 0, err
			}
			sc.cells = append(sc.cells, mcell{key: minKey, child: child})
		}
	}

	// The merged ALL is the merge of the inputs' ALLs — equivalent to (and
	// much cheaper than) re-coalescing the merged cells.
	var allAgg Aggregate
	var allID uint32
	if leaf {
		for i := range sc.iters {
			a, err := m.views[sc.iters[i].view].allAgg(&sc.iters[i].n)
			if err != nil {
				return 0, err
			}
			allAgg = MergeAggregates(allAgg, a)
		}
	} else {
		sc.allRefs = sc.allRefs[:0]
		for i := range sc.iters {
			id, err := m.views[sc.iters[i].view].allChild(&sc.iters[i].n)
			if err != nil {
				return 0, err
			}
			if id != 0 {
				sc.allRefs = append(sc.allRefs, nref{view: sc.iters[i].view, id: id})
			}
		}
		if len(sc.allRefs) > 0 {
			var err error
			if allID, err = m.merge(sc.allRefs, level+1); err != nil {
				return 0, err
			}
		}
	}
	return m.emit(level, leaf, sc.cells, allID, allAgg)
}

// dcell is one decoded cell of an emitted node: its key's rank, and its
// child id or, at the leaf level, its aggregate's offset in buf. Leaf
// aggregates are read back from the record (aggAt), which is cheaper than
// keeping a 32-byte copy of each.
type dcell struct {
	rank int32
	val  uint32
}

// aggAt decodes the aggregate the build wrote at buf[off:].
func (m *viewMerger) aggAt(off uint32) Aggregate {
	b := m.buf[off:]
	cnt, _ := binary.Uvarint(b[24:])
	return Aggregate{Sum: f64frombytes(b), Min: f64frombytes(b[8:]), Max: f64frombytes(b[16:]), Count: int64(cnt)}
}

// exhausted is mergeSelf's rank for an input past its last cell: above
// every real rank, so the smallest current rank is the next key to merge.
const exhausted = math.MaxInt32

// mergeSelf is mergeNodes over the build's own output: it reads the
// inputs' cells from the decoded arena emit keeps instead of parsing the
// records back out of buf, and finds the smallest key by comparing ranks.
// The arena is the build's own, so nothing needs validating. Cells, the
// fold order of matching inputs (input order) and the child merges come
// out exactly as mergeNodes would produce them from the records.
func (m *viewMerger) mergeSelf(refs []nref, level int) (uint32, error) {
	leaf := level == m.ndims-1
	sc := &m.levels[level]
	k := len(refs)
	sc.cur = slices.Grow(sc.cur[:0], k)[:k]
	sc.pos = slices.Grow(sc.pos[:0], k)[:k]
	sc.end = slices.Grow(sc.end[:0], k)[:k]
	for i, r := range refs {
		lo, hi := m.dstart[r.id-1], uint32(len(m.dcells))
		if int(r.id) < len(m.dstart) {
			hi = m.dstart[r.id]
		}
		sc.pos[i], sc.end[i] = lo, hi
		sc.cur[i] = exhausted
		if lo < hi {
			sc.cur[i] = m.dcells[lo].rank
		}
	}
	keys := m.keys[level]
	sc.cells = sc.cells[:0]
	for {
		lo := int32(exhausted)
		for _, r := range sc.cur {
			lo = min(lo, r)
		}
		if lo == exhausted {
			break
		}
		c := mcell{key: keyBytes(keys[lo]), rank: lo}
		// Matching inputs in input order: the leaf left-fold and the child
		// reference order of mergeNodes.
		sc.childRefs = sc.childRefs[:0]
		for i, r := range sc.cur {
			if r != lo {
				continue
			}
			d := m.dcells[sc.pos[i]]
			if leaf {
				c.agg = MergeAggregates(c.agg, m.aggAt(d.val))
			} else {
				sc.childRefs = append(sc.childRefs, nref{id: uint64(d.val)})
			}
			sc.pos[i]++
			sc.cur[i] = exhausted
			if sc.pos[i] < sc.end[i] {
				sc.cur[i] = m.dcells[sc.pos[i]].rank
			}
		}
		if !leaf {
			child, err := m.merge(sc.childRefs, level+1)
			if err != nil {
				return 0, err
			}
			c.child = child
		}
		sc.cells = append(sc.cells, c)
	}

	// A record's ALL value sits at its allOffs entry.
	var allAgg Aggregate
	var allID uint32
	if leaf {
		for _, r := range refs {
			allAgg = MergeAggregates(allAgg, m.aggAt(m.allOffs[r.id-1]))
		}
	} else {
		sc.allRefs = sc.allRefs[:0]
		for _, r := range refs {
			if id, _ := binary.Uvarint(m.buf[m.allOffs[r.id-1]:]); id != 0 {
				sc.allRefs = append(sc.allRefs, nref{id: id})
			}
		}
		if len(sc.allRefs) > 0 {
			var err error
			if allID, err = m.merge(sc.allRefs, level+1); err != nil {
				return 0, err
			}
		}
	}
	return m.emit(level, leaf, sc.cells, allID, allAgg)
}

// emit encodes one node record, content-addresses it against every record
// emitted so far, and either returns the existing id (suffix coalescing /
// hash-consing on encoded bytes) or appends it as the next node.
func (m *viewMerger) emit(level int, leaf bool, cells []mcell, allID uint32, allAgg Aggregate) (uint32, error) {
	rec := appendRecordHead(m.rec[:0], level, leaf, len(cells))
	m.aggOffs = m.aggOffs[:0]
	for i := range cells {
		c := &cells[i]
		rec = appendKey(rec, c.key)
		if leaf {
			if m.self {
				m.aggOffs = append(m.aggOffs, uint32(len(rec)))
			}
			rec = appendAggregate(rec, c.agg)
		} else {
			rec = binary.AppendUvarint(rec, uint64(c.child))
		}
	}
	allOff := len(rec)
	if leaf {
		rec = appendAggregate(rec, allAgg)
	} else {
		rec = binary.AppendUvarint(rec, uint64(allID))
	}
	m.rec = rec

	var h, slot uint64
	if !m.noConsing {
		h = maphash.Bytes(m.seed, rec)
		mask := uint64(len(m.canon) - 1)
		for slot = h & mask; m.canon[slot] != 0; slot = (slot + 1) & mask {
			if id := m.canon[slot]; m.hashes[id-1] == h && bytes.Equal(rec, m.record(id)) {
				m.shared++
				return id, nil
			}
		}
	}
	if len(m.buf)+len(rec) > maxStreamBytes {
		return 0, ErrMergeTooLarge
	}
	start := uint32(len(m.buf))
	// Growing, keep room for assemble's trailer too, so finishing the
	// stream does not copy it once more.
	m.buf = append(grow(m.buf, len(rec)+tailBytes(len(m.starts)+1)), rec...)
	m.starts = append(grow(m.starts, 1), start)
	m.allOffs = append(grow(m.allOffs, 1), start+uint32(allOff))
	id := uint32(len(m.starts))
	m.hashes = append(grow(m.hashes, 1), h)
	if !m.noConsing {
		if 2*len(m.starts) > len(m.canon) {
			m.rehash()
		} else {
			m.canon[slot] = id
		}
	}
	m.cells += len(cells)
	if m.self {
		m.dstart = append(grow(m.dstart, 1), uint32(len(m.dcells)))
		m.dcells = grow(m.dcells, len(cells))
		for i := range cells {
			val := cells[i].child
			if leaf {
				val = start + m.aggOffs[i]
			}
			m.dcells = append(m.dcells, dcell{rank: cells[i].rank, val: val})
		}
	}
	return id, nil
}

// rehash doubles the content table and re-enters every emitted node.
func (m *viewMerger) rehash() {
	m.canon = make([]uint32, 2*len(m.canon))
	mask := uint64(len(m.canon) - 1)
	for i, h := range m.hashes {
		slot := h & mask
		for m.canon[slot] != 0 {
			slot = (slot + 1) & mask
		}
		m.canon[slot] = uint32(i + 1)
	}
}

// record returns the bytes of emitted node id: records lie back to back,
// so each ends where the next one starts.
func (m *viewMerger) record(id uint32) []byte {
	if int(id) == len(m.starts) {
		return m.buf[m.starts[id-1]:]
	}
	return m.buf[m.starts[id-1]:m.starts[id]]
}

// assemble finishes the stream in buf: v1 header written in front of the
// records, root id, CRC, then the v2 offset trailer and the v3 zone-map
// section — the byte-for-byte layout EncodeIndexed produces. buf grows to
// its final size once, up front, so the result is one slice of it.
func (m *viewMerger) assemble(rootOut uint32) ([]byte, error) {
	var countBuf [binary.MaxVarintLen64]byte
	count := countBuf[:binary.PutUvarint(countBuf[:], uint64(len(m.starts)))]
	nodesStart := len(m.head) + len(count)
	off := len(m.head) + binary.MaxVarintLen32 - nodesStart
	zones, err := m.zoneMaps(rootOut)
	if err != nil {
		return nil, err
	}
	tail := tailBytes(len(m.starts))
	for i := range zones {
		tail += 3*binary.MaxVarintLen64 + len(zones[i].Min) + len(zones[i].Max)
	}
	m.buf = slices.Grow(m.buf, tail)
	out := m.buf[off:]
	copy(out, m.head)
	copy(out[len(m.head):], count)
	out = appendStreamTail(out, uint64(rootOut))
	if len(out) > maxStreamBytes {
		return nil, ErrMergeTooLarge
	}
	for i := range m.starts {
		m.starts[i] -= uint32(off)
		m.allOffs[i] -= uint32(off)
	}
	out = appendTrailer(out, m.starts, m.allOffs, uint64(rootOut), nodesStart)
	return appendMetaTrailer(out, zones), nil
}

// tailBytes bounds what assemble appends after the records of a stream
// of the given node count, zone maps aside: the root id and CRC, then the
// offset trailer.
func tailBytes(nodes int) int { return 96 + 8*nodes }

// zoneMaps reads the output's zone maps off its ALL chain (see
// Cube.zoneMaps): the records are canonical, so the level-d node of the
// chain lists dimension d's distinct keys in order.
func (m *viewMerger) zoneMaps(root uint32) ([]ZoneMap, error) {
	zones := make([]ZoneMap, m.ndims)
	for d, id := 0, uint64(root); id != 0 && d < m.ndims; d++ {
		cur := cursor{data: m.buf, pos: int(m.starts[id-1]), end: len(m.buf)}
		if _, err := cur.uvarint(); err != nil { // level
			return nil, err
		}
		if _, err := cur.u8(); err != nil { // leaf flag
			return nil, err
		}
		n, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		leaf := d == m.ndims-1
		z := &zones[d]
		for i := uint64(0); i < n; i++ {
			key, err := cur.str()
			if err != nil {
				return nil, err
			}
			if i == 0 {
				z.Min = string(key)
			}
			if i == n-1 {
				z.Max = string(key)
			}
			if leaf {
				err = cur.skipAgg()
			} else {
				_, err = cur.uvarint()
			}
			if err != nil {
				return nil, err
			}
		}
		z.Distinct = int(n)
		if leaf {
			break
		}
		if id, err = cur.uvarint(); err != nil {
			return nil, err
		}
	}
	return zones, nil
}

// grow returns b with room for n more elements, doubling its capacity
// when it must grow. append grows a large slice by only 1.25x, so a stream
// or an index written record by record would otherwise be copied, and left
// as garbage, many times over. A reused Scratch keeps the grown buffers,
// so only a build larger than every earlier one pays for growing.
func grow[T any](b []T, n int) []T {
	if len(b)+n <= cap(b) {
		return b
	}
	return append(make([]T, 0, 2*cap(b)+n), b...)
}

// appendRecordHead frames the start of a node record — level, leaf flag,
// key-cell count — for every writer of the format (EncodeIndexed,
// MergeViews, BuildIndexed). Cells follow as appendKey plus a child id uvarint or an
// appendAggregate, then the ALL record.
func appendRecordHead(b []byte, level int, leaf bool, ncells int) []byte {
	b = binary.AppendUvarint(b, uint64(level))
	if leaf {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(ncells))
}

// appendKey appends a length-prefixed key (cell keys and dimension names).
func appendKey[K string | []byte](b []byte, key K) []byte {
	b = binary.AppendUvarint(b, uint64(len(key)))
	return append(b, key...)
}

// appendAggregate encodes an aggregate: sum, min, max as little-endian
// float64 bits, then count uvarint.
func appendAggregate(b []byte, a Aggregate) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Sum))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Min))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Max))
	return binary.AppendUvarint(b, uint64(a.Count))
}
