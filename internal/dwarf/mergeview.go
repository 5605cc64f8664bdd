package dwarf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"math"
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
// size instead of the sum of the decoded inputs.
//
// The output is the *canonical* encoding of the merged fact multiset:
// structurally identical sub-dwarfs are emitted once (content-addressed on
// their encoded record bytes, exact compare — children are canonical ids
// already, so byte equality is structural equality), and records are laid
// down in the same depth-first child-before-parent order Encode uses. The
// stream is therefore byte-identical to EncodeIndexed of a default-options
// batch build over the union of the inputs' facts whenever aggregate
// arithmetic is exact (integer-valued measures; with general floats the
// structure is still identical and only sum association may differ) and the
// inputs are base cubes — merging query-derived inputs keeps the FromQuery
// header flag set, exactly as MergeAll does, where a batch build of raw
// facts would clear it. Inputs built with ablation options merge fine — the
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

	m := newViewMerger(views)
	var roots []nref
	for i, v := range views {
		if v.rootID != 0 {
			roots = append(roots, nref{view: i, id: v.rootID})
		}
	}
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

	out, err := m.assemble(dims, numTuples, fromQuery, rootOut)
	if err != nil {
		return nil, stats, err
	}
	stats.BytesWritten = int64(len(out))
	return out, stats, nil
}

// nref names one input sub-dwarf: a view index plus a node id in that
// view's stream.
type nref struct {
	view int
	id   uint64
}

// mcell is one merged cell awaiting emission. key aliases an input stream
// (inputs are immutable for the duration of the merge).
type mcell struct {
	key   []byte
	child uint32
	agg   Aggregate
}

// cellIter walks one input node's cell list in key order, validating the
// strictly-sorted invariant as it goes (trailer-indexed views skip the full
// structural scan, so the merge re-checks what it depends on).
type cellIter struct {
	view int
	n    vnode
	cur  cursor
	rem  int
	done bool
	key  []byte
	// prev is the previous key, for the sortedness check.
	prev []byte

	child uint64
	agg   Aggregate
}

func (it *cellIter) next() error {
	if it.rem == 0 {
		it.done = true
		return nil
	}
	it.rem--
	it.prev = it.key
	k, err := it.cur.str()
	if err != nil {
		return err
	}
	if it.prev != nil && cmpKeys(it.prev, k) >= 0 {
		return errCorrupt("node %d: cell keys not strictly sorted", it.n.id)
	}
	it.key = k
	if it.n.leaf {
		it.agg, err = it.cur.agg()
	} else {
		var id uint64
		if id, err = it.cur.uvarint(); err == nil {
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
	cells     []mcell
	childRefs []nref
	allRefs   []nref
}

// viewMerger holds the merge state: the node section under construction
// (relative offsets), the content-addressing table, and the two memo tables
// that keep shared sub-dwarf work linear.
type viewMerger struct {
	ndims int
	views []*CubeView

	buf     []byte   // output node section, records back to back
	starts  []uint32 // per emitted node: record offset in buf
	ends    []uint32
	allOffs []uint32

	canon map[uint64][]uint32 // content hash -> emitted node ids
	seed  maphash.Seed

	// single memoizes the translation of one input sub-dwarf; multi
	// memoizes genuine k-way merges by their input reference set. Both map
	// to output node ids.
	single []map[uint64]uint32
	multi  map[string]uint32

	levels []levelScratch
	rec    []byte // record under construction (only used at emit time)
	key    []byte // memo key scratch

	// zones accumulates the output's per-dimension zone maps. Keys are
	// folded only when a record is appended (not when it dedups to an
	// already-emitted node, whose keys were folded then), so the union over
	// emitted records at level d is exactly dimension d's distinct key set —
	// the same maps a batch build of the merged facts would record.
	zones *zoneAcc

	cells  int
	shared int
}

func newViewMerger(views []*CubeView) *viewMerger {
	ndims := len(views[0].hdr.dims)
	single := make([]map[uint64]uint32, len(views))
	for i := range single {
		single[i] = make(map[uint64]uint32)
	}
	return &viewMerger{
		ndims:  ndims,
		views:  views,
		canon:  make(map[uint64][]uint32),
		seed:   maphash.MakeSeed(),
		single: single,
		multi:  make(map[string]uint32),
		levels: make([]levelScratch, ndims),
		zones:  newZoneAcc(ndims),
	}
}

// merge returns the output id of the sub-dwarf merging refs (all at the
// given level), memoized so shared input structure is merged once.
func (m *viewMerger) merge(refs []nref, level int) (uint32, error) {
	if len(refs) == 1 {
		if id, ok := m.single[refs[0].view][refs[0].id]; ok {
			return id, nil
		}
	} else {
		m.key = m.key[:0]
		for _, r := range refs {
			m.key = binary.AppendUvarint(m.key, uint64(r.view))
			m.key = binary.AppendUvarint(m.key, r.id)
		}
		if id, ok := m.multi[string(m.key)]; ok {
			return id, nil
		}
	}
	id, err := m.mergeNodes(refs, level)
	if err != nil {
		return 0, err
	}
	if len(refs) == 1 {
		m.single[refs[0].view][refs[0].id] = id
	} else {
		m.key = m.key[:0]
		for _, r := range refs {
			m.key = binary.AppendUvarint(m.key, uint64(r.view))
			m.key = binary.AppendUvarint(m.key, r.id)
		}
		m.multi[string(m.key)] = id
	}
	return id, nil
}

// mergeNodes performs the k-way cell merge of refs and emits the resulting
// record. Cells are visited in key order and children merged depth-first
// before the node itself — the same post-order Encode's VisitDepthFirst
// walks, which is what makes output ids line up with a batch build's.
func (m *viewMerger) mergeNodes(refs []nref, level int) (uint32, error) {
	leaf := level == m.ndims-1
	sc := &m.levels[level]
	sc.iters = sc.iters[:0]
	for _, r := range refs {
		v := m.views[r.view]
		n, err := v.node(r.id)
		if err != nil {
			return 0, err
		}
		if n.level != level {
			return 0, errCorrupt("merge: input %d node %d at level %d, want %d", r.view, r.id, n.level, level)
		}
		if n.leaf != leaf {
			return 0, errCorrupt("merge: input %d node %d leaf flag %v disagrees with level %d of %d",
				r.view, r.id, n.leaf, level, m.ndims)
		}
		it := cellIter{view: r.view, n: n, cur: n.cells, rem: n.ncells}
		if err := it.next(); err != nil {
			return 0, err
		}
		sc.iters = append(sc.iters, it)
	}

	sc.cells = sc.cells[:0]
	for {
		var minKey []byte
		found := false
		for i := range sc.iters {
			it := &sc.iters[i]
			if !it.done && (!found || cmpKeys(it.key, minKey) < 0) {
				minKey, found = it.key, true
			}
		}
		if !found {
			break
		}
		if leaf {
			// Fold matching leaf aggregates in input order — the same
			// left-fold the builder's suffixCoalesce performs.
			var agg Aggregate
			for i := range sc.iters {
				it := &sc.iters[i]
				if !it.done && cmpKeys(it.key, minKey) == 0 {
					agg = MergeAggregates(agg, it.agg)
					if err := it.next(); err != nil {
						return 0, err
					}
				}
			}
			sc.cells = append(sc.cells, mcell{key: minKey, agg: agg})
		} else {
			sc.childRefs = sc.childRefs[:0]
			for i := range sc.iters {
				it := &sc.iters[i]
				if !it.done && cmpKeys(it.key, minKey) == 0 {
					sc.childRefs = append(sc.childRefs, nref{view: it.view, id: it.child})
					if err := it.next(); err != nil {
						return 0, err
					}
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
			a, err := m.views[sc.iters[i].view].allAgg(sc.iters[i].n)
			if err != nil {
				return 0, err
			}
			allAgg = MergeAggregates(allAgg, a)
		}
	} else {
		sc.allRefs = sc.allRefs[:0]
		for i := range sc.iters {
			id, err := m.views[sc.iters[i].view].allChild(sc.iters[i].n)
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

// emit encodes one node record, content-addresses it against every record
// emitted so far, and either returns the existing id (suffix coalescing /
// hash-consing on encoded bytes) or appends it as the next node.
func (m *viewMerger) emit(level int, leaf bool, cells []mcell, allID uint32, allAgg Aggregate) (uint32, error) {
	rec := m.rec[:0]
	rec = binary.AppendUvarint(rec, uint64(level))
	if leaf {
		rec = append(rec, 1)
	} else {
		rec = append(rec, 0)
	}
	rec = binary.AppendUvarint(rec, uint64(len(cells)))
	for i := range cells {
		c := &cells[i]
		rec = binary.AppendUvarint(rec, uint64(len(c.key)))
		rec = append(rec, c.key...)
		if leaf {
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

	h := maphash.Bytes(m.seed, rec)
	for _, id := range m.canon[h] {
		if bytes.Equal(rec, m.buf[m.starts[id-1]:m.ends[id-1]]) {
			m.shared++
			return id, nil
		}
	}
	if len(m.buf)+len(rec) > maxStreamBytes {
		return 0, ErrMergeTooLarge
	}
	start := uint32(len(m.buf))
	m.buf = append(m.buf, rec...)
	m.starts = append(m.starts, start)
	m.ends = append(m.ends, uint32(len(m.buf)))
	m.allOffs = append(m.allOffs, start+uint32(allOff))
	id := uint32(len(m.starts))
	m.canon[h] = append(m.canon[h], id)
	m.cells += len(cells)
	for i := range cells {
		m.zones.add(level, cells[i].key)
	}
	return id, nil
}

// assemble lays the final stream down: v1 header, node section (offsets
// shifted to absolute), root id, CRC, then the v2 offset trailer and the
// v3 zone-map section — the byte-for-byte layout EncodeIndexed produces.
func (m *viewMerger) assemble(dims []string, numTuples uint64, fromQuery bool, rootOut uint32) ([]byte, error) {
	hdr := make([]byte, 0, 64)
	hdr = append(hdr, codecMagic...)
	hdr = append(hdr, codecVersion)
	flags := byte(0)
	if fromQuery {
		flags |= 1
	}
	hdr = append(hdr, flags)
	hdr = binary.AppendUvarint(hdr, numTuples)
	hdr = binary.AppendUvarint(hdr, uint64(len(dims)))
	for _, d := range dims {
		hdr = binary.AppendUvarint(hdr, uint64(len(d)))
		hdr = append(hdr, d...)
	}
	hdr = binary.AppendUvarint(hdr, uint64(len(m.starts)))
	nodesStart := len(hdr)

	var rootBuf [binary.MaxVarintLen64]byte
	rootLen := binary.PutUvarint(rootBuf[:], uint64(rootOut))
	v1Len := nodesStart + len(m.buf) + rootLen + 4
	if v1Len > maxStreamBytes {
		return nil, ErrMergeTooLarge
	}
	out := make([]byte, 0, v1Len+trailerFixedLen+8*len(m.starts)+trailerFootLen)
	out = append(out, hdr...)
	out = append(out, m.buf...)
	out = append(out, rootBuf[:rootLen]...)
	crc := crc32.ChecksumIEEE(out[len(codecMagic):])
	out = binary.LittleEndian.AppendUint32(out, crc)

	for i := range m.starts {
		m.starts[i] += uint32(nodesStart)
		m.allOffs[i] += uint32(nodesStart)
	}
	out = appendTrailer(out, m.starts, m.allOffs, uint64(rootOut), nodesStart)
	return appendMetaTrailer(out, m.zones.zones), nil
}

// appendAggregate encodes an aggregate exactly as the codec's writeAgg
// does: sum, min, max as little-endian float64 bits, then count uvarint.
func appendAggregate(b []byte, a Aggregate) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Sum))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Min))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Max))
	return binary.AppendUvarint(b, uint64(a.Count))
}
