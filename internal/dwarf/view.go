package dwarf

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// CubeView answers queries directly against a []byte in the DWRFCUBE
// encoding, without decoding the node graph: no Node allocation, no copy of
// keys or aggregates, just bounds-checked reads of the encoded bytes. A view
// over an mmap'd cube file therefore shares one kernel page cache across
// every process serving the same cube, which is what lets dwarfd hold many
// large cubes hot at once.
//
// Random access into the node section needs one offset per node. When the
// stream carries the v2 node-offset trailer (see EncodeIndexed) the index is
// read straight from the trailer and OpenView is O(header). Otherwise the
// index is built lazily on first touch by a single validating scan of the
// node section.
//
// A CubeView is safe for concurrent readers: after construction all state is
// immutable except the lazily built index, which is guarded by a sync.Once.
//
// Query semantics mirror *Cube exactly — the differential property tests in
// view_test.go hold every answer of every query shape equal between the two,
// under every construction option set.
type CubeView struct {
	data []byte
	hdr  viewHeader

	// indexed is true when the offsets below were taken from a v2 trailer
	// at open time. It is written only before the view is shared.
	indexed bool

	once    sync.Once
	built   atomic.Bool // set once the Once has run; heapBytes reads it
	idxErr  error
	starts  []uint32 // starts[id-1]: offset of node id's record
	allOffs []uint32 // allOffs[id-1]: offset of node id's ALL record
	rootID  uint64

	// zones are the per-dimension zone maps from the v3 metadata section,
	// nil when the stream carries none (v1/v2 files). Immutable after open.
	zones []ZoneMap

	// The fanout side-index, built once on the first query (ensure): flat
	// per-node header metadata plus one offset per cell, so a descent never
	// re-parses a record header and key lookups binary-search the sorted
	// cells instead of scanning them. ~13 bytes per node + 4 per cell; for
	// the serving tier that trade buys the cube-like Point latency the
	// encoded representation otherwise gives up to varint parsing.
	levels   []uint16 // levels[id-1]: node id's level
	ncells   []uint32 // ncells[id-1]: node id's key-cell count
	cellsOff []uint32 // cellsOff[id-1]: offset of node id's first cell
	cellIdx  []uint32 // cellIdx[id-1]: node id's slot range start in cellOffs
	cellOffs []uint32 // one offset per cell record, node-major, key order
}

// errCorrupt wraps a structural complaint in ErrCorruptCube so every parse
// failure — decoder or view — satisfies errors.Is(err, ErrCorruptCube).
func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptCube, fmt.Sprintf(format, args...))
}

// cursor is a bounds-checked reader over the payload of an encoded cube.
// Every out-of-bounds or malformed read returns ErrCorruptCube; cursors
// never panic on arbitrary bytes.
type cursor struct {
	data []byte
	pos  int
	end  int // exclusive limit (start of the CRC word)
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.pos:c.end])
	if n <= 0 {
		return 0, errCorrupt("bad uvarint at offset %d", c.pos)
	}
	c.pos += n
	return v, nil
}

func (c *cursor) u8() (byte, error) {
	if c.pos >= c.end {
		return 0, errCorrupt("unexpected end of stream at offset %d", c.pos)
	}
	b := c.data[c.pos]
	c.pos++
	return b, nil
}

// str reads a length-prefixed string and returns a view of its bytes.
func (c *cursor) str() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(c.end-c.pos) {
		return nil, errCorrupt("string of %d bytes overruns stream at offset %d", n, c.pos)
	}
	s := c.data[c.pos : c.pos+int(n)]
	c.pos += int(n)
	return s, nil
}

// skipAgg advances over an encoded aggregate without decoding its floats —
// the hot path for cell scans that pass over non-matching leaf cells.
func (c *cursor) skipAgg() error {
	if c.end-c.pos < 24 {
		return errCorrupt("truncated aggregate at offset %d", c.pos)
	}
	c.pos += 24
	_, err := c.uvarint()
	return err
}

func (c *cursor) agg() (Aggregate, error) {
	if c.end-c.pos < 24 {
		return Aggregate{}, errCorrupt("truncated aggregate at offset %d", c.pos)
	}
	var a Aggregate
	a.Sum = f64frombytes(c.data[c.pos:])
	a.Min = f64frombytes(c.data[c.pos+8:])
	a.Max = f64frombytes(c.data[c.pos+16:])
	c.pos += 24
	cnt, err := c.uvarint()
	if err != nil {
		return Aggregate{}, err
	}
	a.Count = int64(cnt)
	return a, nil
}

// viewHeader is the parsed fixed header of a v1 stream: everything before
// the node section.
type viewHeader struct {
	numTuples  uint64
	fromQuery  bool
	dims       []string
	nodeCount  uint64
	nodesStart int
	payloadEnd int // offset of the v1 CRC word
}

// parseViewHeader parses the header of v1, a stream with any offset trailer
// already stripped (see splitIndexed).
func parseViewHeader(v1 []byte) (viewHeader, error) {
	if len(v1) < len(codecMagic)+4 {
		return viewHeader{}, errCorrupt("stream of %d bytes is shorter than magic plus checksum", len(v1))
	}
	if string(v1[:len(codecMagic)]) != codecMagic {
		return viewHeader{}, ErrBadMagic
	}
	h := viewHeader{payloadEnd: len(v1) - 4}
	cur := cursor{data: v1, pos: len(codecMagic), end: h.payloadEnd}
	version, err := cur.u8()
	if err != nil {
		return viewHeader{}, err
	}
	if version != codecVersion {
		return viewHeader{}, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	flags, err := cur.u8()
	if err != nil {
		return viewHeader{}, err
	}
	h.fromQuery = flags&1 != 0
	if h.numTuples, err = cur.uvarint(); err != nil {
		return viewHeader{}, err
	}
	ndims, err := cur.uvarint()
	if err != nil {
		return viewHeader{}, err
	}
	if ndims == 0 || ndims > 1<<16 {
		return viewHeader{}, errCorrupt("implausible dimension count %d", ndims)
	}
	h.dims = make([]string, ndims)
	for i := range h.dims {
		d, err := cur.str()
		if err != nil {
			return viewHeader{}, err
		}
		h.dims[i] = string(d)
	}
	if h.nodeCount, err = cur.uvarint(); err != nil {
		return viewHeader{}, err
	}
	if h.nodeCount > uint64(len(v1)) {
		return viewHeader{}, errCorrupt("node count %d exceeds stream size", h.nodeCount)
	}
	h.nodesStart = cur.pos
	return h, nil
}

// scanEncoded walks the node section of a v1 stream once, front to back,
// validating every structural invariant the query walks rely on: levels in
// range, the leaf flag agreeing with the level, cell keys strictly sorted,
// child ids pointing backwards to nodes one level deeper, and the stream
// fully consumed. It returns the per-node record and ALL-record offsets plus
// the root id — the same index the v2 trailer carries precomputed.
// When zacc is non-nil the scan also folds every cell key into it, giving
// the upgrade path (AppendOffsetTrailer) its zone maps for free.
func scanEncoded(v1 []byte, h viewHeader, zacc *zoneAcc) (starts, allOffs []uint32, rootID uint64, err error) {
	if len(v1) > maxStreamBytes {
		return nil, nil, 0, errCorrupt("stream of %d bytes exceeds the 4 GiB offset-index limit", len(v1))
	}
	ndims := len(h.dims)
	cur := cursor{data: v1, pos: h.nodesStart, end: h.payloadEnd}
	starts = make([]uint32, h.nodeCount)
	allOffs = make([]uint32, h.nodeCount)
	levels := make([]int32, h.nodeCount)
	for id := uint64(1); id <= h.nodeCount; id++ {
		starts[id-1] = uint32(cur.pos)
		level, err := cur.uvarint()
		if err != nil {
			return nil, nil, 0, err
		}
		if level >= uint64(ndims) {
			return nil, nil, 0, errCorrupt("node %d: level %d out of range for %d dimensions", id, level, ndims)
		}
		leafB, err := cur.u8()
		if err != nil {
			return nil, nil, 0, err
		}
		if leafB > 1 {
			return nil, nil, 0, errCorrupt("node %d: bad leaf flag %d", id, leafB)
		}
		leaf := leafB == 1
		if leaf != (int(level) == ndims-1) {
			return nil, nil, 0, errCorrupt("node %d: leaf flag %v disagrees with level %d of %d", id, leaf, level, ndims)
		}
		levels[id-1] = int32(level)
		ncells, err := cur.uvarint()
		if err != nil {
			return nil, nil, 0, err
		}
		if ncells > uint64(cur.end-cur.pos) {
			return nil, nil, 0, errCorrupt("node %d: cell count %d overruns stream", id, ncells)
		}
		var prevKey []byte
		for i := uint64(0); i < ncells; i++ {
			key, err := cur.str()
			if err != nil {
				return nil, nil, 0, err
			}
			if i > 0 && cmpKeys(prevKey, key) >= 0 {
				return nil, nil, 0, errCorrupt("node %d: cell keys not strictly sorted", id)
			}
			prevKey = key
			if zacc != nil {
				zacc.add(int(level), key)
			}
			if leaf {
				if _, err := cur.agg(); err != nil {
					return nil, nil, 0, err
				}
			} else {
				child, err := cur.uvarint()
				if err != nil {
					return nil, nil, 0, err
				}
				if child == 0 || child >= id {
					return nil, nil, 0, errCorrupt("node %d: cell child id %d is not an earlier node", id, child)
				}
				if levels[child-1] != int32(level)+1 {
					return nil, nil, 0, errCorrupt("node %d: child %d at level %d, want %d", id, child, levels[child-1], level+1)
				}
			}
		}
		allOffs[id-1] = uint32(cur.pos)
		if leaf {
			if _, err := cur.agg(); err != nil {
				return nil, nil, 0, err
			}
		} else {
			all, err := cur.uvarint()
			if err != nil {
				return nil, nil, 0, err
			}
			if all >= id {
				return nil, nil, 0, errCorrupt("node %d: ALL child id %d is not an earlier node", id, all)
			}
			if all != 0 && levels[all-1] != int32(level)+1 {
				return nil, nil, 0, errCorrupt("node %d: ALL child %d at level %d, want %d", id, all, levels[all-1], level+1)
			}
		}
	}
	if rootID, err = cur.uvarint(); err != nil {
		return nil, nil, 0, err
	}
	if rootID > h.nodeCount {
		return nil, nil, 0, errCorrupt("root id %d exceeds node count %d", rootID, h.nodeCount)
	}
	if h.nodeCount > 0 && (rootID == 0 || levels[rootID-1] != 0) {
		return nil, nil, 0, errCorrupt("root id %d does not name a level-0 node", rootID)
	}
	if cur.pos != h.payloadEnd {
		return nil, nil, 0, errCorrupt("%d trailing bytes after root id", h.payloadEnd-cur.pos)
	}
	return starts, allOffs, rootID, nil
}

// OpenView verifies the stream's checksum and prepares a zero-copy view
// over it. With a v2 offset trailer (EncodeIndexed) the node index comes
// from the trailer; otherwise it is built lazily by a validating scan on
// the first query. The view aliases data: the caller must not mutate it
// while the view is in use.
func OpenView(data []byte) (*CubeView, error) { return openView(data, true) }

// OpenViewTrusted is OpenView without the payload checksum pass, for O(1)
// opens of bytes whose integrity is already guaranteed — a region this
// process just encoded, or a file the storage layer checksums itself.
// Queries remain memory-safe on corrupt input, but may return wrong answers
// instead of ErrCorruptCube.
func OpenViewTrusted(data []byte) (*CubeView, error) { return openView(data, false) }

func openView(data []byte, verify bool) (*CubeView, error) {
	v1, trailer, meta, err := splitSections(data)
	if err != nil {
		return nil, err
	}
	if verify {
		if err := verifyPayload(v1); err != nil {
			return nil, err
		}
	}
	h, err := parseViewHeader(v1)
	if err != nil {
		return nil, err
	}
	v := &CubeView{data: v1, hdr: h}
	if meta != nil {
		if v.zones, err = parseZoneMaps(meta, len(h.dims)); err != nil {
			return nil, err
		}
	}
	if trailer != nil {
		if err := v.loadTrailer(trailer); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// loadTrailer adopts the offset index carried by a CRC-validated trailer
// body, cross-checking it against the header so a well-formed trailer can
// never send reads outside the node section.
func (v *CubeView) loadTrailer(body []byte) error {
	if len(body) < trailerFixedLen {
		return errCorrupt("offset trailer body of %d bytes is too short", len(body))
	}
	nodeCount := uint64(binary.LittleEndian.Uint32(body))
	rootID := uint64(binary.LittleEndian.Uint32(body[4:]))
	nodesStart := int(binary.LittleEndian.Uint32(body[8:]))
	if nodeCount != v.hdr.nodeCount || nodesStart != v.hdr.nodesStart {
		return errCorrupt("offset trailer disagrees with header: %d nodes at %d vs %d at %d",
			nodeCount, nodesStart, v.hdr.nodeCount, v.hdr.nodesStart)
	}
	if uint64(len(body)-trailerFixedLen) != nodeCount*8 {
		return errCorrupt("offset trailer body is %d bytes, want %d for %d nodes",
			len(body), trailerFixedLen+nodeCount*8, nodeCount)
	}
	if rootID > nodeCount || (nodeCount > 0 && rootID == 0) {
		return errCorrupt("offset trailer root id %d out of range for %d nodes", rootID, nodeCount)
	}
	starts := make([]uint32, nodeCount)
	allOffs := make([]uint32, nodeCount)
	var prevAll uint32
	for i := uint64(0); i < nodeCount; i++ {
		start := binary.LittleEndian.Uint32(body[trailerFixedLen+8*i:])
		allOff := binary.LittleEndian.Uint32(body[trailerFixedLen+8*i+4:])
		if i == 0 {
			if int(start) != nodesStart {
				return errCorrupt("offset trailer first node at %d, want %d", start, nodesStart)
			}
		} else if start <= prevAll {
			return errCorrupt("offset trailer entry %d out of order", i+1)
		}
		// The ALL record sits inside the node record, after the header and
		// cells, and before the payload's CRC word.
		if allOff <= start || uint64(allOff) >= uint64(v.hdr.payloadEnd) {
			return errCorrupt("offset trailer entry %d out of range", i+1)
		}
		starts[i] = start
		allOffs[i] = allOff
		prevAll = allOff
	}
	v.starts, v.allOffs, v.rootID = starts, allOffs, rootID
	v.indexed = true
	// The scan-built index proves the root is a level-0 node; hold a forged
	// trailer to the same bar so no query path can silently start mid-cube.
	if rootID != 0 {
		n, err := v.node(rootID)
		if err != nil {
			return err
		}
		if n.level != 0 {
			return errCorrupt("offset trailer root id %d names a level-%d node", rootID, n.level)
		}
	}
	return nil
}

// ensure makes the node offset index and the fanout side-index available,
// building them on the first query so opens stay O(header) for
// trailer-carrying streams. Safe for concurrent callers.
func (v *CubeView) ensure() error {
	v.once.Do(func() {
		if !v.indexed {
			starts, allOffs, rootID, err := scanEncoded(v.data, v.hdr, nil)
			if err != nil {
				v.idxErr = err
				return
			}
			v.starts, v.allOffs, v.rootID = starts, allOffs, rootID
		}
		v.idxErr = v.buildFanoutIndex()
		v.built.Store(true)
	})
	return v.idxErr
}

// heapBytes reports what the view holds on the heap beside its data: the
// node offset index (8 B a node) and, once the first query or merge has
// built it, the fanout side-index (14 B a node plus 4 B a cell). It never
// builds either, and is safe beside concurrent queries: slices the Once
// writes are read only after it has run.
func (v *CubeView) heapBytes() int {
	built := v.built.Load()
	if !built && !v.indexed {
		return 0
	}
	n := 4 * (cap(v.starts) + cap(v.allOffs))
	if built {
		n += 2*cap(v.levels) + 4*(cap(v.ncells)+cap(v.cellsOff)+cap(v.cellIdx)+cap(v.cellOffs))
	}
	return n
}

// buildFanoutIndex walks the node section once, recording every record
// header (level, cell count, first-cell offset) and every cell offset into
// flat arrays. All reads are bounds-checked, so a corrupt (trusted-open)
// stream fails with ErrCorruptCube here rather than mid-query; each node's
// walk is also cross-checked against the ALL offset the trailer or scan
// produced, tying the two indexes together.
func (v *CubeView) buildFanoutIndex() error {
	nodeCount := v.hdr.nodeCount
	ndims := uint64(len(v.hdr.dims))
	levels := make([]uint16, nodeCount)
	ncells := make([]uint32, nodeCount)
	cellsOff := make([]uint32, nodeCount)
	cellIdx := make([]uint32, nodeCount+1)
	cellOffs := make([]uint32, 0, nodeCount*4)
	for id := uint64(1); id <= nodeCount; id++ {
		cur := cursor{data: v.data, pos: int(v.starts[id-1]), end: v.hdr.payloadEnd}
		level, err := cur.uvarint()
		if err != nil {
			return err
		}
		if level >= ndims {
			return errCorrupt("node %d: level %d out of range for %d dimensions", id, level, ndims)
		}
		leafB, err := cur.u8()
		if err != nil {
			return err
		}
		if leafB > 1 {
			return errCorrupt("node %d: bad leaf flag %d", id, leafB)
		}
		leaf := leafB == 1
		if leaf != (level == ndims-1) {
			return errCorrupt("node %d: leaf flag %v disagrees with level %d of %d", id, leaf, level, ndims)
		}
		nc, err := cur.uvarint()
		if err != nil {
			return err
		}
		if nc > uint64(cur.end-cur.pos) {
			return errCorrupt("node %d: cell count %d overruns stream", id, nc)
		}
		levels[id-1] = uint16(level)
		ncells[id-1] = uint32(nc)
		cellsOff[id-1] = uint32(cur.pos)
		cellIdx[id-1] = uint32(len(cellOffs))
		for i := uint64(0); i < nc; i++ {
			cellOffs = append(cellOffs, uint32(cur.pos))
			if _, err := cur.str(); err != nil {
				return err
			}
			if leaf {
				if err := cur.skipAgg(); err != nil {
					return err
				}
			} else if _, err := cur.uvarint(); err != nil {
				return err
			}
		}
		if uint32(cur.pos) != v.allOffs[id-1] {
			return errCorrupt("node %d: cells end at %d but ALL record starts at %d", id, cur.pos, v.allOffs[id-1])
		}
	}
	cellIdx[nodeCount] = uint32(len(cellOffs))
	v.levels, v.ncells, v.cellsOff = levels, ncells, cellsOff
	v.cellIdx, v.cellOffs = cellIdx, cellOffs
	return nil
}

// Indexed reports whether the node offset index was read from a v2 trailer
// (true) or must be / was built by scanning (false).
func (v *CubeView) Indexed() bool { return v.indexed }

// ZoneMaps returns the per-dimension zone maps carried by the stream's v3
// metadata section, or nil when the stream has none (v1/v2 files) — callers
// must then treat every segment as possibly matching.
func (v *CubeView) ZoneMaps() []ZoneMap {
	if v.zones == nil {
		return nil
	}
	return append([]ZoneMap(nil), v.zones...)
}

// Dims returns the cube's dimension names in order.
func (v *CubeView) Dims() []string { return append([]string(nil), v.hdr.dims...) }

// NumDims returns the number of dimensions.
func (v *CubeView) NumDims() int { return len(v.hdr.dims) }

// NumSourceTuples returns how many fact tuples were folded into the cube.
func (v *CubeView) NumSourceTuples() int { return int(v.hdr.numTuples) }

// FromQuery reports the paper's is_cube flag: whether the encoded cube was
// produced by querying another DWARF.
func (v *CubeView) FromQuery() bool { return v.hdr.fromQuery }

// EncodedBytes returns the size of the underlying v1 stream (any offset
// trailer excluded).
func (v *CubeView) EncodedBytes() int { return len(v.data) }

// vnode is a parsed node record header; cells is a cursor positioned at the
// first cell.
type vnode struct {
	id     uint64
	level  int
	leaf   bool
	ncells int
	cells  cursor
	allPos int
}

// node parses the record header of node id. Callers must hold a built index
// (ensure). With the fanout side-index in place the header comes from the
// flat arrays — no varint parsing per descent step.
func (v *CubeView) node(id uint64) (vnode, error) {
	if id == 0 || id > uint64(len(v.starts)) {
		return vnode{}, errCorrupt("node id %d out of range", id)
	}
	if v.cellsOff != nil {
		level := int(v.levels[id-1])
		return vnode{
			id: id, level: level, leaf: level == len(v.hdr.dims)-1,
			ncells: int(v.ncells[id-1]),
			cells:  cursor{data: v.data, pos: int(v.cellsOff[id-1]), end: v.hdr.payloadEnd},
			allPos: int(v.allOffs[id-1]),
		}, nil
	}
	cur := cursor{data: v.data, pos: int(v.starts[id-1]), end: v.hdr.payloadEnd}
	level, err := cur.uvarint()
	if err != nil {
		return vnode{}, err
	}
	if level >= uint64(len(v.hdr.dims)) {
		return vnode{}, errCorrupt("node %d: level %d out of range", id, level)
	}
	leafB, err := cur.u8()
	if err != nil {
		return vnode{}, err
	}
	ncells, err := cur.uvarint()
	if err != nil {
		return vnode{}, err
	}
	if ncells > uint64(cur.end-cur.pos) {
		return vnode{}, errCorrupt("node %d: cell count %d overruns stream", id, ncells)
	}
	return vnode{
		id: id, level: int(level), leaf: leafB == 1, ncells: int(ncells),
		cells: cur, allPos: int(v.allOffs[id-1]),
	}, nil
}

// allAgg reads a leaf node's ALL aggregate.
func (v *CubeView) allAgg(n *vnode) (Aggregate, error) {
	cur := cursor{data: v.data, pos: n.allPos, end: v.hdr.payloadEnd}
	return cur.agg()
}

// allChild reads a non-leaf node's ALL child id (0 = nil).
func (v *CubeView) allChild(n *vnode) (uint64, error) {
	cur := cursor{data: v.data, pos: n.allPos, end: v.hdr.payloadEnd}
	id, err := cur.uvarint()
	if err != nil {
		return 0, err
	}
	if id >= n.id {
		return 0, errCorrupt("node %d: ALL child id %d is not an earlier node", n.id, id)
	}
	return id, nil
}

// childID validates a cell's child reference.
func (n *vnode) childID(id uint64) (uint64, error) {
	if id == 0 || id >= n.id {
		return 0, errCorrupt("node %d: cell child id %d is not an earlier node", n.id, id)
	}
	return id, nil
}

// findCell binary-searches node id's sorted cells for key using the fanout
// side-index. It returns the offset of the matched cell's value (the leaf
// aggregate bytes or the child-id uvarint). Offsets in cellOffs were
// validated in-bounds when the index was built.
func (v *CubeView) findCell(id uint64, key string) (valPos int, ok bool) {
	lo, hi := int(v.cellIdx[id-1]), int(v.cellIdx[id])
	end := v.hdr.payloadEnd
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		pos := int(v.cellOffs[m])
		klen, w := binary.Uvarint(v.data[pos:end])
		ks := pos + w
		switch c := cmpKeyStr(v.data[ks:ks+int(klen)], key); {
		case c < 0:
			lo = m + 1
		case c > 0:
			hi = m
		default:
			return ks + int(klen), true
		}
	}
	return 0, false
}

// lookupCell finds key among the node's sorted cells — a binary search over
// the fanout side-index when built, a front-to-back scan otherwise. It
// returns the leaf aggregate or child id of the matching cell.
func (v *CubeView) lookupCell(n vnode, key string) (agg Aggregate, child uint64, found bool, err error) {
	if v.cellIdx != nil {
		valPos, ok := v.findCell(n.id, key)
		if !ok {
			return Aggregate{}, 0, false, nil
		}
		cur := cursor{data: v.data, pos: valPos, end: v.hdr.payloadEnd}
		if n.leaf {
			a, err := cur.agg()
			return a, 0, err == nil, err
		}
		id, err := cur.uvarint()
		if err != nil {
			return Aggregate{}, 0, false, err
		}
		id, err = n.childID(id)
		return Aggregate{}, id, err == nil, err
	}
	cur := n.cells
	for i := 0; i < n.ncells; i++ {
		k, err := cur.str()
		if err != nil {
			return Aggregate{}, 0, false, err
		}
		c := cmpKeyStr(k, key)
		if c > 0 { // sorted: the key is absent
			return Aggregate{}, 0, false, nil
		}
		if n.leaf {
			if c == 0 {
				a, err := cur.agg()
				if err != nil {
					return Aggregate{}, 0, false, err
				}
				return a, 0, true, nil
			}
			if err := cur.skipAgg(); err != nil {
				return Aggregate{}, 0, false, err
			}
		} else {
			id, err := cur.uvarint()
			if err != nil {
				return Aggregate{}, 0, false, err
			}
			if c == 0 {
				id, err = n.childID(id)
				return Aggregate{}, id, err == nil, err
			}
		}
	}
	return Aggregate{}, 0, false, nil
}

// The query methods on *CubeView are thin wrappers over the unified kernel
// (kernel.go), which reads the encoded bytes through the view's Source
// implementation (source.go). The same kernel serves *Cube, so both
// representations answer every shape from literally the same code.

// Point answers a point or ALL-wildcard query against the encoded bytes,
// with the same semantics as Cube.Point: absent combinations yield the zero
// Aggregate, errors are reserved for malformed queries and corrupt streams.
//
// This is a dedicated descent over the fanout side-index — header metadata
// from flat arrays, cell lookup by binary search, no interface dispatch —
// and the differential suites hold it answer-identical to QueryPoint over
// the generic Source path.
func (v *CubeView) Point(keys ...string) (Aggregate, error) {
	ndims := len(v.hdr.dims)
	if len(keys) != ndims {
		return Aggregate{}, fmt.Errorf("%w: got %d keys, cube has %d dimensions", ErrBadQuery, len(keys), ndims)
	}
	if err := v.ensure(); err != nil {
		return Aggregate{}, err
	}
	id := v.rootID
	if id == 0 {
		return Aggregate{}, nil
	}
	for l := 0; ; l++ {
		if int(v.levels[id-1]) != l {
			return Aggregate{}, errCorrupt("node %d: level %d at traversal depth %d", id, v.levels[id-1], l)
		}
		leaf := l == ndims-1
		var valPos int
		if keys[l] == All {
			valPos = int(v.allOffs[id-1])
		} else {
			pos, ok := v.findCell(id, keys[l])
			if !ok {
				return Aggregate{}, nil
			}
			valPos = pos
		}
		cur := cursor{data: v.data, pos: valPos, end: v.hdr.payloadEnd}
		if leaf {
			return cur.agg()
		}
		child, err := cur.uvarint()
		if err != nil {
			return Aggregate{}, err
		}
		if child >= id {
			return Aggregate{}, errCorrupt("node %d: child id %d is not an earlier node", id, child)
		}
		if keys[l] != All && child == 0 {
			return Aggregate{}, errCorrupt("node %d: cell child id 0", id)
		}
		if child == 0 {
			// An absent ALL sub-dwarf: the whole branch aggregates to zero.
			return Aggregate{}, nil
		}
		id = child
	}
}

// Range aggregates over the sub-cube addressed by one selector per
// dimension, mirroring Cube.Range.
func (v *CubeView) Range(sels []Selector) (Aggregate, error) {
	return QueryRange(v, sels)
}

// GroupBy returns, for the dimension at index dim, the aggregate of every
// key under the restriction of sels, mirroring Cube.GroupBy.
func (v *CubeView) GroupBy(dim int, sels []Selector) (map[string]Aggregate, error) {
	return QueryGroupBy(v, dim, sels)
}

// Pivot is the multi-dimension GroupBy, mirroring Cube.Pivot, straight off
// the encoded bytes.
func (v *CubeView) Pivot(dims []int, sels []Selector) ([]PivotGroup, error) {
	return QueryPivot(v, dims, sels)
}

// TopK ranks the groups of the dimension at index dim by spec's metric,
// mirroring Cube.TopK, straight off the encoded bytes.
func (v *CubeView) TopK(dim int, sels []Selector, spec TopKSpec) ([]GroupEntry, error) {
	return QueryTopK(v, dim, sels, spec)
}

// Tuples enumerates the cube's base facts in sorted dimension order,
// mirroring Cube.Tuples. The callback receives a reused dims slice; copy it
// to retain. Unlike the in-memory cube, enumeration can fail on a corrupt
// stream, hence the error return.
func (v *CubeView) Tuples(fn func(dims []string, agg Aggregate) bool) error {
	return QueryTuples(v, fn)
}

// Stats counts nodes and cells straight off the encoded bytes, matching
// Cube.Stats for the same cube (the encoding holds exactly the distinct
// reachable nodes).
func (v *CubeView) Stats() (Stats, error) {
	if err := v.ensure(); err != nil {
		return Stats{}, err
	}
	st := Stats{SourceTuples: int(v.hdr.numTuples)}
	for id := uint64(1); id <= v.hdr.nodeCount; id++ {
		n, err := v.node(id)
		if err != nil {
			return Stats{}, err
		}
		st.Nodes++
		st.AllCells++
		st.Cells += n.ncells
		st.EstBytes += nodeOverheadBytes
		cur := n.cells
		for i := 0; i < n.ncells; i++ {
			k, err := cur.str()
			if err != nil {
				return Stats{}, err
			}
			st.EstBytes += cellOverheadBytes + int64(len(k))
			if n.leaf {
				if err := cur.skipAgg(); err != nil {
					return Stats{}, err
				}
			} else if _, err := cur.uvarint(); err != nil {
				return Stats{}, err
			}
		}
	}
	return st, nil
}

// f64frombytes decodes a little-endian float64 from the first 8 bytes of b.
func f64frombytes(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// cmpKeys compares two encoded keys.
func cmpKeys(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// cmpKeyStr compares an encoded key against a query key without allocating.
func cmpKeyStr(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}
