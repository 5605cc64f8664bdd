package dwarf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// Binary cube format, used by the flat-file baselines and for moving cubes
// between processes:
//
//	magic "DWRFCUBE" | version u8 | flags u8 | numTuples uvarint
//	ndims uvarint | dim names (uvarint len + bytes) ...
//	node count uvarint
//	nodes in child-before-parent order, each:
//	  level uvarint | leaf u8 | ncells uvarint
//	  cells: key (uvarint len + bytes) + (child id uvarint | aggregate)
//	  all:   child id uvarint (non-leaf; 0 = nil) | aggregate (leaf)
//	root id uvarint
//	crc32 (IEEE) of everything between magic and trailer, fixed u32
//
// Node ids are 1-based positions in the emission order, so every child id
// refers to an already-decoded node.
//
// An optional v2 node-offset trailer may follow the CRC word (see
// EncodeIndexed). It is self-describing — detected by the 8-byte magic at
// the very end of the stream — and carries its own CRC, so readers that
// know about it get an O(1) node index while the v1 portion of the stream
// is byte-for-byte unchanged:
//
//	trailer body:
//	  node count u32 | root id u32 | nodes-section offset u32
//	  per node: record offset u32 | ALL-record offset u32
//	trailer footer:
//	  crc32 (IEEE) of body u32 | body length u32 | magic "DWRFNDX2"
//
// All offsets are absolute byte positions in the v1 stream. Streams larger
// than 4 GiB cannot carry a trailer (offsets are u32) and fall back to the
// scan-built index.
//
// An optional v3 metadata section may follow the v2 trailer, carrying the
// per-dimension zone maps (see zonemap.go). Like the v2 trailer it is
// self-describing — detected by its own 8-byte magic at the very end of the
// stream, with its own CRC — so v1 and v2 readers are unaffected: they
// either strip it or never look past the v1 CRC word:
//
//	meta body:
//	  ndims uvarint
//	  per dimension: distinct uvarint | min key (uvarint len + bytes)
//	                 | max key (uvarint len + bytes)
//	meta footer:
//	  crc32 (IEEE) of body u32 | body length u32 | magic "DWRFMET3"
const (
	codecMagic   = "DWRFCUBE"
	codecVersion = 1

	trailerMagic    = "DWRFNDX2"
	trailerFixedLen = 12                        // node count + root id + nodes start
	trailerFootLen  = 4 + 4 + len(trailerMagic) // body CRC + body length + magic

	metaMagic   = "DWRFMET3"
	metaFootLen = 4 + 4 + len(metaMagic) // body CRC + body length + magic

	// maxAggLen is the longest encoded aggregate: three float64s and a
	// count uvarint.
	maxAggLen = 24 + binary.MaxVarintLen64

	// maxStreamBytes bounds streams that can carry or build a u32 offset
	// index.
	maxStreamBytes = math.MaxUint32
)

// Codec errors.
var (
	ErrBadMagic    = errors.New("dwarf: not a DWARF cube stream")
	ErrBadVersion  = errors.New("dwarf: unsupported cube format version")
	ErrCorruptCube = errors.New("dwarf: corrupt cube stream")
)

// encodeOffsets captures, during one encode pass, exactly the node index a
// post-hoc scanEncoded would recover: per-node record and ALL-record
// offsets (absolute stream positions), the root id and the node section
// start. EncodeIndexed uses it to attach the v2 trailer without re-scanning
// the stream it just wrote.
type encodeOffsets struct {
	starts, allOffs []uint32
	rootID          uint64
	nodesStart      int
	// order and ids are the emission-order scratch of the encode pass,
	// pooled here so repeated encodes (seals, every segment write) reuse
	// their backing storage.
	order []*Node
	ids   map[*Node]uint64
}

var encodeOffsetsPool = sync.Pool{New: func() any {
	return &encodeOffsets{ids: make(map[*Node]uint64)}
}}

// reset drops every node reference before the struct goes back in the
// pool — a pooled encodeOffsets must never pin the node graph of the cube
// it last encoded (clearing order's full length zeroes the *Node pointers,
// not just the slice header).
func (e *encodeOffsets) reset() {
	e.starts = e.starts[:0]
	e.allOffs = e.allOffs[:0]
	e.rootID = 0
	e.nodesStart = 0
	clear(e.order)
	e.order = e.order[:0]
	clear(e.ids)
}

// encode is the v1 encoding pass behind EncodeIndexed: it appends the v1
// stream record by record with the framing MergeViews and BuildIndexed
// use, recording node offsets into idx, and checksums the finished slice
// once.
func (c *Cube) encode(idx *encodeOffsets) []byte {
	// Assign ids children-first so references always point backwards.
	ids := idx.ids
	order := idx.order
	c.VisitDepthFirst(func(n *Node) bool {
		order = append(order, n)
		ids[n] = uint64(len(order))
		return true
	})
	idx.order = order
	out := appendStreamHead(nil, c.dims, uint64(c.numTuples), c.FromQuery, len(order))
	idx.nodesStart = len(out)
	for _, n := range order {
		// Room for the record at its longest: header and ALL, plus each
		// cell's key with an aggregate or child id.
		need := 2*binary.MaxVarintLen64 + 1 + maxAggLen
		for i := range n.Cells {
			need += binary.MaxVarintLen64 + len(n.Cells[i].Key) + maxAggLen
		}
		out = grow(out, need)
		idx.starts = append(idx.starts, uint32(len(out)))
		out = appendRecordHead(out, n.Level, n.Leaf, len(n.Cells))
		for i := range n.Cells {
			cell := &n.Cells[i]
			out = appendKey(out, cell.Key)
			if n.Leaf {
				out = appendAggregate(out, cell.Agg)
			} else {
				out = binary.AppendUvarint(out, ids[cell.Child])
			}
		}
		idx.allOffs = append(idx.allOffs, uint32(len(out)))
		if n.Leaf {
			out = appendAggregate(out, n.AllAgg)
		} else {
			out = binary.AppendUvarint(out, ids[n.AllChild]) // 0 when nil
		}
	}
	if c.root != nil {
		idx.rootID = ids[c.root]
	}
	return appendStreamTail(out, idx.rootID)
}

// appendStreamHead appends the v1 header: magic, version, flags, source
// tuple count, dimension names and node count.
func appendStreamHead(b []byte, dims []string, numTuples uint64, fromQuery bool, nodeCount int) []byte {
	b = append(b, codecMagic...)
	flags := byte(0)
	if fromQuery {
		flags |= 1
	}
	b = append(b, codecVersion, flags)
	b = binary.AppendUvarint(b, numTuples)
	b = binary.AppendUvarint(b, uint64(len(dims)))
	for _, d := range dims {
		b = appendKey(b, d)
	}
	return binary.AppendUvarint(b, uint64(nodeCount))
}

// appendStreamTail closes a v1 stream whose node records are in place: the
// root id, then the CRC of everything after the magic.
func appendStreamTail(b []byte, rootID uint64) []byte {
	b = binary.AppendUvarint(b, rootID)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(codecMagic):]))
}

// EncodeIndexed writes the cube in the v1 format followed by the v2
// node-offset trailer and the v3 zone-map metadata section, so OpenView on
// the resulting bytes (or a file or mmap'd region holding them) gets its
// node index in O(1) instead of a scan, plus per-dimension zone maps for
// prune-before-scan planning. v1 readers decode the stream unchanged: both
// sections sit after the CRC word and are stripped before parsing.
//
// The trailer is built from offsets recorded during the encode pass itself
// and the zone maps from the cube's ALL chain — no re-scan of the stream
// just written (streams of 4 GiB or more cannot carry u32 offsets and are
// written without either section).
func (c *Cube) EncodeIndexed(w io.Writer) error {
	_, err := w.Write(c.encodeIndexed())
	return err
}

// encodeIndexed is EncodeIndexed returning the stream as one slice.
func (c *Cube) encodeIndexed() []byte {
	idx := encodeOffsetsPool.Get().(*encodeOffsets)
	defer func() {
		idx.reset()
		encodeOffsetsPool.Put(idx)
	}()
	data := c.encode(idx)
	if len(data) <= maxStreamBytes {
		zones := c.zoneMaps()
		data = grow(data, trailerFixedLen+8*len(idx.starts)+trailerFootLen+metaTrailerLen(zones))
		data = appendTrailer(data, idx.starts, idx.allOffs, idx.rootID, idx.nodesStart)
		data = appendMetaTrailer(data, zones)
	}
	return data
}

// appendTrailer appends the v2 node-offset trailer (body, body CRC, body
// length, magic) for the given absolute offsets to an encoded v1 stream.
func appendTrailer(out []byte, starts, allOffs []uint32, rootID uint64, nodesStart int) []byte {
	bodyStart := len(out)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(starts)))
	out = binary.LittleEndian.AppendUint32(out, uint32(rootID))
	out = binary.LittleEndian.AppendUint32(out, uint32(nodesStart))
	for i := range starts {
		out = binary.LittleEndian.AppendUint32(out, starts[i])
		out = binary.LittleEndian.AppendUint32(out, allOffs[i])
	}
	bodyLen := len(out) - bodyStart
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[bodyStart:]))
	out = binary.LittleEndian.AppendUint32(out, uint32(bodyLen))
	return append(out, trailerMagic...)
}

// AppendOffsetTrailer returns data extended with a v2 node-offset trailer
// and a v3 zone-map metadata section, both recorded during the single
// validating scan. The input must be a valid encoded cube; a stream that
// already carries a v2 trailer is returned unchanged. The v1 portion of the
// stream is not modified. Streams of 4 GiB or more cannot be indexed (u32
// offsets) and are returned unchanged as well.
func AppendOffsetTrailer(data []byte) ([]byte, error) {
	v1, trailer, _, err := splitSections(data)
	if err != nil {
		return nil, err
	}
	if trailer != nil {
		return data, nil
	}
	if err := verifyPayload(v1); err != nil {
		return nil, err
	}
	if len(v1) > maxStreamBytes {
		return data, nil
	}
	h, err := parseViewHeader(v1)
	if err != nil {
		return nil, err
	}
	zacc := newZoneAcc(len(h.dims))
	starts, allOffs, rootID, err := scanEncoded(v1, h, zacc)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(v1), len(v1)+trailerFixedLen+8*len(starts)+trailerFootLen)
	copy(out, v1)
	out = appendTrailer(out, starts, allOffs, rootID, h.nodesStart)
	return appendMetaTrailer(out, zacc.zones), nil
}

// SplitEncoded separates an encoded stream into its v1 portion and, when a
// valid v2 node-offset trailer is attached, the trailer body (nil
// otherwise). The slices alias data.
func SplitEncoded(data []byte) (v1, trailerBody []byte, err error) {
	return splitIndexed(data)
}

// HasOffsetTrailer reports whether data carries a valid v2 node-offset
// trailer.
func HasOffsetTrailer(data []byte) bool {
	_, trailer, err := splitIndexed(data)
	return err == nil && trailer != nil
}

// splitIndexed separates an encoded stream into its v1 portion and, when a
// valid v2 node-offset trailer is attached, the trailer body. A v3
// metadata section, if present, is stripped and dropped — callers that
// want the zone maps use splitSections.
func splitIndexed(data []byte) (v1, trailerBody []byte, err error) {
	v1, trailerBody, _, err = splitSections(data)
	return v1, trailerBody, err
}

// splitSections separates an encoded stream into its v1 portion, the v2
// node-offset trailer body (nil when absent) and the v3 metadata body (nil
// when absent). Sections are detected from the end of the stream, v3 first
// — the order they are appended in. A trailing byte pattern that merely
// resembles a section (magic present, CRC or bounds wrong) is treated as
// part of the stream before it, whose own CRC then decides its fate.
func splitSections(data []byte) (v1, trailerBody, metaBody []byte, err error) {
	if len(data) < len(codecMagic)+4 {
		return nil, nil, nil, errCorrupt("stream of %d bytes is shorter than magic plus checksum", len(data))
	}
	if string(data[:len(codecMagic)]) != codecMagic {
		return nil, nil, nil, ErrBadMagic
	}
	if len(data) >= len(codecMagic)+4+metaFootLen &&
		string(data[len(data)-len(metaMagic):]) == metaMagic {
		bodyLen := int(binary.LittleEndian.Uint32(data[len(data)-len(metaMagic)-4:]))
		total := bodyLen + metaFootLen
		if total >= metaFootLen && total <= len(data)-(len(codecMagic)+4) {
			start := len(data) - total
			body := data[start : start+bodyLen]
			want := binary.LittleEndian.Uint32(data[start+bodyLen:])
			if crc32.ChecksumIEEE(body) == want {
				metaBody = body
				data = data[:start]
			}
		}
	}
	if len(data) >= len(codecMagic)+4+trailerFootLen &&
		string(data[len(data)-len(trailerMagic):]) == trailerMagic {
		bodyLen := int(binary.LittleEndian.Uint32(data[len(data)-len(trailerMagic)-4:]))
		total := bodyLen + trailerFootLen
		if total >= trailerFootLen && total <= len(data)-(len(codecMagic)+4) {
			start := len(data) - total
			body := data[start : start+bodyLen]
			want := binary.LittleEndian.Uint32(data[start+bodyLen:])
			if crc32.ChecksumIEEE(body) == want {
				return data[:start], body, metaBody, nil
			}
		}
	}
	return data, nil, metaBody, nil
}

// verifyPayload checks the CRC word of a v1 stream (no trailer).
func verifyPayload(v1 []byte) error {
	if len(v1) < len(codecMagic)+4 {
		return errCorrupt("stream of %d bytes is shorter than magic plus checksum", len(v1))
	}
	if string(v1[:len(codecMagic)]) != codecMagic {
		return ErrBadMagic
	}
	payload := v1[len(codecMagic) : len(v1)-4]
	want := binary.LittleEndian.Uint32(v1[len(v1)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return fmt.Errorf("%w: checksum mismatch", ErrCorruptCube)
	}
	return nil
}

// VerifyEncoded checks the magic and CRC trailer of an encoded cube held in
// memory, stripping a valid v2 offset trailer first. It returns nil when
// the checksum matches the payload.
func VerifyEncoded(data []byte) error {
	v1, _, err := splitIndexed(data)
	if err != nil {
		return err
	}
	return verifyPayload(v1)
}

// Decode reads a cube previously written by EncodeIndexed, verifying the CRC
// trailer before parsing. The whole stream is buffered in memory; cube
// files are bounded by the cube's compressed size.
func Decode(r io.Reader) (*Cube, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeBytes(data)
}

// DecodeBytes parses an encoded cube held in memory, materializing the full
// node graph. It never panics on arbitrary bytes: every failure is
// ErrBadMagic, ErrBadVersion or ErrCorruptCube. For a read-only query path
// that skips materialization entirely, see OpenView.
func DecodeBytes(data []byte) (*Cube, error) {
	v1, _, err := splitIndexed(data)
	if err != nil {
		return nil, err
	}
	if err := verifyPayload(v1); err != nil {
		return nil, err
	}
	h, err := parseViewHeader(v1)
	if err != nil {
		return nil, err
	}
	return decodeBody(v1, h)
}

// Decode materializes the view's cube as a node graph on the heap,
// verifying the payload checksum first like DecodeBytes. The result owns
// its memory, so it stays valid after the view's backing bytes go away.
func (v *CubeView) Decode() (*Cube, error) {
	if err := verifyPayload(v.data); err != nil {
		return nil, err
	}
	return decodeBody(v.data, v.hdr)
}

// decodeBody materializes the node graph of a checksum-verified stream,
// enforcing the same structural invariants the view's index scan does:
// levels in range and agreeing with the leaf flag, strictly sorted cell
// keys, child ids referencing earlier nodes one level deeper, and the
// stream fully consumed.
func decodeBody(v1 []byte, h viewHeader) (*Cube, error) {
	ndims := len(h.dims)
	cur := cursor{data: v1, pos: h.nodesStart, end: h.payloadEnd}
	nodes := make([]*Node, h.nodeCount+1) // 1-based; nodes[0] stays nil
	for id := uint64(1); id <= h.nodeCount; id++ {
		level, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		if level >= uint64(ndims) {
			return nil, errCorrupt("node %d: level %d out of range for %d dimensions", id, level, ndims)
		}
		leafB, err := cur.u8()
		if err != nil {
			return nil, err
		}
		if leafB > 1 {
			return nil, errCorrupt("node %d: bad leaf flag %d", id, leafB)
		}
		leaf := leafB == 1
		if leaf != (int(level) == ndims-1) {
			return nil, errCorrupt("node %d: leaf flag %v disagrees with level %d of %d", id, leaf, level, ndims)
		}
		ncells, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		if ncells > uint64(cur.end-cur.pos) {
			return nil, errCorrupt("node %d: cell count %d overruns stream", id, ncells)
		}
		n := &Node{Level: int(level), Leaf: leaf, seq: int64(id)}
		n.Cells = make([]Cell, ncells)
		for i := range n.Cells {
			key, err := cur.str()
			if err != nil {
				return nil, err
			}
			if i > 0 && n.Cells[i-1].Key >= string(key) {
				return nil, errCorrupt("node %d: cell keys not strictly sorted", id)
			}
			n.Cells[i].Key = string(key)
			if leaf {
				if n.Cells[i].Agg, err = cur.agg(); err != nil {
					return nil, err
				}
			} else {
				childID, err := cur.uvarint()
				if err != nil {
					return nil, err
				}
				if childID == 0 || childID >= id {
					return nil, errCorrupt("node %d: cell child id %d is not an earlier node", id, childID)
				}
				child := nodes[childID]
				if child.Level != int(level)+1 {
					return nil, errCorrupt("node %d: child %d at level %d, want %d", id, childID, child.Level, level+1)
				}
				n.Cells[i].Child = child
			}
		}
		if leaf {
			if n.AllAgg, err = cur.agg(); err != nil {
				return nil, err
			}
		} else {
			allID, err := cur.uvarint()
			if err != nil {
				return nil, err
			}
			if allID >= id {
				return nil, errCorrupt("node %d: ALL child id %d is not an earlier node", id, allID)
			}
			if allID != 0 {
				if nodes[allID].Level != int(level)+1 {
					return nil, errCorrupt("node %d: ALL child %d at level %d, want %d", id, allID, nodes[allID].Level, level+1)
				}
				n.AllChild = nodes[allID]
			}
		}
		nodes[id] = n
	}
	rootID, err := cur.uvarint()
	if err != nil {
		return nil, err
	}
	if rootID > h.nodeCount {
		return nil, errCorrupt("root id %d exceeds node count %d", rootID, h.nodeCount)
	}
	if h.nodeCount > 0 && (rootID == 0 || nodes[rootID].Level != 0) {
		return nil, errCorrupt("root id %d does not name a level-0 node", rootID)
	}
	if cur.pos != h.payloadEnd {
		return nil, errCorrupt("%d trailing bytes after root id", h.payloadEnd-cur.pos)
	}
	var root *Node
	if rootID != 0 {
		root = nodes[rootID]
	}
	return &Cube{
		dims:      append([]string(nil), h.dims...),
		root:      root,
		numTuples: int(h.numTuples),
		FromQuery: h.fromQuery,
	}, nil
}
