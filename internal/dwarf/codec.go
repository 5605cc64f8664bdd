package dwarf

import (
	"bufio"
	"bytes"
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

type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	n   int // bytes written after the magic
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	cw.n += len(p)
	return cw.w.Write(p)
}

// encodeOffsets captures, during one Encode pass, exactly the node index a
// post-hoc scanEncoded would recover: per-node record and ALL-record
// offsets (absolute stream positions), the root id and the node section
// start. EncodeIndexed uses it to attach the v2 trailer without re-scanning
// the stream it just wrote.
type encodeOffsets struct {
	starts, allOffs []uint32
	rootID          uint64
	nodesStart      int
	// zones, when non-nil, accumulates per-dimension zone maps from the
	// cell keys the pass writes. Plain Encode leaves it nil — the v1-only
	// path pays nothing.
	zones *zoneAcc
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
	e.zones = nil
	clear(e.order)
	e.order = e.order[:0]
	clear(e.ids)
}

// Encode writes the cube to w in the binary cube format.
func (c *Cube) Encode(w io.Writer) error {
	idx := encodeOffsetsPool.Get().(*encodeOffsets)
	err := c.encode(w, idx)
	idx.reset()
	encodeOffsetsPool.Put(idx)
	return err
}

// encode is the single encoding pass behind Encode and EncodeIndexed,
// recording node offsets into idx as it writes.
func (c *Cube) encode(w io.Writer, idx *encodeOffsets) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	cw := &crcWriter{w: bw}
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := cw.Write(scratch[:n])
		return err
	}
	writeByte := func(b byte) error {
		_, err := cw.Write([]byte{b})
		return err
	}
	writeString := func(s string) error {
		if err := writeUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := io.WriteString(cw, s)
		return err
	}
	writeAgg := func(a Aggregate) error {
		var buf [8]byte
		for _, f := range []float64{a.Sum, a.Min, a.Max} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			if _, err := cw.Write(buf[:]); err != nil {
				return err
			}
		}
		return writeUvarint(uint64(a.Count))
	}

	flags := byte(0)
	if c.FromQuery {
		flags |= 1
	}
	if err := writeByte(codecVersion); err != nil {
		return err
	}
	if err := writeByte(flags); err != nil {
		return err
	}
	if err := writeUvarint(uint64(c.numTuples)); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(c.dims))); err != nil {
		return err
	}
	for _, d := range c.dims {
		if err := writeString(d); err != nil {
			return err
		}
	}

	// Assign ids children-first so references always point backwards.
	ids := idx.ids
	order := idx.order
	c.VisitDepthFirst(func(n *Node) bool {
		order = append(order, n)
		ids[n] = uint64(len(order))
		return true
	})
	idx.order = order
	if err := writeUvarint(uint64(len(order))); err != nil {
		return err
	}
	idx.nodesStart = len(codecMagic) + cw.n
	for _, n := range order {
		idx.starts = append(idx.starts, uint32(len(codecMagic)+cw.n))
		if err := writeUvarint(uint64(n.Level)); err != nil {
			return err
		}
		leaf := byte(0)
		if n.Leaf {
			leaf = 1
		}
		if err := writeByte(leaf); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(n.Cells))); err != nil {
			return err
		}
		for i := range n.Cells {
			cell := &n.Cells[i]
			if idx.zones != nil {
				idx.zones.addString(n.Level, cell.Key)
			}
			if err := writeString(cell.Key); err != nil {
				return err
			}
			var err error
			if n.Leaf {
				err = writeAgg(cell.Agg)
			} else {
				err = writeUvarint(ids[cell.Child])
			}
			if err != nil {
				return err
			}
		}
		idx.allOffs = append(idx.allOffs, uint32(len(codecMagic)+cw.n))
		var err error
		if n.Leaf {
			err = writeAgg(n.AllAgg)
		} else {
			err = writeUvarint(ids[n.AllChild]) // 0 when nil
		}
		if err != nil {
			return err
		}
	}
	var rootID uint64
	if c.root != nil {
		rootID = ids[c.root]
	}
	idx.rootID = rootID
	if err := writeUvarint(rootID); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], cw.crc)
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// EncodeIndexed writes the cube in the v1 format followed by the v2
// node-offset trailer and the v3 zone-map metadata section, so OpenView on
// the resulting bytes (or a file or mmap'd region holding them) gets its
// node index in O(1) instead of a scan, plus per-dimension zone maps for
// prune-before-scan planning. v1 readers decode the stream unchanged: both
// sections sit after the CRC word and are stripped before parsing.
//
// The trailer and zone maps are built from offsets and keys recorded during
// the encode pass itself — one pass, no re-scan of the stream just written
// (streams of 4 GiB or more cannot carry u32 offsets and are written
// without either section).
func (c *Cube) EncodeIndexed(w io.Writer) error {
	idx := encodeOffsetsPool.Get().(*encodeOffsets)
	defer func() {
		idx.reset()
		encodeOffsetsPool.Put(idx)
	}()
	idx.zones = newZoneAcc(len(c.dims))
	var buf bytes.Buffer
	if err := c.encode(&buf, idx); err != nil {
		return err
	}
	data := buf.Bytes()
	if len(data) <= maxStreamBytes {
		data = appendTrailer(data, idx.starts, idx.allOffs, idx.rootID, idx.nodesStart)
		data = appendMetaTrailer(data, idx.zones.zones)
	}
	_, err := w.Write(data)
	return err
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

// Decode reads a cube previously written by Encode, verifying the CRC
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
		nextSeq:   int64(h.nodeCount),
	}, nil
}
