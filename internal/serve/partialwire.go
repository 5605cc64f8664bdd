package serve

// The /query/partial wire: one binary codec for the request a cluster
// coordinator sends and the partial a node answers with. Both ends use
// this file — the node in handlePartial, the coordinator
// (internal/cluster) through the exported encoders and decoders — so
// there is exactly one definition of the format.
//
// Every body starts with a version byte. Strings are a uvarint length and
// the bytes; counts are uvarints; Sum, Min and Max travel as their IEEE-754
// bits (8 bytes little-endian), so every float — NaN payloads, ±Inf and -0
// included — arrives bit-exact; Count is a zigzag varint.
//
//	request:  version shape cube keys dims sels
//	          keys = n string…      dims = n varint…
//	          sels = n sel…         sel  = 0 (ALL) | 1 n string… (keys) | 2 lo hi (range)
//	response: version kind generation payload
//	          kind 1 (point, range): agg
//	          kind 2 (groupby):      n (string agg)…   in map iteration order
//	          kind 3 (pivot):        n (n string… agg)…
//	          agg = sum count min max
//
// Parsing is strict: a wrong version or kind, a truncated field, a count
// larger than the bytes left could describe, a duplicate group key or a
// trailing byte is an error — never a short answer — and no decoder
// allocates more than its input can describe.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dwarf"
)

// PartialContentType is the media type of every /query/partial request
// and 200 response body. Both sides check it: a node answers a request of
// any other type 415, and a coordinator fails a 200 of any other type.
// Error responses stay the JSON error envelope.
const PartialContentType = "application/x-dwarf-partial"

// partialContentType is PartialContentType as a header value (see
// jsonContentType).
var partialContentType = []string{PartialContentType}

// partialWireVersion is the first byte of every body. A peer speaking
// another version is refused, never guessed at.
const partialWireVersion = 1

// PartialShape selects the query a partial request runs.
type PartialShape byte

// The partial shapes. TopK has none: a per-node K cut could misrank keys
// split across nodes, so the coordinator asks for full group maps instead.
const (
	PartialPoint PartialShape = 1 + iota
	PartialRange
	PartialGroupBy
	PartialPivot
)

// Response kinds: the second byte of a response, checked by each decoder.
const (
	kindAgg byte = 1 + iota
	kindGroups
	kindRows
)

// Selector kinds.
const (
	selAll byte = iota
	selKeys
	selRange
)

// aggBytes is the smallest encoded aggregate: three floats and a one-byte
// count. Counts of groups and rows are bounded by it.
const aggBytes = 8 + 1 + 8 + 8

// PartialRequest is one /query/partial request. Each shape reads only its
// own fields.
type PartialRequest struct {
	Shape PartialShape
	Cube  string
	Keys  []string         // point: one key per dimension
	Dims  []int            // groupby: exactly one; pivot: one or more
	Sels  []dwarf.Selector // range, groupby, pivot: one per dimension
}

// AppendPartialRequest appends the encoding of req to b. A selector with
// HasRange encodes as a range whatever its Keys, as the kernel reads it.
func AppendPartialRequest(b []byte, req *PartialRequest) []byte {
	b = append(b, partialWireVersion, byte(req.Shape))
	b = appendWireString(b, req.Cube)
	b = appendWireStrings(b, req.Keys)
	b = binary.AppendUvarint(b, uint64(len(req.Dims)))
	for _, d := range req.Dims {
		b = binary.AppendVarint(b, int64(d))
	}
	b = binary.AppendUvarint(b, uint64(len(req.Sels)))
	for i := range req.Sels {
		switch sel := &req.Sels[i]; {
		case sel.HasRange:
			b = append(b, selRange)
			b = appendWireString(b, sel.Lo)
			b = appendWireString(b, sel.Hi)
		case len(sel.Keys) > 0:
			b = append(b, selKeys)
			b = appendWireStrings(b, sel.Keys)
		default:
			b = append(b, selAll)
		}
	}
	return b
}

// AppendPartialAgg appends a point or range partial.
func AppendPartialAgg(b []byte, gen uint64, a dwarf.Aggregate) []byte {
	b = appendWireHeader(b, kindAgg, gen)
	return appendWireAgg(b, a)
}

// AppendPartialGroups appends a groupby partial: the full, unpaged group
// map in map iteration order (the coordinator folds it into its own map).
func AppendPartialGroups(b []byte, gen uint64, groups map[string]dwarf.Aggregate) []byte {
	b = appendWireHeader(b, kindGroups, gen)
	b = binary.AppendUvarint(b, uint64(len(groups)))
	for k, a := range groups {
		b = appendWireString(b, k)
		b = appendWireAgg(b, a)
	}
	return b
}

// AppendPartialRows appends a pivot partial: the full, unpaged rows in
// their given order.
func AppendPartialRows(b []byte, gen uint64, rows []dwarf.PivotGroup) []byte {
	b = appendWireHeader(b, kindRows, gen)
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for i := range rows {
		b = appendWireStrings(b, rows[i].Keys)
		b = appendWireAgg(b, rows[i].Agg)
	}
	return b
}

func appendWireHeader(b []byte, kind byte, gen uint64) []byte {
	b = append(b, partialWireVersion, kind)
	return binary.AppendUvarint(b, gen)
}

func appendWireString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendWireStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendWireString(b, s)
	}
	return b
}

func appendWireAgg(b []byte, a dwarf.Aggregate) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Sum))
	b = binary.AppendVarint(b, a.Count)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Min))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Max))
}

// DecodePartialAgg decodes a point or range partial and its generation.
func DecodePartialAgg(b []byte) (uint64, dwarf.Aggregate, error) {
	r := wireReader{b: b}
	gen := r.header(kindAgg)
	a := r.agg()
	if err := r.end(); err != nil {
		return 0, dwarf.Aggregate{}, err
	}
	return gen, a, nil
}

// DecodePartialGroups decodes a groupby partial and its generation. Every
// key is a substring of one copy of b, so a G-group partial costs the map
// and that one string.
func DecodePartialGroups(b []byte) (uint64, map[string]dwarf.Aggregate, error) {
	r := wireReader{b: b}
	gen := r.header(kindGroups)
	n := r.count(1 + aggBytes)
	groups := make(map[string]dwarf.Aggregate, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		groups[k] = r.agg()
	}
	if r.err == nil && len(groups) != n {
		r.fail("%d group keys repeated", n-len(groups))
	}
	if err := r.end(); err != nil {
		return 0, nil, err
	}
	return gen, groups, nil
}

// DecodePartialRows decodes a pivot partial and its generation.
func DecodePartialRows(b []byte) (uint64, []dwarf.PivotGroup, error) {
	r := wireReader{b: b}
	gen := r.header(kindRows)
	rows := make([]dwarf.PivotGroup, r.count(1+aggBytes))
	for i := 0; i < len(rows) && r.err == nil; i++ {
		rows[i].Keys = r.strs()
		rows[i].Agg = r.agg()
	}
	if err := r.end(); err != nil {
		return 0, nil, err
	}
	return gen, rows, nil
}

// parsePartialRequest decodes a request body. It checks the encoding
// only; the handler checks the shape and what the shape needs.
func parsePartialRequest(b []byte) (PartialRequest, error) {
	r := wireReader{b: b}
	r.version()
	req := PartialRequest{Shape: PartialShape(r.byte())}
	req.Cube = r.str()
	req.Keys = r.strs()
	if n := r.count(1); n > 0 {
		req.Dims = make([]int, n)
		for i := 0; i < n && r.err == nil; i++ {
			req.Dims[i] = r.int()
		}
	}
	if n := r.count(1); n > 0 {
		req.Sels = make([]dwarf.Selector, n)
		for i := 0; i < n && r.err == nil; i++ {
			req.Sels[i] = r.selector()
		}
	}
	if err := r.end(); err != nil {
		return PartialRequest{}, err
	}
	return req, nil
}

// wireReader parses one body. The first malformed field latches err and
// exhausts the input, so every later read returns a zero value and a
// decoder checks err once, at the end.
type wireReader struct {
	b   []byte
	s   string // b as a string, made by the first string read
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("partial wire: "+format, args...)
	}
	r.off = len(r.b)
}

func (r *wireReader) byte() byte {
	if r.off >= len(r.b) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *wireReader) version() {
	if v := r.byte(); r.err == nil && v != partialWireVersion {
		r.fail("version %d, want %d", v, partialWireVersion)
	}
}

func (r *wireReader) header(kind byte) uint64 {
	r.version()
	if k := r.byte(); r.err == nil && k != kind {
		r.fail("response kind %d, want %d", k, kind)
	}
	return r.uvarint()
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *wireReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail("dimension %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads an element count and bounds it by the bytes left, given
// the smallest encoding of one element.
func (r *wireReader) count(minBytes int) int {
	n := r.uvarint()
	if left := len(r.b) - r.off; n > uint64(left/minBytes) {
		r.fail("count %d at byte %d exceeds what %d bytes hold", n, r.off, left)
		return 0
	}
	return int(n)
}

func (r *wireReader) str() string {
	n := r.count(1)
	if r.err != nil {
		return ""
	}
	if r.s == "" {
		r.s = string(r.b)
	}
	s := r.s[r.off : r.off+n]
	r.off += n
	return s
}

// strs reads a string list; an empty one decodes as nil.
func (r *wireReader) strs() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := 0; i < n && r.err == nil; i++ {
		out[i] = r.str()
	}
	return out
}

func (r *wireReader) float() float64 {
	if len(r.b)-r.off < 8 {
		r.fail("truncated float at byte %d", r.off)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return f
}

func (r *wireReader) agg() dwarf.Aggregate {
	var a dwarf.Aggregate
	a.Sum = r.float()
	a.Count = r.varint()
	a.Min = r.float()
	a.Max = r.float()
	return a
}

func (r *wireReader) selector() dwarf.Selector {
	switch kind := r.byte(); kind {
	case selAll:
		return dwarf.SelectAll()
	case selKeys:
		keys := r.strs()
		if len(keys) == 0 {
			r.fail("empty key selector")
		}
		return dwarf.SelectKeys(keys...)
	case selRange:
		lo := r.str()
		return dwarf.SelectRange(lo, r.str())
	default:
		r.fail("selector kind %d", kind)
		return dwarf.Selector{}
	}
}

// end fails a body with bytes left over, and returns the latched error.
func (r *wireReader) end() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}
