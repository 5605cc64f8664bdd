package dwarf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

// assertClean runs every reader over data and fails on a panic or a
// non-sentinel error. wantErr additionally requires that at least the
// checksum-bearing readers reject the bytes.
func assertClean(t *testing.T, label string, data []byte, wantErr bool) {
	t.Helper()
	check := func(op string, err error) {
		t.Helper()
		if err == nil {
			if wantErr && (op == "VerifyEncoded" || op == "DecodeBytes" || op == "OpenView") {
				t.Fatalf("%s: %s accepted corrupt bytes", label, op)
			}
			return
		}
		if !errors.Is(err, ErrCorruptCube) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) {
			t.Fatalf("%s: %s returned non-sentinel error: %v", label, op, err)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", label, r)
		}
	}()
	check("VerifyEncoded", VerifyEncoded(data))
	_, err := DecodeBytes(data)
	check("DecodeBytes", err)
	v, err := OpenView(data)
	check("OpenView", err)
	if err == nil {
		ndims := v.NumDims()
		wild := make([]string, ndims)
		for i := range wild {
			wild[i] = All
		}
		_, err = v.Point(wild...)
		check("view Point", err)
		_, err = v.Stats()
		check("view Stats", err)
		err = v.Tuples(func([]string, Aggregate) bool { return true })
		check("view Tuples", err)
	}
}

// corruptionBase returns the two golden encodings: every matrix axis runs
// over both the plain v1 stream and the trailer-carrying one.
func corruptionBase(t *testing.T) map[string][]byte {
	c := goldenCube(t)
	var v2 bytes.Buffer
	if err := c.EncodeIndexed(&v2); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"v1": encodeV1(t, c), "v2": v2.Bytes()}
}

// TestCorruptionTruncation truncates the stream at every byte boundary —
// which covers every section boundary — and requires a clean rejection at
// each length.
func TestCorruptionTruncation(t *testing.T) {
	for name, data := range corruptionBase(t) {
		// Cutting the indexed stream exactly at a section boundary leaves a
		// complete, valid stream — the v2 trailer and v3 metadata section
		// are optional suffixes, so those truncations are legitimately
		// accepted. Every other length must be rejected.
		v1, _, meta, err := splitSections(data)
		if err != nil {
			t.Fatal(err)
		}
		okLen := map[int]bool{len(v1): true}
		if meta != nil {
			okLen[len(data)-(len(meta)+metaFootLen)] = true
		}
		for n := 0; n < len(data); n++ {
			assertClean(t, name+" truncated", data[:n], !okLen[n])
		}
		assertClean(t, name+" intact", data, false)
	}
}

// TestCorruptionBitFlips flips every bit of both encodings. CRC32 detects
// every single-bit flip, so each variant must be rejected — including flips
// inside the offset trailer, whose own CRC (or the v1 fallback) catches
// them.
func TestCorruptionBitFlips(t *testing.T) {
	for name, data := range corruptionBase(t) {
		for i := 0; i < len(data); i++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), data...)
				mut[i] ^= 1 << bit
				assertClean(t, name+" bit-flipped", mut, true)
			}
		}
	}
}

// sealedStream hand-assembles an encoded stream with a valid checksum so
// pathological field values reach the structural parser. Fields are written
// with the same primitives Encode uses.
type sealedStream struct{ buf bytes.Buffer }

func (s *sealedStream) uvarint(v uint64) *sealedStream {
	var tmp [binary.MaxVarintLen64]byte
	s.buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	return s
}

func (s *sealedStream) raw(b ...byte) *sealedStream { s.buf.Write(b); return s }

func (s *sealedStream) str(v string) *sealedStream {
	s.uvarint(uint64(len(v)))
	s.buf.WriteString(v)
	return s
}

func (s *sealedStream) agg(sum float64, count uint64) *sealedStream {
	var tmp [8]byte
	for _, f := range []float64{sum, sum, sum} { // sum/min/max
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
		s.buf.Write(tmp[:])
	}
	return s.uvarint(count)
}

// seal prefixes the magic and appends a valid CRC word.
func (s *sealedStream) seal() []byte {
	payload := s.buf.Bytes()
	out := make([]byte, 0, len(codecMagic)+len(payload)+4)
	out = append(out, codecMagic...)
	out = append(out, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	return append(out, crc[:]...)
}

// header writes version, flags, numTuples, and a 2-dimension layout.
func (s *sealedStream) header() *sealedStream {
	return s.raw(codecVersion, 0).uvarint(1).uvarint(2).str("A").str("B")
}

// maxUvarint is the 10-byte maximal uvarint (2^64-1); oversized length
// fields use it to probe for unbounded allocations.
const maxUvarint = math.MaxUint64

// TestCorruptionOversizedFields seals streams whose length and id fields
// are absurd — huge node counts, cell counts, string lengths, child ids,
// levels, root ids, truncated-overflow varints — and requires every reader
// to reject them cleanly and promptly (no OOM-sized allocation, enforced by
// the default test timeout and the allocation caps in the parsers).
func TestCorruptionOversizedFields(t *testing.T) {
	cases := map[string][]byte{
		"huge node count": (&sealedStream{}).header().uvarint(maxUvarint).uvarint(0).seal(),
		"huge dim count":  (&sealedStream{}).raw(codecVersion, 0).uvarint(1).uvarint(maxUvarint).seal(),
		"huge dim name": (&sealedStream{}).raw(codecVersion, 0).uvarint(1).
			uvarint(2).uvarint(maxUvarint).seal(),
		"huge cell count": (&sealedStream{}).header().uvarint(1).
			uvarint(0).raw(0).uvarint(maxUvarint).seal(),
		"huge key length": (&sealedStream{}).header().uvarint(1).
			uvarint(0).raw(0).uvarint(1).uvarint(maxUvarint).seal(),
		"huge child id": (&sealedStream{}).header().uvarint(2).
			uvarint(1).raw(1).uvarint(0).agg(1, 1).                    // node 1: leaf, 0 cells
			uvarint(0).raw(0).uvarint(1).str("k").uvarint(maxUvarint). // node 2 cell child huge
			uvarint(0).uvarint(2).seal(),
		"huge level": (&sealedStream{}).header().uvarint(1).
			uvarint(maxUvarint).raw(1).uvarint(0).agg(1, 1).uvarint(1).seal(),
		"huge root id": (&sealedStream{}).header().uvarint(1).
			uvarint(1).raw(1).uvarint(0).agg(1, 1).uvarint(maxUvarint).seal(),
		"huge agg count": (&sealedStream{}).header().uvarint(1).
			uvarint(1).raw(1).uvarint(0).agg(1, maxUvarint).uvarint(1).seal(),
		// An 11-byte varint overflows uvarint64 outright.
		"overflowing varint": (&sealedStream{}).header().
			raw(0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F).seal(),
	}
	for name, data := range cases {
		assertClean(t, name, data, false)
		// These streams are checksum-valid by construction, so the error, if
		// any, must come from the structural parser — and for all but the
		// benign ones there must be one.
		if _, err := DecodeBytes(data); err == nil {
			t.Fatalf("%s: DecodeBytes accepted a pathological stream", name)
		}
		if v, err := OpenView(data); err == nil {
			if _, err := v.Stats(); err == nil {
				t.Fatalf("%s: OpenView+Stats accepted a pathological stream", name)
			}
		}
	}
}

// TestCorruptionForgedTrailer checks trailer-specific attacks: a trailer
// whose body checksum is valid but whose contents are hostile must either
// be rejected at open or never let a query read out of bounds.
func TestCorruptionForgedTrailer(t *testing.T) {
	c := goldenCube(t)
	v1 := encodeV1(t, c)

	forge := func(mutate func(body []byte)) []byte {
		var idx bytes.Buffer
		if err := c.EncodeIndexed(&idx); err != nil {
			t.Fatal(err)
		}
		full := append([]byte(nil), idx.Bytes()...)
		// Drop the v3 metadata section EncodeIndexed now appends so the
		// stream ends with the v2 trailer this test forges.
		metaLen := int(binary.LittleEndian.Uint32(full[len(full)-12:])) + metaFootLen
		full = full[:len(full)-metaLen]
		bodyLen := int(binary.LittleEndian.Uint32(full[len(full)-12:]))
		bodyStart := len(full) - trailerFootLen - bodyLen
		body := full[bodyStart : bodyStart+bodyLen]
		mutate(body)
		binary.LittleEndian.PutUint32(full[bodyStart+bodyLen:], crc32.ChecksumIEEE(body))
		return full
	}

	cases := map[string][]byte{
		"offsets into crc word": forge(func(body []byte) {
			for i := trailerFixedLen; i+8 <= len(body); i += 8 {
				binary.LittleEndian.PutUint32(body[i:], uint32(len(v1)-4))
				binary.LittleEndian.PutUint32(body[i+4:], uint32(len(v1)-2))
			}
		}),
		"zero offsets": forge(func(body []byte) {
			for i := trailerFixedLen; i < len(body); i++ {
				body[i] = 0
			}
		}),
		"node count mismatch": forge(func(body []byte) {
			binary.LittleEndian.PutUint32(body, binary.LittleEndian.Uint32(body)+1)
		}),
		"root id out of range": forge(func(body []byte) {
			binary.LittleEndian.PutUint32(body[4:], ^uint32(0))
		}),
		// Node 1 is emitted children-first, so it is a leaf: a trailer
		// naming it as root must not let Point answer from mid-cube.
		"root id names a leaf": forge(func(body []byte) {
			binary.LittleEndian.PutUint32(body[4:], 1)
		}),
		"truncated body": func() []byte {
			full := forge(func([]byte) {})
			// Rebuild with a body one entry short but a matching CRC/len.
			bodyLen := int(binary.LittleEndian.Uint32(full[len(full)-12:]))
			bodyStart := len(full) - trailerFootLen - bodyLen
			body := append([]byte(nil), full[bodyStart:bodyStart+bodyLen-8]...)
			out := append([]byte(nil), full[:bodyStart]...)
			out = append(out, body...)
			var word [4]byte
			binary.LittleEndian.PutUint32(word[:], crc32.ChecksumIEEE(body))
			out = append(out, word[:]...)
			binary.LittleEndian.PutUint32(word[:], uint32(len(body)))
			out = append(out, word[:]...)
			return append(out, trailerMagic...)
		}(),
	}
	for name, data := range cases {
		assertClean(t, name, data, false)
		v, err := OpenView(data)
		if err == nil {
			if _, err := v.Stats(); err == nil {
				t.Fatalf("%s: forged trailer went unnoticed end to end", name)
			}
		}
		if v != nil {
			// Point in particular must never answer from a forged root.
			if _, err := v.Point("2015", "Jan", "north", "bike"); err == nil {
				t.Fatalf("%s: Point answered through a forged trailer", name)
			}
		}
	}
}

// TestCorruptionForgedMeta checks v3-metadata-specific attacks: a section
// whose CRC is valid but whose zone maps are hostile must be rejected by
// OpenView (pruning decisions ride on these bounds), while DecodeBytes —
// which never reads zone maps — keeps accepting the intact v1 payload, and
// a section with a bad CRC collapses the whole tail into the v1 checksum,
// which rejects it.
func TestCorruptionForgedMeta(t *testing.T) {
	c := goldenCube(t)
	var idx bytes.Buffer
	if err := c.EncodeIndexed(&idx); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), idx.Bytes()...)
	metaLen := int(binary.LittleEndian.Uint32(full[len(full)-12:])) + metaFootLen
	base := full[:len(full)-metaLen] // valid v1 + v2, no metadata section

	seal := func(body []byte) []byte {
		out := append([]byte(nil), base...)
		out = append(out, body...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
		return append(out, metaMagic...)
	}
	appendZone := func(b []byte, distinct uint64, min, max string) []byte {
		b = binary.AppendUvarint(b, distinct)
		b = binary.AppendUvarint(b, uint64(len(min)))
		b = append(b, min...)
		b = binary.AppendUvarint(b, uint64(len(max)))
		b = append(b, max...)
		return b
	}
	// The golden cube's true zone maps, resealed: must reproduce the
	// original stream bit for bit and open cleanly.
	valid := binary.AppendUvarint(nil, 4)
	valid = appendZone(valid, 2, "2015", "2016")
	valid = appendZone(valid, 2, "Feb", "Jan")
	valid = appendZone(valid, 3, "east", "south")
	valid = appendZone(valid, 3, "bike", "scooter")
	if !bytes.Equal(seal(valid), full) {
		t.Fatal("resealing the true zone maps does not reproduce EncodeIndexed output")
	}

	three := binary.AppendUvarint(nil, 3)
	three = appendZone(three, 2, "2015", "2016")
	three = appendZone(three, 2, "Feb", "Jan")
	three = appendZone(three, 3, "east", "south")

	forged := func(mutate func(b []byte, d uint64, min, max string) []byte) []byte {
		b := binary.AppendUvarint(nil, 4)
		b = mutate(b, 2, "2015", "2016")
		b = appendZone(b, 2, "Feb", "Jan")
		b = appendZone(b, 3, "east", "south")
		b = appendZone(b, 3, "bike", "scooter")
		return b
	}

	cases := map[string][]byte{
		"garbage body":   seal([]byte{0xde, 0xad, 0xbe, 0xef}),
		"empty body":     seal(nil),
		"ndims mismatch": seal(three),
		"min above max": seal(forged(func(b []byte, _ uint64, min, max string) []byte {
			return appendZone(b, 2, max, min)
		})),
		"min differs from max with one key": seal(forged(func(b []byte, _ uint64, min, max string) []byte {
			return appendZone(b, 1, min, max)
		})),
		"bounds with zero keys": seal(forged(func(b []byte, _ uint64, min, max string) []byte {
			return appendZone(b, 0, min, max)
		})),
		"huge distinct count": seal(forged(func(b []byte, _ uint64, min, max string) []byte {
			return appendZone(b, maxUvarint, min, max)
		})),
		"trailing bytes": seal(append(append([]byte(nil), valid...), 0x00)),
	}
	for name, data := range cases {
		assertClean(t, name, data, false)
		if _, err := OpenView(data); err == nil {
			t.Fatalf("%s: OpenView accepted a forged metadata section", name)
		}
		if _, err := DecodeBytes(data); err != nil {
			t.Fatalf("%s: DecodeBytes rejected a stream whose v1 payload is intact: %v", name, err)
		}
	}

	// A bad section CRC means the section is not stripped: the tail joins
	// the v1 stream, whose checksum then rejects everything.
	badCRC := append([]byte(nil), full...)
	badCRC[len(badCRC)-metaFootLen] ^= 1
	assertClean(t, "bad meta CRC", badCRC, true)
}
