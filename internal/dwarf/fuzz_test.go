package dwarf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"

	"testing"
)

// fuzzSeedStreams returns a spread of valid encoded cubes (plain and
// indexed, empty through multi-dimensional) used to seed both fuzz targets
// and the committed corpus under testdata/fuzz/.
func fuzzSeedStreams(tb testing.TB) [][]byte {
	var out [][]byte
	add := func(dims []string, tuples []Tuple) {
		c, err := New(dims, tuples)
		if err != nil {
			tb.Fatalf("seed cube: %v", err)
		}
		out = append(out, encodeV1(tb, c))
		var buf bytes.Buffer
		if err := c.EncodeIndexed(&buf); err != nil {
			tb.Fatalf("seed encode indexed: %v", err)
		}
		out = append(out, append([]byte(nil), buf.Bytes()...))
	}
	add([]string{"A"}, []Tuple{{Dims: []string{"x"}, Measure: 1}})
	add([]string{"A", "B"}, nil)
	add([]string{"Day", "Region", "Kind"}, []Tuple{
		{Dims: []string{"d1", "north", "bike"}, Measure: 2},
		{Dims: []string{"d1", "south", "bike"}, Measure: 3},
		{Dims: []string{"d2", "north", "car"}, Measure: 5},
		{Dims: []string{"d2", "north", "bike"}, Measure: 7},
	})
	out = append(out, []byte("not a cube at all"), []byte(codecMagic), nil)
	return out
}

// resealV1 rewrites data into a stream that passes the v1 checksum: magic
// forced, CRC recomputed over the payload. This lets the fuzzer reach the
// structural parser instead of bouncing off the checksum.
func resealV1(data []byte) []byte {
	body := data
	if len(body) < len(codecMagic) {
		body = append(append([]byte(nil), body...), make([]byte, len(codecMagic)-len(body))...)
	}
	out := make([]byte, 0, len(body)+4)
	out = append(out, codecMagic...)
	out = append(out, body[len(codecMagic):]...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(out[len(codecMagic):]))
	return append(out, crc[:]...)
}

// resealTrailer attaches a CRC-valid trailer footer to arbitrary body
// bytes, so trailer validation sees internally "authentic" garbage.
func resealTrailer(v1Sealed, body []byte) []byte {
	out := append(append([]byte(nil), v1Sealed...), body...)
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], crc32.ChecksumIEEE(body))
	out = append(out, word[:]...)
	binary.LittleEndian.PutUint32(word[:], uint32(len(body)))
	out = append(out, word[:]...)
	return append(out, trailerMagic...)
}

// resealMeta attaches a CRC-valid v3 metadata footer to arbitrary body
// bytes, so zone-map validation sees internally "authentic" garbage.
func resealMeta(stream, body []byte) []byte {
	out := append(append([]byte(nil), stream...), body...)
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], crc32.ChecksumIEEE(body))
	out = append(out, word[:]...)
	binary.LittleEndian.PutUint32(word[:], uint32(len(body)))
	out = append(out, word[:]...)
	return append(out, metaMagic...)
}

// wantCleanError fails the fuzz run unless err is one of the codec's three
// sentinels — the no-panic, no-mystery-error contract.
func wantCleanError(t *testing.T, op string, err error) {
	if err == nil {
		return
	}
	if !errors.Is(err, ErrCorruptCube) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) {
		t.Fatalf("%s returned a non-sentinel error: %v", op, err)
	}
}

// exerciseStream runs Decode and OpenView over one byte string and, when
// both succeed, holds their answers equal — the fuzz-shaped version of the
// differential suite.
func exerciseStream(t *testing.T, data []byte) {
	c, errDecode := DecodeBytes(data)
	wantCleanError(t, "DecodeBytes", errDecode)
	v, errView := OpenView(data)
	wantCleanError(t, "OpenView", errView)
	if errView != nil {
		return
	}
	// View queries on arbitrary accepted bytes must stay clean too.
	ndims := v.NumDims()
	wild := make([]string, ndims)
	for i := range wild {
		wild[i] = All
	}
	aggV, err := v.Point(wild...)
	wantCleanError(t, "view Point", err)
	stV, errStats := v.Stats()
	wantCleanError(t, "view Stats", errStats)
	// An accepted stream's zone maps must honor the parse invariants. (A
	// CRC-valid forged section may still LIE about the key ranges — readers
	// cannot detect that, which is why pruning trusts only maps written by
	// the encoders; containment itself is asserted in zonemap_test.go over
	// self-encoded streams.)
	if zones := v.ZoneMaps(); zones != nil {
		if len(zones) != ndims {
			t.Fatalf("ZoneMaps returned %d maps for %d dimensions", len(zones), ndims)
		}
		for d, z := range zones {
			if z.Distinct < 0 || z.Min > z.Max || (z.Distinct == 0 && (z.Min != "" || z.Max != "")) {
				t.Fatalf("zone map %d violates invariants: %+v", d, z)
			}
		}
		if !ZonesAdmitPoint(zones, wild) {
			t.Fatal("zone maps rejected the all-ALL point")
		}
	}
	var facts int
	err = v.Tuples(func(dims []string, agg Aggregate) bool {
		facts++
		return facts < 1<<12
	})
	wantCleanError(t, "view Tuples", err)
	_, err = v.Range(make([]Selector, ndims))
	wantCleanError(t, "view Range", err)
	_, err = v.GroupBy(0, make([]Selector, ndims))
	wantCleanError(t, "view GroupBy", err)

	if errDecode != nil {
		return
	}
	// Both readers accepted the stream: they must agree.
	aggC, err := c.Point(wild...)
	if err != nil {
		t.Fatalf("cube Point on accepted stream: %v", err)
	}
	if err == nil && errStats == nil {
		// Bit-exact comparison: a resealed stream can carry NaN aggregates,
		// which Aggregate.Equal's == can never equate.
		if !aggBitsEqual(aggV, aggC) {
			t.Fatalf("Point(ALL...) diverged: view %v, cube %v", aggV, aggC)
		}
		if cst := c.Stats(); stV != cst {
			t.Fatalf("Stats diverged: view %+v, cube %+v", stV, cst)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to DecodeBytes and OpenView, raw and
// resealed (checksums fixed up), asserting the no-panic / sentinel-error
// contract and decode-vs-view agreement on accepted streams.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeedStreams(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		exerciseStream(t, data)
		sealed := resealV1(data)
		exerciseStream(t, sealed)
		if len(data) > 16 {
			cut := len(data) / 2
			exerciseStream(t, resealTrailer(resealV1(data[:cut]), data[cut:]))
		}
	})
}

// FuzzMetaTrailer is the v3 metadata decoder's fuzzer: arbitrary bytes
// sealed as a CRC-valid metadata section — on top of raw input, a resealed
// v1 stream, and a valid indexed stream with its real section stripped —
// must never panic, fail only with the sentinel errors, and leave v1/v2
// readers (DecodeBytes ignores zone maps entirely) working wherever the
// carried stream is intact.
func FuzzMetaTrailer(f *testing.F) {
	seeds := fuzzSeedStreams(f)
	valid := binary.AppendUvarint(nil, 3)
	for i := 0; i < 3; i++ {
		valid = binary.AppendUvarint(valid, 2)
		valid = append(valid, 0x01, 'a', 0x01, 'b')
	}
	for i, seed := range seeds {
		f.Add(seed, valid[:(i*5)%(len(valid)+1)])
	}
	f.Add(seeds[3], valid)
	f.Fuzz(func(t *testing.T, data, body []byte) {
		exerciseStream(t, resealMeta(data, body))
		exerciseStream(t, resealMeta(resealV1(data), body))

		// A well-formed indexed stream with its real metadata section
		// replaced by a forged one: DecodeBytes must keep accepting (the v1
		// payload and v2 trailer are untouched), OpenView must accept only
		// if the forged zone maps parse.
		base := seeds[3] // the 2-dim indexed seed
		metaLen := int(binary.LittleEndian.Uint32(base[len(base)-12:])) + metaFootLen
		forged := resealMeta(base[:len(base)-metaLen], body)
		exerciseStream(t, forged)
		if _, err := DecodeBytes(forged); err != nil {
			t.Fatalf("DecodeBytes rejected an intact stream with a forged metadata section: %v", err)
		}
	})
}

// The kernel fuzzer compares aggregates with oracle_test.go's aggBitsEqual
// rather than Aggregate.Equal: a fuzzed (checksum-resealed) stream can
// carry NaN aggregate floats, which == can never equate even when both
// readers returned the identical bytes.

// sentinelOf maps an error to the sentinel class the kernel contract
// allows; unknown non-nil errors fail the run via wantCleanError first.
func sentinelOf(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrBadQuery):
		return ErrBadQuery
	case errors.Is(err, ErrBadMagic):
		return ErrBadMagic
	case errors.Is(err, ErrBadVersion):
		return ErrBadVersion
	default:
		return ErrCorruptCube
	}
}

// FuzzQueryKernel is the differential fuzzer for the unified kernel:
// arbitrary selector sets and shape choices must answer identically on the
// decoded *Cube and the zero-copy *CubeView over the same accepted stream,
// or fail with the same sentinel error class on both.
func FuzzQueryKernel(f *testing.F) {
	for i, seed := range fuzzSeedStreams(f) {
		f.Add(seed, byte(i), byte(i%4), "d1", "north")
	}
	f.Fuzz(func(t *testing.T, data []byte, shape, dim byte, k1, k2 string) {
		sealed := resealV1(data)
		v, errV := OpenView(sealed)
		wantCleanError(t, "OpenView", errV)
		c, errC := DecodeBytes(sealed)
		wantCleanError(t, "DecodeBytes", errC)
		if errV != nil || errC != nil {
			// Acceptance can differ at open time (the view indexes lazily);
			// FuzzDecode owns that agreement story.
			return
		}
		ndims := v.NumDims()
		sels := make([]Selector, ndims)
		keys := make([]string, ndims)
		for i := range sels {
			switch (int(shape) + i) % 4 {
			case 0:
				keys[i] = All
			case 1:
				sels[i] = SelectKeys(k1, k2, k1)
				keys[i] = k1
			case 2:
				lo, hi := k1, k2
				if lo > hi {
					lo, hi = hi, lo
				}
				sels[i] = SelectRange(lo, hi)
				keys[i] = k2
			default:
				sels[i] = SelectRange(k2, k1) // possibly empty range
				keys[i] = k1
			}
		}
		d := int(dim) % ndims
		spec := TopKSpec{K: int(shape) % 5, By: Metric(int(dim) % 5), Threshold: 1, HasThreshold: shape%2 == 0}

		// Every shape: both sources must agree on the answer or fail with
		// the same sentinel class.
		check := func(op string, cubeErr, viewErr error, equal func() bool) {
			wantCleanError(t, op+" (cube)", cubeErr)
			wantCleanError(t, op+" (view)", viewErr)
			if (cubeErr == nil) != (viewErr == nil) {
				t.Fatalf("%s diverged: cube err %v, view err %v", op, cubeErr, viewErr)
			}
			if cubeErr != nil {
				if !errors.Is(viewErr, sentinelOf(cubeErr)) && !errors.Is(cubeErr, sentinelOf(viewErr)) {
					t.Fatalf("%s failed with different sentinels: cube %v, view %v", op, cubeErr, viewErr)
				}
				return
			}
			if !equal() {
				t.Fatalf("%s answers diverged", op)
			}
		}

		ca, cerr := c.Point(keys...)
		va, verr := v.Point(keys...)
		check("Point", cerr, verr, func() bool { return aggBitsEqual(ca, va) })

		cr, cerr := c.Range(sels)
		vr, verr := v.Range(sels)
		check("Range", cerr, verr, func() bool { return aggBitsEqual(cr, vr) })

		cg, cerr := c.GroupBy(d, sels)
		vg, verr := v.GroupBy(d, sels)
		check("GroupBy", cerr, verr, func() bool {
			if len(cg) != len(vg) {
				return false
			}
			for k, a := range cg {
				if b, ok := vg[k]; !ok || !aggBitsEqual(a, b) {
					return false
				}
			}
			return true
		})

		pdims := []int{d}
		if ndims > 1 {
			pdims = append(pdims, (d+1)%ndims)
		}
		cp, cerr := c.Pivot(pdims, sels)
		vp, verr := v.Pivot(pdims, sels)
		check("Pivot", cerr, verr, func() bool {
			if len(cp) != len(vp) {
				return false
			}
			for i := range cp {
				if len(cp[i].Keys) != len(vp[i].Keys) || !aggBitsEqual(cp[i].Agg, vp[i].Agg) {
					return false
				}
				for j := range cp[i].Keys {
					if cp[i].Keys[j] != vp[i].Keys[j] {
						return false
					}
				}
			}
			return true
		})

		ck, cerr := c.TopK(d, sels, spec)
		vk, verr := v.TopK(d, sels, spec)
		check("TopK", cerr, verr, func() bool {
			if len(ck) != len(vk) {
				return false
			}
			for i := range ck {
				if ck[i].Key != vk[i].Key || !aggBitsEqual(ck[i].Agg, vk[i].Agg) {
					return false
				}
			}
			return true
		})

		var cFacts, vFacts int
		c.Tuples(func([]string, Aggregate) bool { cFacts++; return cFacts < 1<<12 })
		verr = v.Tuples(func([]string, Aggregate) bool { vFacts++; return vFacts < 1<<12 })
		check("Tuples", nil, verr, func() bool { return cFacts == vFacts })
	})
}

// FuzzViewQuery drives every CubeView query shape with fuzzed keys over
// fuzzed (resealed) streams: no input may panic, and failures must be the
// ErrCorruptCube / ErrBadQuery sentinels.
func FuzzViewQuery(f *testing.F) {
	for i, seed := range fuzzSeedStreams(f) {
		f.Add(seed, "d1", "north", byte(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, k1, k2 string, dim byte) {
		v, err := OpenView(resealV1(data))
		wantCleanError(t, "OpenView", err)
		if err != nil {
			return
		}
		cleanQuery := func(op string, err error) {
			if err == nil || errors.Is(err, ErrBadQuery) {
				return
			}
			wantCleanError(t, op, err)
		}
		ndims := v.NumDims()
		keys := make([]string, ndims)
		sels := make([]Selector, ndims)
		for i := range keys {
			switch i % 3 {
			case 0:
				keys[i] = k1
				sels[i] = SelectKeys(k1, k2)
			case 1:
				keys[i] = All
			default:
				keys[i] = k2
				sels[i] = SelectRange(k1, k2)
			}
		}
		_, err = v.Point(keys...)
		cleanQuery("Point", err)
		_, err = v.Point(k1, k2) // often wrong arity: ErrBadQuery path
		cleanQuery("Point/arity", err)
		_, err = v.Range(sels)
		cleanQuery("Range", err)
		_, err = v.GroupBy(int(dim)%(ndims+1), sels)
		cleanQuery("GroupBy", err)
		var n int
		err = v.Tuples(func([]string, Aggregate) bool {
			n++
			return n < 1<<12
		})
		cleanQuery("Tuples", err)
		_, err = v.Stats()
		cleanQuery("Stats", err)
	})
}
