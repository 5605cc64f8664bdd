package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cubestore"
	"repro/internal/dwarf"
)

// aggBitsEqual compares aggregates bit for bit, so NaN payloads, -0 and
// ±Inf count as equal only when they arrived unchanged.
func aggBitsEqual(a, b dwarf.Aggregate) bool {
	return math.Float64bits(a.Sum) == math.Float64bits(b.Sum) && a.Count == b.Count &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

func groupsBitsEqual(a, b map[string]dwarf.Aggregate) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		y, ok := b[k]
		if !ok || !aggBitsEqual(x, y) {
			return false
		}
	}
	return true
}

func rowsBitsEqual(a, b []dwarf.PivotGroup) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Keys, b[i].Keys) || !aggBitsEqual(a[i].Agg, b[i].Agg) {
			return false
		}
	}
	return true
}

// nastyFloats are the values a lossy float encoding gets wrong.
var nastyFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8_dead_beef_0001), // quiet NaN with a payload
	math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
	math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5, 0.1,
}

// checkRoundTrips requires encode→decode to be the identity on every
// partial message built from the given parts.
func checkRoundTrips(t *testing.T, gen uint64, key string, agg dwarf.Aggregate, n int) {
	t.Helper()
	if g, got, err := DecodePartialAgg(AppendPartialAgg(nil, gen, agg)); err != nil || g != gen || !aggBitsEqual(got, agg) {
		t.Fatalf("agg %+v gen %d: round trip gave %+v gen %d, %v", agg, gen, got, g, err)
	}
	groups := map[string]dwarf.Aggregate{key: agg, key + "\x00": {Sum: agg.Max, Count: -agg.Count, Min: agg.Sum, Max: agg.Min}}
	if g, got, err := DecodePartialGroups(AppendPartialGroups(nil, gen, groups)); err != nil || g != gen || !groupsBitsEqual(got, groups) {
		t.Fatalf("groups %v: round trip gave %v gen %d, %v", groups, got, g, err)
	}
	rows := []dwarf.PivotGroup{{Keys: []string{key, ""}, Agg: agg}, {Agg: agg}, {Keys: []string{key}}}
	if g, got, err := DecodePartialRows(AppendPartialRows(nil, gen, rows)); err != nil || g != gen || !rowsBitsEqual(got, rows) {
		t.Fatalf("rows %v: round trip gave %v gen %d, %v", rows, got, g, err)
	}
	req := PartialRequest{
		Shape: PartialShape(n), Cube: key, Keys: []string{key, dwarf.All, ""},
		Dims: []int{n, -n, math.MaxInt, math.MinInt},
		Sels: []dwarf.Selector{dwarf.SelectAll(), dwarf.SelectKeys(key, ""), dwarf.SelectRange(key, ""), dwarf.SelectRange("", "")},
	}
	if got, err := parsePartialRequest(AppendPartialRequest(nil, &req)); err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("request %+v: round trip gave %+v, %v", req, got, err)
	}
}

func TestPartialWireRoundTrip(t *testing.T) {
	for _, f := range nastyFloats {
		for _, count := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
			checkRoundTrips(t, uint64(count), "k\xff", dwarf.Aggregate{Sum: f, Count: count, Min: -f, Max: f}, int(count))
		}
	}
	// An empty request is a valid encoding too: every list decodes nil.
	if got, err := parsePartialRequest(AppendPartialRequest(nil, &PartialRequest{})); err != nil || !reflect.DeepEqual(got, PartialRequest{}) {
		t.Fatalf("empty request: %+v, %v", got, err)
	}
}

// TestPartialWireStrict pins the parse errors: every truncation of a valid
// body, a trailing byte, a wrong version or kind, and duplicate group
// keys are errors, never a short value.
func TestPartialWireStrict(t *testing.T) {
	agg := dwarf.Aggregate{Sum: 9, Count: 2, Min: 4, Max: 5}
	bodies := map[string][]byte{
		"agg":    AppendPartialAgg(nil, 7, agg),
		"groups": AppendPartialGroups(nil, 7, map[string]dwarf.Aggregate{"a": agg, "bb": agg}),
		"rows":   AppendPartialRows(nil, 7, []dwarf.PivotGroup{{Keys: []string{"a", "b"}, Agg: agg}}),
		"request": AppendPartialRequest(nil, &PartialRequest{
			Shape: PartialPivot, Cube: "live", Dims: []int{0, 2},
			Sels: []dwarf.Selector{dwarf.SelectKeys("x"), dwarf.SelectRange("a", "b"), dwarf.SelectAll()},
		}),
	}
	decode := map[string]func([]byte) error{
		"agg":     func(b []byte) error { _, _, err := DecodePartialAgg(b); return err },
		"groups":  func(b []byte) error { _, _, err := DecodePartialGroups(b); return err },
		"rows":    func(b []byte) error { _, _, err := DecodePartialRows(b); return err },
		"request": func(b []byte) error { _, err := parsePartialRequest(b); return err },
	}
	for name, body := range bodies {
		if err := decode[name](body); err != nil {
			t.Fatalf("%s: valid body rejected: %v", name, err)
		}
		for n := 0; n < len(body); n++ {
			if decode[name](body[:n]) == nil {
				t.Fatalf("%s: %d-byte truncation of a %d-byte body decoded", name, n, len(body))
			}
		}
		if decode[name](append(bytes.Clone(body), 0)) == nil {
			t.Fatalf("%s: trailing byte accepted", name)
		}
		wrongVersion := bytes.Clone(body)
		wrongVersion[0]++
		if decode[name](wrongVersion) == nil {
			t.Fatalf("%s: version %d accepted", name, wrongVersion[0])
		}
	}
	for name, body := range bodies {
		if name == "request" {
			continue
		}
		for other, dec := range decode {
			if other != name && other != "request" && dec(body) == nil {
				t.Fatalf("%s body decoded as %s", name, other)
			}
		}
	}
	// Two entries under one key: a decoder keeping only one would answer a
	// short total.
	dup := appendWireHeader(nil, kindGroups, 1)
	dup = binary.AppendUvarint(dup, 2)
	for i := 0; i < 2; i++ {
		dup = appendWireString(dup, "k")
		dup = appendWireAgg(dup, agg)
	}
	if _, _, err := DecodePartialGroups(dup); err == nil {
		t.Fatal("duplicate group key accepted")
	}
}

// TestPartialWireBoundsCounts feeds bodies whose counts claim far more
// elements than their bytes hold: each must fail without allocating for
// the claim.
func TestPartialWireBoundsCounts(t *testing.T) {
	huge := []uint64{1 << 20, 1 << 40, math.MaxUint64}
	var bodies [][]byte
	for _, n := range huge {
		for _, kind := range []byte{kindGroups, kindRows} {
			bodies = append(bodies, binary.AppendUvarint(appendWireHeader(nil, kind, 1), n))
		}
		// A request whose cube name, key list, dims and selectors claim n.
		bodies = append(bodies,
			binary.AppendUvarint([]byte{partialWireVersion, byte(PartialPoint)}, n),
			binary.AppendUvarint([]byte{partialWireVersion, byte(PartialPoint), 0}, n),
			binary.AppendUvarint([]byte{partialWireVersion, byte(PartialPivot), 0, 0}, n),
			binary.AppendUvarint([]byte{partialWireVersion, byte(PartialPivot), 0, 0, 0}, n),
			binary.AppendUvarint([]byte{partialWireVersion, byte(PartialRange), 0, 0, 0, 1, selKeys}, n),
		)
	}
	for _, body := range bodies {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		_, _, errG := DecodePartialGroups(body)
		_, _, errR := DecodePartialRows(body)
		_, errQ := parsePartialRequest(body)
		runtime.ReadMemStats(&ms1)
		if errG == nil || errR == nil || errQ == nil {
			t.Fatalf("body %x decoded: groups %v, rows %v, request %v", body, errG, errR, errQ)
		}
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got > 16<<10 {
			t.Fatalf("body %x: %d bytes allocated for a %d-byte input", body, got, len(body))
		}
	}
}

// TestPartialGroupsDecodeAllocs pins the decoder's allocations. A G-group
// partial may cost at most G plus a small constant (the map and one string
// per key); the decoder takes every key from one copy of the body, so it
// costs a constant, and that is what is pinned.
func TestPartialGroupsDecodeAllocs(t *testing.T) {
	const maxAllocs = 8
	for _, g := range []int{1, 16, 256} {
		groups := make(map[string]dwarf.Aggregate, g)
		for i := 0; i < g; i++ {
			groups[fmt.Sprintf("stn-%04d", i)] = dwarf.Aggregate{Sum: float64(i), Count: 1, Min: float64(i), Max: float64(i)}
		}
		body := AppendPartialGroups(nil, 3, groups)
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := DecodePartialGroups(body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Fatalf("decoding %d groups: %.0f allocs, want <= %d", g, allocs, maxAllocs)
		}
	}
}

// TestPartialEndpointContentType pins the node side of the Content-Type
// rule: only PartialContentType bodies are parsed; a JSON body is a 4xx,
// never a 500.
func TestPartialEndpointContentType(t *testing.T) {
	store, err := cubestore.Open(t.TempDir(), cubestore.Options{Dims: []string{"Day", "Region", "Kind"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	s, err := New(Options{Store: store, ClusterNode: true})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	good := AppendPartialRequest(nil, &PartialRequest{Shape: PartialPoint, Cube: "live", Keys: []string{"*", "*", "*"}})
	cases := []struct {
		name, ctype string
		body        []byte
		want        int
	}{
		{"binary", PartialContentType, good, http.StatusOK},
		{"JSON as JSON", "application/json", []byte(`{"shape":"point","cube":"live","keys":["*","*","*"]}`), http.StatusUnsupportedMediaType},
		{"JSON as binary", PartialContentType, []byte(`{"shape":"point","cube":"live","keys":["*","*","*"]}`), http.StatusBadRequest},
		{"binary without a type", "", good, http.StatusUnsupportedMediaType},
		{"truncated", PartialContentType, good[:len(good)-1], http.StatusBadRequest},
		{"over the body limit", PartialContentType, make([]byte, maxQueryBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"unknown shape", PartialContentType, AppendPartialRequest(nil, &PartialRequest{Shape: 9, Cube: "live"}), http.StatusBadRequest},
		{"groupby without a dimension", PartialContentType,
			AppendPartialRequest(nil, &PartialRequest{Shape: PartialGroupBy, Cube: "live", Sels: make([]dwarf.Selector, 3)}), http.StatusBadRequest},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, "/query/partial", bytes.NewReader(c.body))
		if c.ctype != "" {
			req.Header.Set("Content-Type", c.ctype)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Fatalf("%s: status %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body)
		}
		wantType := "application/json"
		if c.want == http.StatusOK {
			wantType = PartialContentType
		}
		if got := rec.Header().Get("Content-Type"); got != wantType {
			t.Fatalf("%s: response Content-Type %q, want %q", c.name, got, wantType)
		}
	}
}

// FuzzPartialWire feeds arbitrary bytes to the request parser and every
// response decoder — each returns a value or an error, never panics, and a
// value re-encodes to a body decoding to the same value — and checks that
// encode→decode is the identity on messages built from the fuzzed parts,
// float bits included.
func FuzzPartialWire(f *testing.F) {
	agg := dwarf.Aggregate{Sum: 9, Count: 2, Min: 4, Max: 5}
	for _, body := range [][]byte{
		nil,
		AppendPartialAgg(nil, 7, agg),
		AppendPartialGroups(nil, 7, map[string]dwarf.Aggregate{"a": agg, "bb": agg}),
		AppendPartialRows(nil, 7, []dwarf.PivotGroup{{Keys: []string{"a", "b"}, Agg: agg}}),
		AppendPartialRequest(nil, &PartialRequest{
			Shape: PartialGroupBy, Cube: "live", Dims: []int{6},
			Sels: []dwarf.Selector{dwarf.SelectKeys("x"), dwarf.SelectRange("a", "b"), dwarf.SelectAll()},
		}),
	} {
		f.Add(body, "key", math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)), math.Float64bits(math.Copysign(0, -1)), int64(3))
	}
	f.Fuzz(func(t *testing.T, body []byte, key string, sum, lo, hi uint64, count int64) {
		if req, err := parsePartialRequest(body); err == nil {
			again, err := parsePartialRequest(AppendPartialRequest(nil, &req))
			if err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("request %+v re-decoded as %+v, %v", req, again, err)
			}
		}
		if gen, a, err := DecodePartialAgg(body); err == nil {
			g, again, err := DecodePartialAgg(AppendPartialAgg(nil, gen, a))
			if err != nil || g != gen || !aggBitsEqual(again, a) {
				t.Fatalf("agg %+v re-decoded as %+v, %v", a, again, err)
			}
		}
		if gen, groups, err := DecodePartialGroups(body); err == nil {
			g, again, err := DecodePartialGroups(AppendPartialGroups(nil, gen, groups))
			if err != nil || g != gen || !groupsBitsEqual(again, groups) {
				t.Fatalf("groups %v re-decoded as %v, %v", groups, again, err)
			}
		}
		if gen, rows, err := DecodePartialRows(body); err == nil {
			g, again, err := DecodePartialRows(AppendPartialRows(nil, gen, rows))
			if err != nil || g != gen || !rowsBitsEqual(again, rows) {
				t.Fatalf("rows %v re-decoded as %v, %v", rows, again, err)
			}
		}
		a := dwarf.Aggregate{Sum: math.Float64frombits(sum), Count: count, Min: math.Float64frombits(lo), Max: math.Float64frombits(hi)}
		checkRoundTrips(t, sum, key, a, int(count))
	})
}
