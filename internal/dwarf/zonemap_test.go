package dwarf

import (
	"bytes"
	"testing"
)

// zoneTuples is a small multi-day fact set with deliberately uneven key
// coverage per slice, so per-slice zone maps differ.
func zoneTuples() []Tuple {
	return []Tuple{
		{Dims: []string{"d01", "north", "bike"}, Measure: 2},
		{Dims: []string{"d01", "south", "bike"}, Measure: 3},
		{Dims: []string{"d02", "north", "car"}, Measure: 5},
		{Dims: []string{"d03", "east", "bike"}, Measure: 7},
		{Dims: []string{"d03", "north", "scooter"}, Measure: 1},
		{Dims: []string{"d04", "west", "car"}, Measure: 4},
	}
}

func encodeIndexed(t *testing.T, c *Cube) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.EncodeIndexed(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestZoneMapsContainFacts pins the semantics of the encoder-written maps:
// exact per-dimension min/max/distinct over the fact set, identical across
// Encode+AppendOffsetTrailer, EncodeIndexed and MergeViewsBytes.
func TestZoneMapsContainFacts(t *testing.T) {
	dims := []string{"Day", "Region", "Kind"}
	c, err := New(dims, zoneTuples())
	if err != nil {
		t.Fatal(err)
	}
	want := []ZoneMap{
		{Min: "d01", Max: "d04", Distinct: 4},
		{Min: "east", Max: "west", Distinct: 4},
		{Min: "bike", Max: "scooter", Distinct: 3},
	}
	checkZones := func(label string, data []byte) {
		t.Helper()
		v, err := OpenView(data)
		if err != nil {
			t.Fatalf("%s: OpenView: %v", label, err)
		}
		got := v.ZoneMaps()
		if len(got) != len(want) {
			t.Fatalf("%s: got %d zone maps, want %d", label, len(got), len(want))
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("%s: zone map %d = %+v, want %+v", label, d, got[d], want[d])
			}
		}
		// Containment: every fact key lies inside its dimension's bounds.
		err = v.Tuples(func(keys []string, _ Aggregate) bool {
			for d, k := range keys {
				if k < got[d].Min || k > got[d].Max {
					t.Fatalf("%s: fact key %q outside zone map %d [%q, %q]", label, k, d, got[d].Min, got[d].Max)
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	indexed := encodeIndexed(t, c)
	checkZones("EncodeIndexed", indexed)

	// The upgrade path (scan-built index) must record the same maps.
	upgraded, err := AppendOffsetTrailer(encodeV1(t, c))
	if err != nil {
		t.Fatal(err)
	}
	checkZones("AppendOffsetTrailer", upgraded)
	if !bytes.Equal(upgraded, indexed) {
		t.Fatal("AppendOffsetTrailer and EncodeIndexed disagree byte for byte")
	}

	// A streaming merge of per-day slices must emit the identical stream —
	// zone maps included — as the batch build of the union.
	tuples := zoneTuples()
	var views []*CubeView
	for _, day := range []string{"d01", "d02", "d03", "d04"} {
		var slice []Tuple
		for _, tu := range tuples {
			if tu.Dims[0] == day {
				slice = append(slice, tu)
			}
		}
		sc, err := New(dims, slice)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := OpenView(encodeIndexed(t, sc))
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, sv)
	}
	merged, _, err := MergeViewsBytes(views...)
	if err != nil {
		t.Fatal(err)
	}
	checkZones("MergeViewsBytes", merged)
	if !bytes.Equal(merged, indexed) {
		t.Fatal("MergeViewsBytes and EncodeIndexed disagree byte for byte")
	}
}

// TestZoneMapsEmptyCube: a cube over zero facts carries all-empty maps that
// reject every bound selector but keep admitting the pure-ALL query.
func TestZoneMapsEmptyCube(t *testing.T) {
	c, err := New([]string{"A", "B"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := OpenView(encodeIndexed(t, c))
	if err != nil {
		t.Fatal(err)
	}
	zones := v.ZoneMaps()
	for d, z := range zones {
		if z != (ZoneMap{}) {
			t.Fatalf("empty cube zone map %d = %+v, want zero", d, z)
		}
	}
	if !ZonesAdmit(zones, make([]Selector, 2)) {
		t.Fatal("empty maps rejected the pure-ALL query")
	}
	if ZonesAdmit(zones, []Selector{SelectKeys("x"), {}}) {
		t.Fatal("empty maps admitted a key selector")
	}
	if ZonesAdmitPoint(zones, []string{"x", All}) {
		t.Fatal("empty maps admitted a bound point key")
	}
}

// TestZonesAdmit pins the admission rule selector by selector.
func TestZonesAdmit(t *testing.T) {
	zones := []ZoneMap{
		{Min: "d01", Max: "d04", Distinct: 4},
		{Min: "north", Max: "south", Distinct: 2},
	}
	all := Selector{}
	cases := []struct {
		name string
		sels []Selector
		want bool
	}{
		{"pure ALL", []Selector{all, all}, true},
		{"key inside", []Selector{SelectKeys("d02"), all}, true},
		{"key below min", []Selector{SelectKeys("d00"), all}, false},
		{"key above max", []Selector{SelectKeys("d05"), all}, false},
		{"one of several keys inside", []Selector{SelectKeys("d00", "d03"), all}, true},
		{"range overlapping", []Selector{SelectRange("d03", "d09"), all}, true},
		{"range below", []Selector{SelectRange("a", "d00"), all}, false},
		{"range above", []Selector{SelectRange("d05", "z"), all}, false},
		{"range covering all", []Selector{SelectRange("a", "z"), all}, true},
		{"empty range", []Selector{SelectRange("d04", "d01"), all}, false},
		{"second dim rejects", []Selector{all, SelectKeys("west")}, false},
		// HasRange shadows Keys: the keys would miss, the range overlaps.
		{"range shadows keys", []Selector{{Keys: []string{"zzz"}, Lo: "d01", Hi: "d02", HasRange: true}, all}, true},
		// Single-key dimension: min == max boundaries are inclusive.
		{"exact bound hit", []Selector{SelectRange("d04", "d04"), all}, true},
	}
	for _, tc := range cases {
		if got := ZonesAdmit(zones, tc.sels); got != tc.want {
			t.Errorf("%s: ZonesAdmit = %v, want %v", tc.name, got, tc.want)
		}
	}

	single := []ZoneMap{{Min: "k", Max: "k", Distinct: 1}}
	if !ZonesAdmit(single, []Selector{SelectKeys("k")}) {
		t.Error("single-key zone rejected its own key")
	}
	if ZonesAdmit(single, []Selector{SelectKeys("j")}) {
		t.Error("single-key zone admitted a foreign key")
	}

	// Missing or mismatched maps must admit — conservative scan.
	if !ZonesAdmit(nil, []Selector{SelectKeys("nope")}) {
		t.Error("nil zone maps must admit everything")
	}
	if !ZonesAdmit(zones[:1], []Selector{SelectKeys("nope"), all}) {
		t.Error("length-mismatched zone maps must admit everything")
	}
}

// TestZonesAdmitPoint pins the point-tuple admission rule.
func TestZonesAdmitPoint(t *testing.T) {
	zones := []ZoneMap{
		{Min: "d01", Max: "d04", Distinct: 4},
		{Min: "north", Max: "south", Distinct: 2},
	}
	cases := []struct {
		name string
		keys []string
		want bool
	}{
		{"both inside", []string{"d02", "north"}, true},
		{"ALL everywhere", []string{All, All}, true},
		{"first outside", []string{"d09", "north"}, false},
		{"second outside", []string{"d02", "aaa"}, false},
		{"ALL then inside", []string{All, "south"}, true},
	}
	for _, tc := range cases {
		if got := ZonesAdmitPoint(zones, tc.keys); got != tc.want {
			t.Errorf("%s: ZonesAdmitPoint = %v, want %v", tc.name, got, tc.want)
		}
	}
	if !ZonesAdmitPoint(nil, []string{"anything", "at all"}) {
		t.Error("nil zone maps must admit every point")
	}
}
