package dwarf

import (
	"bytes"
	"errors"
	"testing"
)

func TestRangeSelectors(t *testing.T) {
	c := mustCube(t, paperDims, paperTuples())

	cases := []struct {
		name string
		sels []Selector
		sum  float64
		cnt  int64
	}{
		{"all-all-all", []Selector{SelectAll(), SelectAll(), SelectAll()}, 14, 4},
		{"ireland-only", []Selector{SelectKeys("Ireland"), SelectAll(), SelectAll()}, 10, 3},
		{"two-cities", []Selector{SelectAll(), SelectKeys("Dublin", "Cork"), SelectAll()}, 10, 3},
		{"city-range", []Selector{SelectAll(), SelectRange("Cork", "Dublin"), SelectAll()}, 10, 3},
		{"station-range", []Selector{SelectAll(), SelectAll(), SelectRange("Patrick St", "Pearse St")}, 7, 2},
		{"missing-key", []Selector{SelectKeys("Spain"), SelectAll(), SelectAll()}, 0, 0},
		{"duplicate-keys", []Selector{SelectKeys("Ireland", "Ireland"), SelectAll(), SelectAll()}, 10, 3},
	}
	for _, tc := range cases {
		got, err := c.Range(tc.sels)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Sum != tc.sum || got.Count != tc.cnt {
			t.Errorf("%s = %v, want sum=%g count=%d", tc.name, got, tc.sum, tc.cnt)
		}
	}

	if _, err := c.Range([]Selector{SelectAll()}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("short selector list: err = %v", err)
	}
}

func TestGroupBy(t *testing.T) {
	c := mustCube(t, paperDims, paperTuples())

	byCountry, err := c.GroupBy(0, []Selector{SelectAll(), SelectAll(), SelectAll()})
	if err != nil {
		t.Fatal(err)
	}
	if len(byCountry) != 2 {
		t.Fatalf("byCountry = %v", byCountry)
	}
	if byCountry["Ireland"].Sum != 10 || byCountry["France"].Sum != 4 {
		t.Errorf("byCountry = %v", byCountry)
	}

	// Group by city restricted to Ireland.
	byCity, err := c.GroupBy(1, []Selector{SelectKeys("Ireland"), SelectAll(), SelectAll()})
	if err != nil {
		t.Fatal(err)
	}
	if len(byCity) != 2 || byCity["Dublin"].Sum != 8 || byCity["Cork"].Sum != 2 {
		t.Errorf("byCity = %v", byCity)
	}

	// Group by the last (leaf) dimension.
	byStation, err := c.GroupBy(2, []Selector{SelectAll(), SelectAll(), SelectAll()})
	if err != nil {
		t.Fatal(err)
	}
	if len(byStation) != 4 || byStation["Fenian St"].Sum != 3 {
		t.Errorf("byStation = %v", byStation)
	}

	if _, err := c.GroupBy(7, []Selector{SelectAll(), SelectAll(), SelectAll()}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bad dim: err = %v", err)
	}
	if _, err := c.GroupBy(0, nil); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bad sels: err = %v", err)
	}
}

func TestTuplesEnumeration(t *testing.T) {
	c := mustCube(t, paperDims, paperTuples())
	var got [][]string
	var sum float64
	c.Tuples(func(dims []string, agg Aggregate) bool {
		got = append(got, append([]string(nil), dims...))
		sum += agg.Sum
		return true
	})
	if len(got) != 4 {
		t.Fatalf("enumerated %d tuples, want 4", len(got))
	}
	if sum != 14 {
		t.Errorf("sum of enumerated = %g, want 14", sum)
	}
	// Sorted order: France first.
	if got[0][0] != "France" {
		t.Errorf("first tuple = %v, want France row", got[0])
	}
	// Early abort.
	n := 0
	c.Tuples(func([]string, Aggregate) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("aborted enumeration saw %d tuples", n)
	}
}

func TestExtractSubcube(t *testing.T) {
	c := mustCube(t, paperDims, paperTuples())
	sub, err := c.Extract([]Selector{SelectKeys("Ireland"), SelectAll(), SelectAll()})
	if err != nil {
		t.Fatal(err)
	}
	if !sub.FromQuery {
		t.Error("FromQuery flag not set")
	}
	if sub.NumSourceTuples() != 3 {
		t.Errorf("sub tuples = %d, want 3", sub.NumSourceTuples())
	}
	all, _ := sub.Point(All, All, All)
	if all.Sum != 10 {
		t.Errorf("sub ALL = %v, want sum=10", all)
	}
	if fr, _ := sub.Point("France", All, All); !fr.IsZero() {
		t.Errorf("France should be absent from the Ireland sub-cube: %v", fr)
	}

	if _, err := c.Extract(nil); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bad extract: err = %v", err)
	}
}

func TestMustPointPanics(t *testing.T) {
	c := mustCube(t, paperDims, paperTuples())
	defer func() {
		if recover() == nil {
			t.Error("MustPoint with wrong arity should panic")
		}
	}()
	c.MustPoint("Ireland")
}

// builtView is BuildIndexed of tuples opened as a view: how the store
// holds every run and segment it builds.
func builtView(t *testing.T, dims []string, tuples []Tuple) *CubeView {
	t.Helper()
	data, err := BuildIndexed(dims, tuples)
	if err != nil {
		t.Fatal(err)
	}
	v, err := OpenViewTrusted(data)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestMergeDimensionMismatch(t *testing.T) {
	a := builtView(t, []string{"x"}, nil)
	b := builtView(t, []string{"x", "y"}, nil)
	if _, _, err := MergeViewsBytes(a, b); !errors.Is(err, ErrDimsMismatch) {
		t.Errorf("err = %v, want ErrDimsMismatch", err)
	}
	c := builtView(t, []string{"z"}, nil)
	if _, _, err := MergeViewsBytes(a, c); !errors.Is(err, ErrDimsMismatch) {
		t.Errorf("renamed dim: err = %v, want ErrDimsMismatch", err)
	}
}

// TestMergeEmptyCubes: merging empty cubes gives the empty cube, and an
// empty input leaves the other's bytes unchanged.
func TestMergeEmptyCubes(t *testing.T) {
	dims := []string{"x", "y"}
	empty := builtView(t, dims, nil)
	m, _, err := MergeViewsBytes(empty, builtView(t, dims, nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := batchIndexed(t, dims, nil); !bytes.Equal(m, want) {
		t.Errorf("merged empty cubes: %d bytes, empty build %d", len(m), len(want))
	}
	one := []Tuple{{Dims: []string{"a", "b"}, Measure: 5}}
	m, _, err = MergeViewsBytes(empty, builtView(t, dims, one))
	if err != nil {
		t.Fatal(err)
	}
	if want := batchIndexed(t, dims, one); !bytes.Equal(m, want) {
		t.Errorf("merge with empty: %d bytes, batch build %d", len(m), len(want))
	}
}

// TestAppendIncremental folds a day into a cube the way the store does:
// BuildIndexed of the new batch, then one MergeViewsBytes with the
// standing cube's view. The result is the batch build of both days.
func TestAppendIncremental(t *testing.T) {
	dims := []string{"day", "station"}
	day1 := []Tuple{
		{Dims: []string{"mon", "s1"}, Measure: 4},
		{Dims: []string{"mon", "s2"}, Measure: 6},
	}
	day2 := []Tuple{
		{Dims: []string{"tue", "s1"}, Measure: 10},
		{Dims: []string{"mon", "s1"}, Measure: 1}, // same keys as an existing fact
	}
	base := builtView(t, dims, day1)
	out, _, err := MergeViewsBytes(base, builtView(t, dims, day2))
	if err != nil {
		t.Fatal(err)
	}
	if want := batchIndexed(t, dims, append(append([]Tuple{}, day1...), day2...)); !bytes.Equal(out, want) {
		t.Fatalf("appended cube: %d bytes, batch build %d", len(out), len(want))
	}
	c2, err := OpenViewTrusted(out)
	if err != nil {
		t.Fatal(err)
	}
	if agg, _ := c2.Point("mon", "s1"); agg.Sum != 5 || agg.Count != 2 {
		t.Errorf("(mon,s1) after append = %v, want sum=5 count=2", agg)
	}
	if agg, _ := c2.Point(All, All); agg.Sum != 21 || agg.Count != 4 {
		t.Errorf("ALL after append = %v", agg)
	}
	// The standing cube is unchanged.
	if agg, _ := base.Point(All, All); agg.Sum != 10 || agg.Count != 2 {
		t.Errorf("original mutated: %v", agg)
	}
	if c2.NumSourceTuples() != 4 {
		t.Errorf("tuple count = %d, want 4", c2.NumSourceTuples())
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeBytes([]byte("not a cube at all")); !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorruptCube) {
		t.Errorf("garbage: err = %v", err)
	}
	c := mustCube(t, paperDims, paperTuples())
	data := encodeV1(t, c)
	// Flip a payload byte: CRC must catch it.
	data[len(data)/2] ^= 0xFF
	if _, err := DecodeBytes(data); !errors.Is(err, ErrCorruptCube) {
		t.Errorf("tampered: err = %v, want ErrCorruptCube", err)
	}
	// Truncated stream.
	if _, err := DecodeBytes(encodeV1(t, c)[:10]); err == nil {
		t.Error("truncated stream decoded without error")
	}
}

func TestEncodeDecodeEmptyAndFlag(t *testing.T) {
	c := mustCube(t, []string{"a"}, nil)
	c.FromQuery = true
	d, err := DecodeBytes(encodeV1(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if !d.FromQuery {
		t.Error("FromQuery flag lost")
	}
	if d.NumDims() != 1 || d.NumSourceTuples() != 0 {
		t.Errorf("decoded empty cube: dims=%d tuples=%d", d.NumDims(), d.NumSourceTuples())
	}
}
