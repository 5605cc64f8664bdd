package dwarf

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// goldenCube builds the fixed cube committed as testdata/golden_v1.dwarf
// (plain v1), testdata/golden_v2.dwarf (with the offset trailer) and
// testdata/golden_v3.dwarf (offset trailer plus zone-map metadata). Any
// change to its bytes is a format break and must be a deliberate,
// version-bumped decision. It is the node-graph oracle's cube, so the
// fixtures do not come from the builder they check.
func goldenCube(tb testing.TB) *Cube {
	c, err := oracle(goldenDims, goldenTuples())
	if err != nil {
		tb.Fatalf("golden cube: %v", err)
	}
	return c
}

var goldenDims = []string{"Year", "Month", "Region", "Kind"}

func goldenTuples() []Tuple {
	return []Tuple{
		{Dims: []string{"2015", "Jan", "north", "bike"}, Measure: 4},
		{Dims: []string{"2015", "Jan", "north", "car"}, Measure: 2},
		{Dims: []string{"2015", "Jan", "south", "bike"}, Measure: 7},
		{Dims: []string{"2015", "Feb", "north", "bike"}, Measure: 1},
		{Dims: []string{"2015", "Feb", "south", "car"}, Measure: 3},
		{Dims: []string{"2016", "Jan", "north", "bike"}, Measure: 4},
		{Dims: []string{"2016", "Jan", "south", "scooter"}, Measure: 9},
		{Dims: []string{"2016", "Feb", "east", "bike"}, Measure: 5},
		{Dims: []string{"2015", "Jan", "north", "bike"}, Measure: 6}, // duplicate combination
	}
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

// TestWriteGolden regenerates the golden fixtures. Guarded: a byte change
// to the encoding must be committed knowingly, never by accident.
//
//	WRITE_GOLDEN=1 go test -run TestWriteGolden ./internal/dwarf/
func TestWriteGolden(t *testing.T) {
	if os.Getenv("WRITE_GOLDEN") == "" {
		t.Skip("set WRITE_GOLDEN=1 to regenerate testdata/golden_*.dwarf")
	}
	c := goldenCube(t)
	if err := os.WriteFile(goldenPath("golden_v1.dwarf"), encodeV1(t, c), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.EncodeIndexed(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// golden_v2 is the pre-zone-map layout — the full stream minus the v3
	// section — kept as the old-reader fixture.
	metaLen := int(binary.LittleEndian.Uint32(full[len(full)-12:])) + metaFootLen
	if err := os.WriteFile(goldenPath("golden_v2.dwarf"), full[:len(full)-metaLen], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath("golden_v3.dwarf"), full, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenByteStable asserts that the oracle's EncodeIndexed and its v1
// section, New's EncodeIndexed and BuildIndexed reproduce the committed
// fixtures byte for byte: the on-disk format is stable across refactors.
func TestGoldenByteStable(t *testing.T) {
	wantV1, err := os.ReadFile(goldenPath("golden_v1.dwarf"))
	if err != nil {
		t.Fatalf("missing fixture (regenerate with WRITE_GOLDEN=1): %v", err)
	}
	wantV2, err := os.ReadFile(goldenPath("golden_v2.dwarf"))
	if err != nil {
		t.Fatalf("missing fixture (regenerate with WRITE_GOLDEN=1): %v", err)
	}
	wantV3, err := os.ReadFile(goldenPath("golden_v3.dwarf"))
	if err != nil {
		t.Fatalf("missing fixture (regenerate with WRITE_GOLDEN=1): %v", err)
	}
	// The v3 stream extends the v2 stream: same v1 payload and offset
	// trailer, with only the metadata section appended.
	if !bytes.HasPrefix(wantV3, wantV2) {
		t.Fatal("golden_v3.dwarf does not extend golden_v2.dwarf")
	}
	c := goldenCube(t)
	if v1 := encodeV1(t, c); !bytes.Equal(v1, wantV1) {
		t.Fatalf("the v1 section is not byte-stable against golden_v1.dwarf (%d vs %d bytes)",
			len(v1), len(wantV1))
	}
	var buf bytes.Buffer
	if err := c.EncodeIndexed(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantV3) {
		t.Fatal("EncodeIndexed is not byte-stable against golden_v3.dwarf")
	}
	built, err := New(goldenDims, goldenTuples())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built.encodeIndexed(), wantV3) {
		t.Fatal("New's EncodeIndexed is not byte-stable against golden_v3.dwarf")
	}
	if data, err := BuildIndexed(goldenDims, goldenTuples()); err != nil || !bytes.Equal(data, wantV3) {
		t.Fatalf("BuildIndexed is not byte-stable against golden_v3.dwarf (%v)", err)
	}
}

// TestGoldenV1StaysReadable asserts v1 streams (no offset trailer) keep
// decoding and viewing: the trailer is an optional accelerator, not a
// format fork.
func TestGoldenV1StaysReadable(t *testing.T) {
	data, err := os.ReadFile(goldenPath("golden_v1.dwarf"))
	if err != nil {
		t.Fatalf("missing fixture: %v", err)
	}
	if HasOffsetTrailer(data) {
		t.Fatal("golden_v1.dwarf unexpectedly carries a trailer")
	}
	if err := VerifyEncoded(data); err != nil {
		t.Fatalf("VerifyEncoded(v1): %v", err)
	}
	c, err := DecodeBytes(data)
	if err != nil {
		t.Fatalf("DecodeBytes(v1): %v", err)
	}
	v, err := OpenView(data)
	if err != nil {
		t.Fatalf("OpenView(v1): %v", err)
	}
	if v.Indexed() {
		t.Fatal("v1 view claims a trailer index")
	}
	assertViewMatchesCube(t, c, v, "golden v1")

	// And the v2 fixture answers identically through every reader.
	dataV2, err := os.ReadFile(goldenPath("golden_v2.dwarf"))
	if err != nil {
		t.Fatalf("missing fixture: %v", err)
	}
	if !HasOffsetTrailer(dataV2) {
		t.Fatal("golden_v2.dwarf carries no trailer")
	}
	c2, err := DecodeBytes(dataV2)
	if err != nil {
		t.Fatalf("DecodeBytes(v2): %v", err)
	}
	v2, err := OpenView(dataV2)
	if err != nil {
		t.Fatalf("OpenView(v2): %v", err)
	}
	if !v2.Indexed() {
		t.Fatal("v2 view built no trailer index")
	}
	assertViewMatchesCube(t, c2, v2, "golden v2")
	if got, want := c2.Stats(), c.Stats(); got != want {
		t.Fatalf("v2 decode Stats %+v differ from v1 %+v", got, want)
	}
	if v2.ZoneMaps() != nil {
		t.Fatal("v2 fixture unexpectedly carries zone maps")
	}

	// The v3 fixture opens through every reader and carries the pinned
	// zone maps of the golden facts.
	dataV3, err := os.ReadFile(goldenPath("golden_v3.dwarf"))
	if err != nil {
		t.Fatalf("missing fixture: %v", err)
	}
	if !HasOffsetTrailer(dataV3) {
		t.Fatal("golden_v3.dwarf carries no trailer")
	}
	c3, err := DecodeBytes(dataV3)
	if err != nil {
		t.Fatalf("DecodeBytes(v3): %v", err)
	}
	v3, err := OpenView(dataV3)
	if err != nil {
		t.Fatalf("OpenView(v3): %v", err)
	}
	assertViewMatchesCube(t, c3, v3, "golden v3")
	wantZones := []ZoneMap{
		{Min: "2015", Max: "2016", Distinct: 2},
		{Min: "Feb", Max: "Jan", Distinct: 2},
		{Min: "east", Max: "south", Distinct: 3},
		{Min: "bike", Max: "scooter", Distinct: 3},
	}
	gotZones := v3.ZoneMaps()
	if len(gotZones) != len(wantZones) {
		t.Fatalf("v3 zone maps: got %d dimensions, want %d", len(gotZones), len(wantZones))
	}
	for d := range wantZones {
		if gotZones[d] != wantZones[d] {
			t.Fatalf("v3 zone map %d = %+v, want %+v", d, gotZones[d], wantZones[d])
		}
	}

	// A known point answer, pinned so fixture regeneration that changes
	// semantics (not just bytes) is caught.
	agg, err := v.Point("2015", "Jan", "north", "bike")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Sum != 10 || agg.Count != 2 || agg.Min != 4 || agg.Max != 6 {
		t.Fatalf("golden Point = %v, want sum=10 count=2 min=4 max=6", agg)
	}
}
