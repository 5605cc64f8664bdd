package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dwarf"
	"repro/internal/smartcity"
)

// TestFacadeEndToEnd drives the whole public API surface: generate a feed,
// emit XML, parse, build, query, store in every schema model, reload.
func TestFacadeEndToEnd(t *testing.T) {
	recs := smartcity.NewBikeFeed(smartcity.BikeConfig{Seed: 99}).Take(400)
	var doc bytes.Buffer
	if err := smartcity.WriteBikesXML(&doc, recs); err != nil {
		t.Fatal(err)
	}
	spec := BikeXMLSpec()
	tuples, err := ParseXML(&doc, spec)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := BuildCube(spec.DimNames(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	allQ := []string{All, All, All, All, All, All, All, All}
	want, err := cube.Point(allQ...)
	if err != nil || want.Count != 400 {
		t.Fatalf("ALL = %v, %v", want, err)
	}

	for _, kind := range AllStoreKinds() {
		dir := filepath.Join(t.TempDir(), string(kind))
		store, err := OpenStore(kind, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		id, err := store.Save(cube)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := store.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := loaded.Point(allQ...)
		if !got.Equal(want) {
			t.Errorf("%s: %v != %v", kind, got, want)
		}
		store.Close()
	}
}

func TestFacadeJSONAndMerge(t *testing.T) {
	recs := smartcity.NewBikeFeed(smartcity.BikeConfig{Seed: 5}).Take(100)
	var doc bytes.Buffer
	if err := smartcity.WriteBikesJSON(&doc, recs); err != nil {
		t.Fatal(err)
	}
	tuples, err := ParseJSON(&doc, BikeJSONSpec())
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildCube(BikeDims(), tuples[:50])
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCube(BikeDims(), tuples[50:])
	if err != nil {
		t.Fatal(err)
	}
	m, err := MergeCubes(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSourceTuples() != 100 {
		t.Errorf("merged tuples = %d", m.NumSourceTuples())
	}
}

// indexedBytes is the EncodeIndexed stream of c.
func indexedBytes(t *testing.T, c *Cube) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.EncodeIndexed(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFacadeMergeEqualsBuild: MergeCubes and MergeAllCubes return the cube
// BuildCube makes over the concatenated facts, byte for byte, with the
// FromQuery flag set when any input has it and dwarf.ErrDimsMismatch for
// mismatched dimensions.
func TestFacadeMergeEqualsBuild(t *testing.T) {
	tuples, err := BikeDataset("Day")
	if err != nil {
		t.Fatal(err)
	}
	tuples = tuples[:3000]
	build := func(ts []Tuple) *Cube {
		t.Helper()
		c, err := BuildCube(BikeDims(), ts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b, c := build(tuples[:1000]), build(tuples[1000:2200]), build(tuples[2200:])

	m, err := MergeCubes(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := indexedBytes(t, m), indexedBytes(t, build(tuples[:2200])); !bytes.Equal(got, want) {
		t.Errorf("MergeCubes: %d bytes, BuildCube of both %d", len(got), len(want))
	}
	all, err := MergeAllCubes(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	union := build(tuples)
	if got, want := indexedBytes(t, all), indexedBytes(t, union); !bytes.Equal(got, want) {
		t.Errorf("MergeAllCubes: %d bytes, BuildCube of all %d", len(got), len(want))
	}

	b.FromQuery = true
	all, err = MergeAllCubes(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	union.FromQuery = true
	if !all.FromQuery || !bytes.Equal(indexedBytes(t, all), indexedBytes(t, union)) {
		t.Errorf("merge with a FromQuery input: FromQuery=%v, want the flagged union build", all.FromQuery)
	}

	other, err := BuildCube([]string{"Area"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCubes(a, other); !errors.Is(err, dwarf.ErrDimsMismatch) {
		t.Errorf("dims mismatch: err = %v, want dwarf.ErrDimsMismatch", err)
	}
}

// TestFacadeCarParkFold pins examples/carpark's maintenance loop: folding
// each batch of polls into the standing cube with MergeCubes gives, after
// every batch, the cube BuildCube makes of all polls so far.
func TestFacadeCarParkFold(t *testing.T) {
	feed := smartcity.NewCarParkFeed(7, 12)
	spec := CarParkXMLSpec()
	cube, err := BuildCube(spec.DimNames(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var polls []Tuple
	for batch := 1; batch <= 3; batch++ {
		var doc bytes.Buffer
		if err := smartcity.WriteCarParksXML(&doc, feed.Take(12*6*4)); err != nil {
			t.Fatal(err)
		}
		tuples, err := ParseXML(&doc, spec)
		if err != nil {
			t.Fatal(err)
		}
		polls = append(polls, tuples...)
		delta, err := BuildCube(spec.DimNames(), tuples)
		if err != nil {
			t.Fatal(err)
		}
		if cube, err = MergeCubes(cube, delta); err != nil {
			t.Fatal(err)
		}
		want, err := BuildCube(spec.DimNames(), polls)
		if err != nil {
			t.Fatal(err)
		}
		if cube.Stats() != want.Stats() || !bytes.Equal(indexedBytes(t, cube), indexedBytes(t, want)) {
			t.Fatalf("batch %d: folded cube %+v, BuildCube of the polls %+v", batch, cube.Stats(), want.Stats())
		}
	}
}

func TestFacadeDatasetAndSelectors(t *testing.T) {
	tuples, err := BikeDataset("Day")
	if err != nil || len(tuples) != 7358 {
		t.Fatalf("dataset: %d, %v", len(tuples), err)
	}
	cube, err := BuildCube(BikeDims(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := cube.Range([]Selector{
		SelectAll(), SelectAll(), SelectAll(), SelectRange("07", "09"),
		SelectAll(), SelectAll(), SelectAll(), SelectKeys("open", "full"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count == 0 {
		t.Error("rush-hour range query found nothing")
	}
	if _, err := BikeDataset("Century"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestFacadeAblationOptions(t *testing.T) {
	tuples, _ := BikeDataset("Day")
	full, err := BuildCube(BikeDims(), tuples[:1000])
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BuildCube(BikeDims(), tuples[:1000], WithoutSuffixCoalescing())
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats().Nodes >= plain.Stats().Nodes {
		t.Errorf("coalescing should shrink: %d vs %d", full.Stats().Nodes, plain.Stats().Nodes)
	}
}

// TestFacadeServing drives the zero-copy serving surface: write an indexed
// cube file, open it as a view, compare answers, and run the dwarfd
// service over the same directory.
func TestFacadeServing(t *testing.T) {
	tuples, err := BikeDataset("Day")
	if err != nil {
		t.Fatal(err)
	}
	cube, err := BuildCube(BikeDims(), tuples)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "day.dwarf")
	if err := WriteCubeFile(cube, path); err != nil {
		t.Fatal(err)
	}
	f, err := OpenCubeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Indexed() {
		t.Fatal("WriteCubeFile produced a file without an offset trailer")
	}
	wild := make([]string, len(BikeDims()))
	for i := range wild {
		wild[i] = All
	}
	want, err := cube.Point(wild...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Point(wild...)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("view Point(ALL...) = %v, cube says %v", got, want)
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if cst := cube.Stats(); st != cst {
		t.Fatalf("view Stats = %+v, cube Stats = %+v", st, cst)
	}

	srv, err := NewCubeServer(ServeOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats?cube=day.dwarf")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["nodes"] != float64(cube.Stats().Nodes) {
		t.Fatalf("/stats nodes = %v, want %d", out["nodes"], cube.Stats().Nodes)
	}
}

func TestFacadeLiveStore(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenLiveStore(dir, LiveStoreOptions{
		Dims:       []string{"Day", "Region"},
		SealTuples: 4,
		NoSync:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := []Tuple{
		{Dims: []string{"d1", "north"}, Measure: 2},
		{Dims: []string{"d1", "south"}, Measure: 3},
		{Dims: []string{"d2", "north"}, Measure: 5},
	}
	if err := store.Append(batch); err != nil {
		t.Fatal(err)
	}
	agg, err := store.Point("d1", All)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Sum != 5 || agg.Count != 2 {
		t.Fatalf("live point = %+v", agg)
	}
	// Crossing the threshold seals (in the background sealer); the reopened
	// store recovers everything.
	if err := store.Append([]Tuple{{Dims: []string{"d2", "west"}, Measure: 7}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for store.Stats().Seals == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("threshold seal never landed: %+v", store.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := store.Stats(); st.Seals != 1 || st.SealedTuples != 4 {
		t.Fatalf("stats after threshold seal = %+v", st)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenLiveStore(dir, LiveStoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	agg, err = back.Point(All, All)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Sum != 17 || agg.Count != 4 {
		t.Fatalf("recovered ALL = %+v", agg)
	}

	// The facade serves it over HTTP too.
	srv, err := NewCubeServer(ServeOptions{Store: back})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/query/point?cube=live&key=*&key=north")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	aggOut, _ := out["aggregate"].(map[string]any)
	if aggOut["sum"] != float64(7) {
		t.Fatalf("served live point = %v", out)
	}
}
