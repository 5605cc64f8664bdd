package serve

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dwarf"
)

// writeCubeFile is repro.WriteCubeFile's temp-file-and-rename replace (the
// root package imports serve, so the test re-states it here).
func writeCubeFile(t *testing.T, c *dwarf.Cube, path string) {
	t.Helper()
	tmp, err := os.CreateTemp(filepath.Dir(path), ".dwarfcube-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(tmp.Name())
	if err := c.EncodeIndexed(tmp); err != nil {
		tmp.Close()
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		t.Fatal(err)
	}
}

// TestViewCacheAddReplaceRace pins the stale-insert fix in viewCache.add:
// two requests race to load the same cube, the file is atomically replaced
// (a WriteCubeFile-style rename) between their stat+read phases, and the slower
// loader — which read the FRESH bytes — reaches add second. It must be
// handed its own fresh view, not the winner's stale-generation one, and
// the cache entry must carry the fresh stat pair so it survives the next
// get revalidation instead of pinning a dead generation. The subtest keeps
// the name it had when a reflection encoder could be switched on; it runs
// under the hand-written encoder, the only one the server has.
func TestViewCacheAddReplaceRace(t *testing.T) {
	t.Run("reflectJSON=false", testViewCacheAddReplaceRace)
}

func testViewCacheAddReplaceRace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.dwarf")

	cubeA, err := dwarf.New([]string{"Day"}, []dwarf.Tuple{
		{Dims: []string{"d1"}, Measure: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Different tuple count => different encoded size, so the stat
	// pair differs even on filesystems with coarse mtimes.
	cubeB, err := dwarf.New([]string{"Day"}, []dwarf.Tuple{
		{Dims: []string{"d1"}, Measure: 9},
		{Dims: []string{"d2"}, Measure: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	writeCubeFile(t, cubeA, path)

	srv, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Racer 1 stats and reads the original file, then stalls before
	// inserting.
	sizeA, mtA, err := statFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dataA, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	viewA, err := dwarf.OpenView(dataA)
	if err != nil {
		t.Fatal(err)
	}

	// The atomic replace lands between the two loads.
	writeCubeFile(t, cubeB, path)

	// Racer 2 loads the replaced file.
	sizeB, mtB, err := statFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sizeA == sizeB && mtA.Equal(mtB) {
		t.Fatal("fixture: replacement did not change the stat pair")
	}
	dataB, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	viewB, err := dwarf.OpenView(dataB)
	if err != nil {
		t.Fatal(err)
	}

	// Racer 1 inserts first and keeps its own view.
	if got := srv.cache.add("c.dwarf", path, viewA, sizeA, mtA); got != viewA {
		t.Fatal("first insert must win for its own request")
	}
	// Racer 2 read the fresh generation: it must not be answered
	// from the stale entry.
	if got := srv.cache.add("c.dwarf", path, viewB, sizeB, mtB); got != viewB {
		t.Fatal("add handed a fresh load the stale entry's view")
	}
	// The entry now carries the fresh stat pair: a revalidating get
	// hits instead of reloading.
	if v, ok := srv.cache.get("c.dwarf", sizeB, mtB); !ok || v != viewB {
		t.Fatalf("entry not replaced: got %v, ok=%v", v, ok)
	}

	// End to end: the served answer is cube B's.
	body := getJSON(t, ts.URL+"/query/point?cube=c&key=*", 200)
	agg, _ := body["aggregate"].(map[string]any)
	if agg["sum"] != 18.0 {
		t.Fatalf("served sum %v, want 18 (the replaced cube)", agg["sum"])
	}
}
