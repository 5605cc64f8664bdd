package dwarf

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// viewTestTuples builds a deterministic fact set with enough key reuse to
// exercise prefix and suffix coalescing across three dimensions.
func viewTestTuples() []Tuple {
	var tuples []Tuple
	regions := []string{"north", "south", "east", "west"}
	kinds := []string{"bike", "car", "scooter"}
	for i := 0; i < 240; i++ {
		tuples = append(tuples, Tuple{
			Dims: []string{
				fmt.Sprintf("d%02d", i%11),
				regions[i%len(regions)],
				kinds[(i/3)%len(kinds)],
			},
			Measure: float64(i%17) - 3,
		})
	}
	return tuples
}

var viewTestDims = []string{"Day", "Region", "Kind"}

// viewOptionSets are the construction ablations the differential suite
// sweeps; every cube shape they produce must view identically.
func viewOptionSets() map[string][]Option {
	return map[string][]Option{
		"default":  nil,
		"nosuffix": {WithoutSuffixCoalescing()},
		"nohash":   {WithoutHashConsing()},
		"noboth":   {WithoutSuffixCoalescing(), WithoutHashConsing()},
	}
}

// encodeV1 returns c's plain v1 stream, with no offset trailer and no zone
// maps: the v1 section of EncodeIndexed's output, copied so the caller may
// mutate it.
func encodeV1(tb testing.TB, c *Cube) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := c.EncodeIndexed(&buf); err != nil {
		tb.Fatalf("EncodeIndexed: %v", err)
	}
	v1, _, err := SplitEncoded(buf.Bytes())
	if err != nil {
		tb.Fatalf("SplitEncoded: %v", err)
	}
	return append([]byte(nil), v1...)
}

// encodeViews returns the two encodings of c (plain v1 and indexed) opened
// as views, verifying the indexed one actually carries a trailer.
func encodeViews(t *testing.T, c *Cube) (plain, indexed *CubeView) {
	t.Helper()
	v1 := encodeV1(t, c)
	var buf bytes.Buffer
	if err := c.EncodeIndexed(&buf); err != nil {
		t.Fatalf("EncodeIndexed: %v", err)
	}
	v2 := append([]byte(nil), buf.Bytes()...)
	if HasOffsetTrailer(v1) {
		t.Fatalf("plain encoding unexpectedly carries an offset trailer")
	}
	if !HasOffsetTrailer(v2) {
		t.Fatalf("indexed encoding carries no offset trailer")
	}
	if !bytes.Equal(v1, v2[:len(v1)]) {
		t.Fatalf("indexed encoding does not extend the plain encoding")
	}
	plain, err := OpenView(v1)
	if err != nil {
		t.Fatalf("OpenView(plain): %v", err)
	}
	if plain.Indexed() {
		t.Fatalf("plain view claims a trailer index")
	}
	indexed, err = OpenView(v2)
	if err != nil {
		t.Fatalf("OpenView(indexed): %v", err)
	}
	if !indexed.Indexed() {
		t.Fatalf("indexed view built no trailer index")
	}
	return plain, indexed
}

// diffQueries holds every query shape the differential suite compares.
type diffQueries struct {
	points [][]string
	ranges [][]Selector
	groups []struct {
		dim  int
		sels []Selector
	}
}

func buildDiffQueries(c *Cube) diffQueries {
	var q diffQueries
	ndims := c.NumDims()
	// Point battery: every base fact with rotating wildcard masks, plus
	// absent and mixed combinations.
	c.Tuples(func(keys []string, _ Aggregate) bool {
		p := append([]string(nil), keys...)
		switch len(q.points) % 4 {
		case 1:
			p[ndims-1] = All
		case 2:
			for i := range p {
				p[i] = All
			}
		case 3:
			p[0] = All
		}
		q.points = append(q.points, p)
		return len(q.points) < 64
	})
	allKeys := make([]string, ndims)
	for i := range allKeys {
		allKeys[i] = All
	}
	q.points = append(q.points, allKeys)
	allSel := make([]Selector, ndims)
	q.ranges = append(q.ranges, allSel)
	if ndims == 3 {
		// Battery tailored to viewTestTuples' key space, including absent
		// keys, duplicate selector keys, and empty ranges.
		q.points = append(q.points,
			[]string{"absent", "north", "bike"},
			[]string{"d01", "absent", All},
			[]string{All, All, "absent"},
		)
		q.ranges = append(q.ranges,
			[]Selector{SelectRange("d01", "d05"), SelectAll(), SelectAll()},
			[]Selector{SelectAll(), SelectKeys("north", "west", "north", "absent"), SelectAll()},
			[]Selector{SelectRange("d03", "d09"), SelectKeys("south", "east"), SelectRange("bike", "car")},
			[]Selector{SelectKeys("d00", "d10", "d04"), SelectAll(), SelectKeys("scooter")},
			[]Selector{SelectRange("zz", "aa"), SelectAll(), SelectAll()}, // empty range
		)
	}
	for dim := 0; dim < ndims; dim++ {
		q.groups = append(q.groups, struct {
			dim  int
			sels []Selector
		}{dim, allSel})
		if ndims == 3 {
			q.groups = append(q.groups, struct {
				dim  int
				sels []Selector
			}{dim, []Selector{SelectRange("d02", "d08"), SelectKeys("north", "south"), SelectAll()}})
		}
	}
	return q
}

// assertViewMatchesCube holds every answer of every query shape equal
// between the in-memory cube and the view.
func assertViewMatchesCube(t *testing.T, c *Cube, v *CubeView, label string) {
	t.Helper()
	if got, want := v.Dims(), c.Dims(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Dims = %v, want %v", label, got, want)
	}
	if got, want := v.NumSourceTuples(), c.NumSourceTuples(); got != want {
		t.Fatalf("%s: NumSourceTuples = %d, want %d", label, got, want)
	}
	vst, err := v.Stats()
	if err != nil {
		t.Fatalf("%s: view Stats: %v", label, err)
	}
	if cst := c.Stats(); vst != cst {
		t.Fatalf("%s: view Stats = %+v, cube Stats = %+v", label, vst, cst)
	}
	q := buildDiffQueries(c)
	for _, p := range q.points {
		want, err := c.Point(p...)
		if err != nil {
			t.Fatalf("%s: cube Point(%v): %v", label, p, err)
		}
		got, err := v.Point(p...)
		if err != nil {
			t.Fatalf("%s: view Point(%v): %v", label, p, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: Point(%v) = %v, cube says %v", label, p, got, want)
		}
	}
	for _, sels := range q.ranges {
		want, err := c.Range(sels)
		if err != nil {
			t.Fatalf("%s: cube Range(%v): %v", label, sels, err)
		}
		got, err := v.Range(sels)
		if err != nil {
			t.Fatalf("%s: view Range(%v): %v", label, sels, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: Range(%v) = %v, cube says %v", label, sels, got, want)
		}
	}
	for _, g := range q.groups {
		want, err := c.GroupBy(g.dim, g.sels)
		if err != nil {
			t.Fatalf("%s: cube GroupBy(%d): %v", label, g.dim, err)
		}
		got, err := v.GroupBy(g.dim, g.sels)
		if err != nil {
			t.Fatalf("%s: view GroupBy(%d): %v", label, g.dim, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: GroupBy(%d) has %d groups, cube says %d", label, g.dim, len(got), len(want))
		}
		for k, wa := range want {
			if ga, ok := got[k]; !ok || !ga.Equal(wa) {
				t.Fatalf("%s: GroupBy(%d)[%q] = %v (present=%v), cube says %v", label, g.dim, k, got[k], ok, wa)
			}
		}
	}
	type fact struct {
		dims []string
		agg  Aggregate
	}
	var cubeFacts, viewFacts []fact
	c.Tuples(func(dims []string, agg Aggregate) bool {
		cubeFacts = append(cubeFacts, fact{append([]string(nil), dims...), agg})
		return true
	})
	if err := v.Tuples(func(dims []string, agg Aggregate) bool {
		viewFacts = append(viewFacts, fact{append([]string(nil), dims...), agg})
		return true
	}); err != nil {
		t.Fatalf("%s: view Tuples: %v", label, err)
	}
	if !reflect.DeepEqual(cubeFacts, viewFacts) {
		t.Fatalf("%s: Tuples enumeration diverged (%d cube facts, %d view facts)",
			label, len(cubeFacts), len(viewFacts))
	}
}

// TestViewDifferential is the differential property suite: for every
// ablation option set, every answer of every query shape from CubeView
// equals the in-memory Cube's, the node-graph oracle's under the same
// options, for both the scan-indexed and trailer-indexed open paths. A
// workers=N subtest checks one pair of fresh views from N parallel
// readers, so the plain view's lazy index build races the queries. CI runs
// it under -race.
func TestViewDifferential(t *testing.T) {
	tuples := viewTestTuples()
	names := make([]string, 0, len(viewOptionSets()))
	for name := range viewOptionSets() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		opts := viewOptionSets()[name]
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				c, err := oracle(viewTestDims, tuples, opts...)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				plain, indexed := encodeViews(t, c)
				for r := 0; r < workers; r++ {
					t.Run(fmt.Sprintf("reader%d", r), func(t *testing.T) {
						t.Parallel()
						assertViewMatchesCube(t, c, plain, "scan-indexed view")
						assertViewMatchesCube(t, c, indexed, "trailer-indexed view")
					})
				}
			})
		}
	}
}

// TestViewDifferentialConcurrent hammers one un-indexed view from many
// goroutines so the lazy index build races real queries; -race in CI makes
// this a memory-model check as well as a correctness one.
func TestViewDifferentialConcurrent(t *testing.T) {
	c, err := New(viewTestDims, viewTestTuples())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, mode := range []string{"plain", "indexed"} {
		t.Run(mode, func(t *testing.T) {
			plain, indexed := encodeViews(t, c)
			v := plain
			if mode == "indexed" {
				v = indexed
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					q := buildDiffQueries(c)
					for r := 0; r < 3; r++ {
						for i, p := range q.points {
							want, _ := c.Point(p...)
							got, err := v.Point(p...)
							if err != nil {
								errs <- fmt.Errorf("goroutine %d: Point: %v", g, err)
								return
							}
							if !got.Equal(want) {
								errs <- fmt.Errorf("goroutine %d: Point #%d diverged", g, i)
								return
							}
						}
						for _, sels := range q.ranges {
							want, _ := c.Range(sels)
							got, err := v.Range(sels)
							if err != nil {
								errs <- fmt.Errorf("goroutine %d: Range: %v", g, err)
								return
							}
							if !got.Equal(want) {
								errs <- fmt.Errorf("goroutine %d: Range diverged", g)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestViewEmptyAndSingleDim covers the degenerate shapes: an empty cube
// (bare root chain) and a one-dimension cube whose root is a leaf.
func TestViewEmptyAndSingleDim(t *testing.T) {
	empty, err := New([]string{"A", "B"}, nil)
	if err != nil {
		t.Fatalf("New(empty): %v", err)
	}
	plain, indexed := encodeViews(t, empty)
	for _, v := range []*CubeView{plain, indexed} {
		assertViewMatchesCube(t, empty, v, "empty cube")
		agg, err := v.Point(All, All)
		if err != nil || !agg.IsZero() {
			t.Fatalf("empty Point(All,All) = %v, %v", agg, err)
		}
	}

	single, err := New([]string{"K"}, []Tuple{
		{Dims: []string{"a"}, Measure: 2},
		{Dims: []string{"b"}, Measure: 3},
		{Dims: []string{"a"}, Measure: 5},
	})
	if err != nil {
		t.Fatalf("New(single): %v", err)
	}
	plain, indexed = encodeViews(t, single)
	for _, v := range []*CubeView{plain, indexed} {
		assertViewMatchesCube(t, single, v, "single-dim cube")
		agg, err := v.Point("a")
		if err != nil || agg.Sum != 7 || agg.Count != 2 {
			t.Fatalf("single Point(a) = %v, %v", agg, err)
		}
	}
}

// TestViewBadQueries mirrors the cube's malformed-query errors.
func TestViewBadQueries(t *testing.T) {
	c, err := New(viewTestDims, viewTestTuples())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	v, _ := encodeViews(t, c)
	if _, err := v.Point("only-one"); err == nil {
		t.Fatal("Point with wrong arity did not error")
	}
	if _, err := v.Range([]Selector{SelectAll()}); err == nil {
		t.Fatal("Range with wrong arity did not error")
	}
	if _, err := v.GroupBy(-1, make([]Selector, 3)); err == nil {
		t.Fatal("GroupBy with bad dimension did not error")
	}
	if _, err := v.GroupBy(5, make([]Selector, 3)); err == nil {
		t.Fatal("GroupBy with out-of-range dimension did not error")
	}
}

// TestViewFileRoundTrip exercises OpenViewFile on both encodings,
// including the mmap fast path where the platform provides it.
func TestViewFileRoundTrip(t *testing.T) {
	c, err := New(viewTestDims, viewTestTuples())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		encode  func(*Cube, *bytes.Buffer) error
		indexed bool
	}{
		{"plain.dwarf", func(c *Cube, b *bytes.Buffer) error { _, err := b.Write(encodeV1(t, c)); return err }, false},
		{"indexed.dwarf", func(c *Cube, b *bytes.Buffer) error { return c.EncodeIndexed(b) }, true},
	} {
		var buf bytes.Buffer
		if err := tc.encode(c, &buf); err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		path := dir + "/" + tc.name
		if err := writeFileForTest(path, buf.Bytes()); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		f, err := OpenViewFile(path)
		if err != nil {
			t.Fatalf("OpenViewFile(%s): %v", tc.name, err)
		}
		if f.Indexed() != tc.indexed {
			t.Fatalf("%s: Indexed = %v, want %v", tc.name, f.Indexed(), tc.indexed)
		}
		assertViewMatchesCube(t, c, f.CubeView, tc.name)
		if err := f.Close(); err != nil {
			t.Fatalf("%s: Close: %v", tc.name, err)
		}
	}
	if _, err := OpenViewFile(dir + "/missing.dwarf"); err == nil {
		t.Fatal("OpenViewFile on a missing file did not error")
	}
}
