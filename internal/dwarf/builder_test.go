package dwarf

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// paperTuples is the running example reconstructed from the paper's Fig. 1 /
// Fig. 2 / Fig. 3: country, city, station dimensions with a bikes measure.
// Fig. 3 shows the leaf cell ("Fenian St", measure 3).
func paperTuples() []Tuple {
	return []Tuple{
		{Dims: []string{"Ireland", "Dublin", "Fenian St"}, Measure: 3},
		{Dims: []string{"Ireland", "Dublin", "Pearse St"}, Measure: 5},
		{Dims: []string{"Ireland", "Cork", "Patrick St"}, Measure: 2},
		{Dims: []string{"France", "Paris", "Rue Cler"}, Measure: 4},
	}
}

var paperDims = []string{"Country", "City", "Station"}

func mustCube(t *testing.T, dims []string, tuples []Tuple, opts ...Option) *Cube {
	t.Helper()
	c, err := New(dims, tuples, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// TestPaperFigure2Golden checks the exact structure the paper's Fig. 2
// example implies: point values, ALL aggregates at every level, and that
// single-cell nodes suffix-coalesce (the ALL pointer is the child itself).
func TestPaperFigure2Golden(t *testing.T) {
	c := mustCube(t, paperDims, paperTuples())

	cases := []struct {
		keys []string
		sum  float64
		cnt  int64
	}{
		{[]string{"Ireland", "Dublin", "Fenian St"}, 3, 1},
		{[]string{"Ireland", "Dublin", "Pearse St"}, 5, 1},
		{[]string{"Ireland", "Cork", "Patrick St"}, 2, 1},
		{[]string{"France", "Paris", "Rue Cler"}, 4, 1},
		{[]string{"Ireland", "Dublin", All}, 8, 2},
		{[]string{"Ireland", All, All}, 10, 3},
		{[]string{"France", All, All}, 4, 1},
		{[]string{All, All, All}, 14, 4},
		{[]string{All, "Dublin", All}, 8, 2},
		{[]string{All, All, "Patrick St"}, 2, 1},
		{[]string{All, "Paris", "Rue Cler"}, 4, 1},
	}
	for _, tc := range cases {
		agg, err := c.Point(tc.keys...)
		if err != nil {
			t.Fatalf("Point(%v): %v", tc.keys, err)
		}
		if agg.Sum != tc.sum || agg.Count != tc.cnt {
			t.Errorf("Point(%v) = %v, want sum=%g count=%d", tc.keys, agg, tc.sum, tc.cnt)
		}
	}

	// Missing combinations are zero.
	agg, err := c.Point("Ireland", "Paris", All)
	if err != nil || !agg.IsZero() {
		t.Errorf("Point(Ireland,Paris,*) = %v, %v; want zero aggregate", agg, err)
	}

	// Root structure: two country cells.
	root := c.Root()
	if got := root.Keys(); len(got) != 2 || got[0] != "France" || got[1] != "Ireland" {
		t.Fatalf("root keys = %v, want [France Ireland]", got)
	}

	// Suffix coalescing: France has a single city, so the France cell's ALL
	// sub-dwarf must be the Paris node itself (shared pointer, not a copy).
	fr, ok := root.Lookup("France")
	if !ok {
		t.Fatal("France cell missing")
	}
	if fr.Child.AllChild == nil {
		t.Fatal("France city node has no ALL child")
	}
	paris, ok := fr.Child.Lookup("Paris")
	if !ok {
		t.Fatal("Paris cell missing")
	}
	if fr.Child.AllChild != paris.Child {
		t.Error("single-cell node's ALL sub-dwarf should coalesce to the child pointer")
	}
}

func TestDuplicateTuplesMerge(t *testing.T) {
	tuples := []Tuple{
		{Dims: []string{"a", "x"}, Measure: 1},
		{Dims: []string{"a", "x"}, Measure: 2},
		{Dims: []string{"a", "x"}, Measure: 7},
		{Dims: []string{"a", "y"}, Measure: 10},
	}
	c := mustCube(t, []string{"d1", "d2"}, tuples)
	agg, err := c.Point("a", "x")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Sum != 10 || agg.Count != 3 || agg.Min != 1 || agg.Max != 7 {
		t.Errorf("merged duplicate = %v, want sum=10 count=3 min=1 max=7", agg)
	}
	all, _ := c.Point("a", All)
	if all.Sum != 20 || all.Count != 4 {
		t.Errorf("(a,*) = %v, want sum=20 count=4", all)
	}
}

func TestUnsortedInputEqualsSorted(t *testing.T) {
	tuples := paperTuples()
	// Reverse order input must give the same cube contents.
	rev := make([]Tuple, len(tuples))
	for i := range tuples {
		rev[len(tuples)-1-i] = tuples[i]
	}
	a := mustCube(t, paperDims, tuples)
	b := mustCube(t, paperDims, rev)
	for _, q := range [][]string{
		{"Ireland", "Dublin", All}, {All, All, All}, {"France", All, "Rue Cler"},
	} {
		ga, _ := a.Point(q...)
		gb, _ := b.Point(q...)
		if !ga.Equal(gb) {
			t.Errorf("query %v: sorted=%v reversed=%v", q, ga, gb)
		}
	}
}

func dumpString(t *testing.T, c *Cube) string {
	t.Helper()
	var sb strings.Builder
	if err := c.Dump(&sb); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	return sb.String()
}

// TestShuffledBuildsStructurallyIdentical builds the same random facts in
// two shuffled orders under every ablation option set and requires the
// same cube: identical Dump text (structure, sharing and node ids),
// identical Stats, and both builds passing CheckInvariants. Measures are
// integers, so duplicate keys fold to the same bits in any order.
func TestShuffledBuildsStructurallyIdentical(t *testing.T) {
	for name, opts := range viewOptionSets() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			for round := 0; round < 30; round++ {
				ndims := 1 + rng.Intn(4)
				dims := dimNames(ndims)
				tuples := randomTuples(rng, ndims, rng.Intn(120), 1+rng.Intn(6))
				var cubes [2]*Cube
				for i := range cubes {
					rng.Shuffle(len(tuples), func(a, b int) { tuples[a], tuples[b] = tuples[b], tuples[a] })
					cubes[i] = mustCube(t, dims, tuples, opts...)
					if err := cubes[i].CheckInvariants(); err != nil {
						t.Fatalf("round %d, build %d: invariants: %v", round, i, err)
					}
				}
				if sa, sb := cubes[0].Stats(), cubes[1].Stats(); sa != sb {
					t.Fatalf("round %d: stats differ: %+v vs %+v", round, sa, sb)
				}
				if da, db := dumpString(t, cubes[0]), dumpString(t, cubes[1]); da != db {
					t.Fatalf("round %d: Dump differs\n--- first ---\n%s--- second ---\n%s", round, da, db)
				}
			}
		})
	}
}

func TestEmptyCube(t *testing.T) {
	c := mustCube(t, []string{"a", "b"}, nil)
	agg, err := c.Point(All, All)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.IsZero() {
		t.Errorf("empty cube ALL query = %v, want zero", agg)
	}
	st := c.Stats()
	if st.Nodes != 1 || st.Cells != 0 {
		t.Errorf("empty cube stats = %+v, want 1 node, 0 cells", st)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); !errors.Is(err, ErrNoDimensions) {
		t.Errorf("no dims: err = %v, want ErrNoDimensions", err)
	}
	if _, err := New([]string{"a"}, []Tuple{{Dims: []string{"x", "y"}, Measure: 1}}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch: err = %v, want ErrDimMismatch", err)
	}
	if _, err := New([]string{"a"}, []Tuple{{Dims: []string{All}, Measure: 1}}); !errors.Is(err, ErrReservedKey) {
		t.Errorf("reserved key: err = %v, want ErrReservedKey", err)
	}
	if _, err := New([]string{"a"}, []Tuple{{Dims: []string{"x"}, Measure: math.NaN()}}); !errors.Is(err, ErrNotFiniteValue) {
		t.Errorf("NaN measure: err = %v, want ErrNotFiniteValue", err)
	}
	c := mustCube(t, []string{"a", "b"}, nil)
	if _, err := c.Point("x"); !errors.Is(err, ErrBadQuery) {
		t.Errorf("short query: err = %v, want ErrBadQuery", err)
	}
}

func TestSingleDimensionCube(t *testing.T) {
	c := mustCube(t, []string{"station"}, []Tuple{
		{Dims: []string{"s1"}, Measure: 2},
		{Dims: []string{"s2"}, Measure: 3},
	})
	agg, _ := c.Point("s1")
	if agg.Sum != 2 {
		t.Errorf("s1 = %v", agg)
	}
	all, _ := c.Point(All)
	if all.Sum != 5 || all.Count != 2 {
		t.Errorf("ALL = %v", all)
	}
}

// TestSuffixCoalescingShrinks verifies that hash-consing plus suffix
// coalescing yields strictly fewer nodes than the fully materialized tree
// when branches share identical suffixes.
func TestSuffixCoalescingShrinks(t *testing.T) {
	var tuples []Tuple
	// 10 stations, all with the identical (day, slot) suffix pattern.
	for _, st := range []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"} {
		for _, day := range []string{"mon", "tue"} {
			for _, slot := range []string{"am", "pm"} {
				tuples = append(tuples, Tuple{Dims: []string{st, day, slot}, Measure: 1})
			}
		}
	}
	dims := []string{"station", "day", "slot"}
	compressed := mustCube(t, dims, tuples)
	full := mustCube(t, dims, tuples, WithoutSuffixCoalescing())

	cs, fs := compressed.Stats(), full.Stats()
	if cs.Nodes >= fs.Nodes {
		t.Errorf("coalesced nodes = %d, materialized = %d; want strictly fewer", cs.Nodes, fs.Nodes)
	}
	// Identical leaf suffixes across stations must be shared: with
	// hash-consing, the (day -> slot) sub-dwarf of every station is the
	// same structure, so there should be exactly one of it.
	if cs.Nodes > 8 {
		t.Errorf("expected aggressive sharing, got %d nodes", cs.Nodes)
	}
	// Both answer queries identically.
	for _, q := range [][]string{{"s3", All, "am"}, {All, "mon", All}, {All, All, All}} {
		a, _ := compressed.Point(q...)
		b, _ := full.Point(q...)
		if !a.Equal(b) {
			t.Errorf("query %v: compressed=%v full=%v", q, a, b)
		}
	}
}

func TestHashConsingAblation(t *testing.T) {
	var tuples []Tuple
	for _, st := range []string{"s0", "s1", "s2", "s3"} {
		for _, day := range []string{"mon", "tue", "wed"} {
			tuples = append(tuples, Tuple{Dims: []string{st, day}, Measure: 2})
		}
	}
	dims := []string{"station", "day"}
	consed := mustCube(t, dims, tuples)
	plain := mustCube(t, dims, tuples, WithoutHashConsing())
	if consed.Stats().Nodes > plain.Stats().Nodes {
		t.Errorf("hash-consing increased node count: %d > %d",
			consed.Stats().Nodes, plain.Stats().Nodes)
	}
	for _, q := range [][]string{{"s1", All}, {All, "wed"}, {All, All}} {
		a, _ := consed.Point(q...)
		b, _ := plain.Point(q...)
		if !a.Equal(b) {
			t.Errorf("query %v: consed=%v plain=%v", q, a, b)
		}
	}
}

func TestKeysWithSeparatorBytes(t *testing.T) {
	// Keys containing NUL and comma bytes must not confuse hash-consing.
	tuples := []Tuple{
		{Dims: []string{"a\x00b", "c"}, Measure: 1},
		{Dims: []string{"a", "\x00bc"}, Measure: 2},
		{Dims: []string{"a,b", "c"}, Measure: 4},
	}
	c := mustCube(t, []string{"d1", "d2"}, tuples)
	all, _ := c.Point(All, All)
	if all.Sum != 7 || all.Count != 3 {
		t.Errorf("ALL = %v, want sum=7 count=3", all)
	}
	one, _ := c.Point("a\x00b", "c")
	if one.Sum != 1 {
		t.Errorf("binary key lookup = %v", one)
	}
}

func TestStatsCounts(t *testing.T) {
	c := mustCube(t, paperDims, paperTuples())
	st := c.Stats()
	if st.SourceTuples != 4 {
		t.Errorf("SourceTuples = %d", st.SourceTuples)
	}
	if st.Nodes == 0 || st.Cells == 0 || st.AllCells != st.Nodes {
		t.Errorf("stats = %+v; want one ALL cell per node", st)
	}
	if st.TotalCells() != st.Cells+st.Nodes {
		t.Errorf("TotalCells = %d", st.TotalCells())
	}
	if st.EstBytes <= 0 {
		t.Errorf("EstBytes = %d", st.EstBytes)
	}
}

func TestVisitDeliversEachNodeOnce(t *testing.T) {
	c := mustCube(t, paperDims, paperTuples())
	seen := map[*Node]int{}
	c.Visit(func(n *Node) bool {
		seen[n]++
		return true
	})
	for n, cnt := range seen {
		if cnt != 1 {
			t.Errorf("node %p visited %d times", n, cnt)
		}
	}
	if len(seen) != c.Stats().Nodes {
		t.Errorf("visited %d nodes, stats says %d", len(seen), c.Stats().Nodes)
	}

	// Early abort stops the walk.
	calls := 0
	c.Visit(func(n *Node) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("aborted walk visited %d nodes, want 1", calls)
	}
}

func TestVisitDepthFirstChildrenBeforeParents(t *testing.T) {
	c := mustCube(t, paperDims, paperTuples())
	pos := map[*Node]int{}
	i := 0
	c.VisitDepthFirst(func(n *Node) bool {
		pos[n] = i
		i++
		return true
	})
	c.Visit(func(n *Node) bool {
		for j := range n.Cells {
			if ch := n.Cells[j].Child; ch != nil && pos[ch] > pos[n] {
				t.Errorf("child after parent in depth-first order")
			}
		}
		if n.AllChild != nil && pos[n.AllChild] > pos[n] {
			t.Errorf("ALL child after parent in depth-first order")
		}
		return true
	})
}

func TestAggregateBasics(t *testing.T) {
	var a Aggregate
	if !a.IsZero() || a.Avg() != 0 {
		t.Errorf("zero aggregate misbehaves: %v", a)
	}
	a.Add(4)
	a.Add(2)
	a.Add(6)
	if a.Sum != 12 || a.Count != 3 || a.Min != 2 || a.Max != 6 || a.Avg() != 4 {
		t.Errorf("aggregate = %v", a)
	}
	b := NewAggregate(-1)
	m := MergeAggregates(a, b)
	if m.Sum != 11 || m.Count != 4 || m.Min != -1 || m.Max != 6 {
		t.Errorf("merged = %v", m)
	}
	if got := MergeAggregates(Aggregate{}, b); !got.Equal(b) {
		t.Errorf("merge with zero = %v, want %v", got, b)
	}
	if s := m.String(); !strings.Contains(s, "count=4") {
		t.Errorf("String() = %q", s)
	}
	if s := (Aggregate{}).String(); s != "{empty}" {
		t.Errorf("zero String() = %q", s)
	}
}
