package dwarf

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Differential suite for the unified query kernel: every shape — old
// (Point/Range/GroupBy/Tuples) and new (Pivot/TopK) — must answer
// byte-equal across the in-memory Cube and both CubeView open paths
// (scan-indexed and trailer-indexed), and agree with brute force over the
// fact multiset, for every ablation option set × worker count. Measures are
// small integers so float sums are exact regardless of merge order.

// bruteGroupBy is the scan reference for GroupBy: group tuples matching
// every selector (the grouped dimension's selector restricts which members
// appear) by their key at dim.
func bruteGroupBy(tuples []Tuple, dim int, sels []Selector) map[string]Aggregate {
	out := make(map[string]Aggregate)
	for _, t := range tuples {
		if !bruteMatch(t, sels) {
			continue
		}
		k := t.Dims[dim]
		out[k] = MergeAggregates(out[k], NewAggregate(t.Measure))
	}
	return out
}

// brutePivot is the scan reference for Pivot: composite grouping over the
// dims indexes, in the order given.
func brutePivot(tuples []Tuple, dims []int, sels []Selector) []PivotGroup {
	acc := make(map[string]*PivotGroup)
	for _, t := range tuples {
		if !bruteMatch(t, sels) {
			continue
		}
		keys := make([]string, len(dims))
		for i, d := range dims {
			keys[i] = t.Dims[d]
		}
		joined := strings.Join(keys, "\x1f")
		if g, ok := acc[joined]; ok {
			g.Agg = MergeAggregates(g.Agg, NewAggregate(t.Measure))
		} else {
			acc[joined] = &PivotGroup{Keys: keys, Agg: NewAggregate(t.Measure)}
		}
	}
	out := make([]PivotGroup, 0, len(acc))
	for _, g := range acc {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		return compareKeyTuples(out[i].Keys, out[j].Keys) < 0
	})
	return out
}

// bruteTopK is an independent ranking of bruteGroupBy — it re-implements
// the metric-desc/key-asc order rather than calling TopKFromGroups, so the
// shared finisher is itself under test.
func bruteTopK(tuples []Tuple, dim int, sels []Selector, spec TopKSpec) []GroupEntry {
	groups := bruteGroupBy(tuples, dim, sels)
	var out []GroupEntry
	for k, a := range groups {
		if spec.HasThreshold && spec.By.Of(a) < spec.Threshold {
			continue
		}
		out = append(out, GroupEntry{Key: k, Agg: a})
	}
	sort.Slice(out, func(i, j int) bool {
		mi, mj := spec.By.Of(out[i].Agg), spec.By.Of(out[j].Agg)
		if mi != mj {
			return mi > mj
		}
		return out[i].Key < out[j].Key
	})
	if spec.K > 0 && len(out) > spec.K {
		out = out[:spec.K]
	}
	return out
}

func bruteMatch(t Tuple, sels []Selector) bool {
	for i, s := range sels {
		k := t.Dims[i]
		switch {
		case s.isAll():
		case s.HasRange:
			if k < s.Lo || k > s.Hi {
				return false
			}
		default:
			found := false
			for _, want := range s.Keys {
				if k == want {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

func sameGroups(t *testing.T, label string, got, want map[string]Aggregate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for k, wa := range want {
		if ga, ok := got[k]; !ok || !ga.Equal(wa) {
			t.Fatalf("%s: group %q = %v (present=%v), want %v", label, k, got[k], ok, wa)
		}
	}
}

func samePivot(t *testing.T, label string, got, want []PivotGroup) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: pivot rows diverged\ngot:  %v\nwant: %v", label, got, want)
	}
}

func sameEntries(t *testing.T, label string, got, want []GroupEntry) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: topk entries diverged\ngot:  %v\nwant: %v", label, got, want)
	}
}

// kernelSources opens the three sources every shape must agree across.
func kernelSources(t *testing.T, c *Cube) map[string]Source {
	t.Helper()
	plain, indexed := encodeViews(t, c)
	return map[string]Source{"cube": c, "view": plain, "view-indexed": indexed}
}

// TestKernelDifferential sweeps the 4 ablation option sets × 1/4 workers
// and holds every kernel shape equal across Cube / CubeView and to brute
// force over the random fact multiset.
func TestKernelDifferential(t *testing.T) {
	dims := []string{"A", "B", "C"}
	card := []int{4, 3, 5}
	ablations := [][]Option{
		nil,
		{WithoutSuffixCoalescing()},
		{WithoutHashConsing()},
		{WithoutSuffixCoalescing(), WithoutHashConsing()},
	}
	for ai, opts := range ablations {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("ablation%d/workers%d", ai, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(31*ai + workers)))
				tuples := make([]Tuple, 300)
				for i := range tuples {
					keys := make([]string, len(dims))
					for d := range keys {
						keys[d] = fmt.Sprintf("k%d", rng.Intn(card[d]))
					}
					tuples[i] = Tuple{Dims: keys, Measure: float64(rng.Intn(19) - 6)}
				}
				c, err := New(dims, tuples, append(opts, WithWorkers(workers))...)
				if err != nil {
					t.Fatal(err)
				}
				sources := kernelSources(t, c)

				selBatteries := [][]Selector{
					make([]Selector, 3),
					{SelectRange("k0", "k2"), SelectAll(), SelectAll()},
					{SelectKeys("k1", "k3", "k1", "absent"), SelectAll(), SelectRange("k1", "k4")},
					{SelectAll(), SelectKeys("k0", "k2"), SelectKeys("k4")},
					{SelectRange("k9", "k0"), SelectAll(), SelectAll()}, // empty range
					// A selector with BOTH keys and a range set: the range must
					// win in every shape, exactly as bruteMatch reads it.
					{{Keys: []string{"k0"}, Lo: "k1", Hi: "k3", HasRange: true}, SelectAll(), SelectAll()},
				}
				specs := []TopKSpec{
					{},
					{K: 2},
					{K: 3, By: ByCount},
					{By: ByMax, Threshold: 5, HasThreshold: true},
					{K: 2, By: ByAvg, Threshold: 1.5, HasThreshold: true},
					{By: ByMin},
				}

				for name, src := range sources {
					// Point vs brute force (existing helper from property_test).
					for q := 0; q < 40; q++ {
						keys := randomQuery(rng, 3, 6)
						got, err := QueryPoint(src, keys...)
						if err != nil {
							t.Fatalf("%s: Point(%v): %v", name, keys, err)
						}
						if want := bruteForce(tuples, keys); !got.Equal(want) {
							t.Fatalf("%s: Point(%v) = %v, brute says %v", name, keys, got, want)
						}
					}
					for si, sels := range selBatteries {
						label := fmt.Sprintf("%s/sels%d", name, si)
						got, err := QueryRange(src, sels)
						if err != nil {
							t.Fatalf("%s: Range: %v", label, err)
						}
						if want := bruteForceRange(tuples, sels); !got.Equal(want) {
							t.Fatalf("%s: Range = %v, brute says %v", label, got, want)
						}
						for dim := 0; dim < 3; dim++ {
							groups, err := QueryGroupBy(src, dim, sels)
							if err != nil {
								t.Fatalf("%s: GroupBy(%d): %v", label, dim, err)
							}
							sameGroups(t, fmt.Sprintf("%s/GroupBy(%d)", label, dim),
								groups, bruteGroupBy(tuples, dim, sels))
							spec := specs[(si+dim)%len(specs)]
							entries, err := QueryTopK(src, dim, sels, spec)
							if err != nil {
								t.Fatalf("%s: TopK(%d): %v", label, dim, err)
							}
							sameEntries(t, fmt.Sprintf("%s/TopK(%d)", label, dim),
								entries, bruteTopK(tuples, dim, sels, spec))
						}
						for _, groupDims := range [][]int{{0}, {0, 1}, {2, 0}, {0, 1, 2}, {1, 2}} {
							rows, err := QueryPivot(src, groupDims, sels)
							if err != nil {
								t.Fatalf("%s: Pivot(%v): %v", label, groupDims, err)
							}
							samePivot(t, fmt.Sprintf("%s/Pivot(%v)", label, groupDims),
								rows, brutePivot(tuples, groupDims, sels))
						}
					}
				}
			})
		}
	}
}

// TestKernelBadQueries pins the malformed-query sentinels for the new
// shapes on both representations.
func TestKernelBadQueries(t *testing.T) {
	c, err := New([]string{"A", "B"}, []Tuple{{Dims: []string{"x", "y"}, Measure: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range kernelSources(t, c) {
		sels := make([]Selector, 2)
		if _, err := QueryPivot(src, nil, sels); err == nil {
			t.Fatalf("%s: Pivot with no group dims did not error", name)
		}
		if _, err := QueryPivot(src, []int{0, 0}, sels); err == nil {
			t.Fatalf("%s: Pivot with a repeated dim did not error", name)
		}
		if _, err := QueryPivot(src, []int{2}, sels); err == nil {
			t.Fatalf("%s: Pivot with an out-of-range dim did not error", name)
		}
		if _, err := QueryPivot(src, []int{0}, sels[:1]); err == nil {
			t.Fatalf("%s: Pivot with wrong selector arity did not error", name)
		}
		if _, err := QueryTopK(src, -1, sels, TopKSpec{}); err == nil {
			t.Fatalf("%s: TopK with a bad dim did not error", name)
		}
	}
	if _, err := ParseMetric("median"); err == nil {
		t.Fatal("ParseMetric accepted an unknown metric")
	}
	for _, m := range []Metric{BySum, ByCount, ByMin, ByMax, ByAvg} {
		if back, err := ParseMetric(m.String()); err != nil || back != m {
			t.Fatalf("metric %v does not round-trip: %v, %v", m, back, err)
		}
	}
}

// TestMergePivotGroups pins the store's fan-out merge: partial pivots over
// disjoint tuple slices must merge to the whole cube's pivot.
func TestMergePivotGroups(t *testing.T) {
	tuples := viewTestTuples()
	dims := viewTestDims
	whole, err := New(dims, tuples)
	if err != nil {
		t.Fatal(err)
	}
	groupDims := []int{1, 2}
	sels := make([]Selector, 3)
	want, err := whole.Pivot(groupDims, sels)
	if err != nil {
		t.Fatal(err)
	}
	var parts [][]PivotGroup
	for i := 0; i < 3; i++ {
		lo, hi := i*len(tuples)/3, (i+1)*len(tuples)/3
		part, err := New(dims, tuples[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		rows, err := part.Pivot(groupDims, sels)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, rows)
	}
	samePivot(t, "MergePivotGroups", MergePivotGroups(parts...), want)
	samePivot(t, "MergePivotGroups(single)", MergePivotGroups(want), want)
}

// ---- kernel benchmarks ----
//
// The view benchmarks pin the zero-copy promise: Point allocates nothing,
// and the scan shapes allocate only their result containers — no per-node
// memory beyond the kernel's cursor state.

func benchCubeAndView(b *testing.B) (*Cube, *CubeView) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	tuples := make([]Tuple, 6000)
	for i := range tuples {
		tuples[i] = Tuple{
			Dims: []string{
				fmt.Sprintf("d%02d", rng.Intn(30)),
				fmt.Sprintf("r%d", rng.Intn(8)),
				fmt.Sprintf("s%03d", rng.Intn(120)),
			},
			Measure: float64(rng.Intn(40)),
		}
	}
	c, err := New([]string{"Day", "Region", "Station"}, tuples)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.EncodeIndexed(&buf); err != nil {
		b.Fatal(err)
	}
	v, err := OpenViewTrusted(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	return c, v
}

func benchSources(b *testing.B, fn func(b *testing.B, src Source)) {
	c, v := benchCubeAndView(b)
	b.Run("cube", func(b *testing.B) { fn(b, c) })
	b.Run("view", func(b *testing.B) { fn(b, v) })
}

func BenchmarkKernelPoint(b *testing.B) {
	benchSources(b, func(b *testing.B, src Source) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := QueryPoint(src, "d07", All, "s042"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKernelRange(b *testing.B) {
	sels := []Selector{SelectRange("d05", "d15"), SelectKeys("r1", "r3"), SelectAll()}
	benchSources(b, func(b *testing.B, src Source) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := QueryRange(src, sels); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKernelGroupBy(b *testing.B) {
	sels := make([]Selector, 3)
	benchSources(b, func(b *testing.B, src Source) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := QueryGroupBy(src, 2, sels); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKernelTopK(b *testing.B) {
	sels := make([]Selector, 3)
	spec := TopKSpec{K: 10}
	benchSources(b, func(b *testing.B, src Source) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := QueryTopK(src, 2, sels, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKernelPivot(b *testing.B) {
	sels := make([]Selector, 3)
	dims := []int{1, 2}
	benchSources(b, func(b *testing.B, src Source) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := QueryPivot(src, dims, sels); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKernelTuples(b *testing.B) {
	benchSources(b, func(b *testing.B, src Source) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := QueryTuples(src, func([]string, Aggregate) bool { n++; return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestViewResultsOutliveBytes: a view's keys alias its backing bytes, but
// nothing a query returns may keep aliasing them — a mapped cube file is
// unmapped once its last reader is done, and its results live on. Wiping
// the bytes after each query stands in for the unmap. GroupBy over a
// dimension whose keys repeat under several prefixes is the case that
// matters: re-assigning an existing string key of a Go map replaces the
// stored (cloned) key with the assigned (aliasing) one.
func TestViewResultsOutliveBytes(t *testing.T) {
	dims := []string{"A", "B", "C"}
	var tuples []Tuple
	for a := 0; a < 4; a++ {
		for b := 0; b < 5; b++ {
			for c := 0; c < 3; c++ {
				tuples = append(tuples, Tuple{
					Dims:    []string{fmt.Sprintf("a%d", a), fmt.Sprintf("b%d", b), fmt.Sprintf("c%d", c)},
					Measure: float64(1 + a + b + c),
				})
			}
		}
	}
	cube, err := New(dims, tuples)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.EncodeIndexed(&buf); err != nil {
		t.Fatal(err)
	}
	all := make([]Selector, len(dims))
	ranged := []Selector{SelectRange("a1", "a3"), {}, SelectKeys("c0", "c2")}
	for _, sels := range [][]Selector{all, ranged} {
		for dim := range dims {
			data := bytes.Clone(buf.Bytes())
			v, err := OpenView(data)
			if err != nil {
				t.Fatal(err)
			}
			groups, err := v.GroupBy(dim, sels)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := v.Pivot([]int{dim, (dim + 1) % len(dims)}, sels)
			if err != nil {
				t.Fatal(err)
			}
			top, err := v.TopK(dim, sels, TopKSpec{K: 3})
			if err != nil {
				t.Fatal(err)
			}
			clear(data)
			wantGroups, _ := cube.GroupBy(dim, sels)
			if !reflect.DeepEqual(groups, wantGroups) {
				t.Fatalf("GroupBy(%d) after wipe = %v, want %v", dim, groups, wantGroups)
			}
			wantRows, _ := cube.Pivot([]int{dim, (dim + 1) % len(dims)}, sels)
			if !reflect.DeepEqual(rows, wantRows) {
				t.Fatalf("Pivot(%d) after wipe = %v, want %v", dim, rows, wantRows)
			}
			wantTop, _ := cube.TopK(dim, sels, TopKSpec{K: 3})
			if !reflect.DeepEqual(top, wantTop) {
				t.Fatalf("TopK(%d) after wipe = %v, want %v", dim, top, wantTop)
			}
		}
	}
}
