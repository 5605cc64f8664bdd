package dwarf

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The streaming-merge differential suite. The central property: MergeViews
// over any partition of a fact multiset — however the inputs were built
// (every ablation option set) and however they were
// encoded (plain v1 or v2-indexed) — produces bytes identical to
// EncodeIndexed of one default-options batch build over the whole multiset.
// Measures are small integers so aggregate arithmetic is exact and the
// bit-identity claim is unconditional.

// intTuples returns n random tuples with small integer measures.
func intTuples(rng *rand.Rand, ndims, n, card int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		dims := make([]string, ndims)
		for d := range dims {
			dims[d] = fmt.Sprintf("k%d", rng.Intn(card))
		}
		out[i] = Tuple{Dims: dims, Measure: float64(rng.Intn(19) - 9)}
	}
	return out
}

// partition splits tuples into parts consecutive slices (some possibly
// empty) at random cut points.
func partition(rng *rand.Rand, tuples []Tuple, parts int) [][]Tuple {
	cuts := make([]int, parts-1)
	for i := range cuts {
		cuts[i] = rng.Intn(len(tuples) + 1)
	}
	for i := range cuts { // insertion sort, tiny
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	out := make([][]Tuple, parts)
	prev := 0
	for i, c := range cuts {
		out[i] = tuples[prev:c]
		prev = c
	}
	out[parts-1] = tuples[prev:]
	return out
}

// encodeFor encodes a cube plain (even parts) or indexed (odd), exercising
// both the trailer-index and lazy-scan view paths in the merge.
func encodeFor(t *testing.T, c *Cube, indexed bool) []byte {
	t.Helper()
	if !indexed {
		return encodeV1(t, c)
	}
	var buf bytes.Buffer
	if err := c.EncodeIndexed(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// batchIndexed is the batch reference the merge suites compare against:
// the node-graph oracle's stream for the union of the facts.
func batchIndexed(t *testing.T, dims []string, tuples []Tuple) []byte {
	t.Helper()
	return mustOracle(t, dims, tuples).encodeIndexed()
}

// The workers1/workers4 level of the subtest names predates the
// serial-only build; the number now only seeds the random multiset.
func TestMergeViewsMatchesBatchBytes(t *testing.T) {
	ablations := [][]Option{
		nil,
		{WithoutSuffixCoalescing()},
		{WithoutHashConsing()},
		{WithoutSuffixCoalescing(), WithoutHashConsing()},
	}
	for ai, opts := range ablations {
		for _, workers := range []int{1, 4} {
			for parts := 2; parts <= 5; parts++ {
				name := fmt.Sprintf("ablation%d/workers%d/parts%d", ai, workers, parts)
				opts, workers, parts := opts, workers, parts
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(int64(1000*ai + 10*workers + parts)))
					ndims := 1 + rng.Intn(4)
					dims := dimNames(ndims)
					tuples := intTuples(rng, ndims, 40+rng.Intn(160), 1+rng.Intn(5))
					views := make([]*CubeView, parts)
					for i, part := range partition(rng, tuples, parts) {
						c, err := New(dims, part, opts...)
						if err != nil {
							t.Fatal(err)
						}
						v, err := OpenView(encodeFor(t, c, i%2 == 1))
						if err != nil {
							t.Fatal(err)
						}
						views[i] = v
					}
					got, stats, err := MergeViewsBytes(views...)
					if err != nil {
						t.Fatal(err)
					}
					want := batchIndexed(t, dims, tuples)
					if !bytes.Equal(got, want) {
						t.Fatalf("MergeViews output differs from the batch build: %d vs %d bytes", len(got), len(want))
					}
					if stats.Tuples != len(tuples) || stats.Inputs != parts {
						t.Fatalf("stats %+v: want %d tuples over %d inputs", stats, len(tuples), parts)
					}
					if stats.BytesWritten != int64(len(got)) {
						t.Fatalf("stats.BytesWritten = %d, wrote %d", stats.BytesWritten, len(got))
					}
					ref, err := DecodeBytes(want)
					if err != nil {
						t.Fatal(err)
					}
					if rs := ref.Stats(); stats.Nodes != rs.Nodes || stats.Cells != rs.Cells {
						t.Fatalf("stats count %d nodes / %d cells, batch cube has %d / %d",
							stats.Nodes, stats.Cells, rs.Nodes, rs.Cells)
					}
					// The io.Writer form emits the same stream.
					var buf bytes.Buffer
					if _, err := MergeViews(&buf, views...); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf.Bytes(), want) {
						t.Fatal("MergeViews(dst) differs from MergeViewsBytes")
					}
				})
			}
		}
	}
}

// TestMergeViewsEdgeInputs covers the degenerate shapes compaction can
// meet: all-empty inputs, empty-plus-loaded, single-tuple cubes, and a
// single input (which canonicalizes whatever encoding it was given).
func TestMergeViewsEdgeInputs(t *testing.T) {
	dims := []string{"a", "b"}
	mkView := func(tuples []Tuple, opts ...Option) *CubeView {
		c, err := New(dims, tuples, opts...)
		if err != nil {
			t.Fatal(err)
		}
		v, err := OpenView(encodeFor(t, c, true))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	one := []Tuple{{Dims: []string{"x", "y"}, Measure: 3}}
	two := []Tuple{{Dims: []string{"x", "z"}, Measure: 5}, {Dims: []string{"w", "y"}, Measure: 2}}

	cases := []struct {
		name  string
		views []*CubeView
		union []Tuple
	}{
		{"all-empty", []*CubeView{mkView(nil), mkView(nil), mkView(nil)}, nil},
		{"empty-plus-loaded", []*CubeView{mkView(nil), mkView(two), mkView(nil)}, two},
		{"single-tuple-cubes", []*CubeView{mkView(one), mkView(two)}, append(append([]Tuple{}, one...), two...)},
		{"single-input", []*CubeView{mkView(two)}, two},
		{"single-input-ablated", []*CubeView{mkView(two, WithoutSuffixCoalescing(), WithoutHashConsing())}, two},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, stats, err := MergeViewsBytes(tc.views...)
			if err != nil {
				t.Fatal(err)
			}
			want := batchIndexed(t, dims, tc.union)
			if !bytes.Equal(got, want) {
				t.Fatalf("output differs from batch build: %d vs %d bytes", len(got), len(want))
			}
			if stats.Tuples != len(tc.union) {
				t.Fatalf("stats.Tuples = %d, want %d", stats.Tuples, len(tc.union))
			}
		})
	}
}

func TestMergeViewsValidation(t *testing.T) {
	mk := func(dims []string) *CubeView {
		c, err := New(dims, nil)
		if err != nil {
			t.Fatal(err)
		}
		v, err := OpenView(encodeFor(t, c, true))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if _, _, err := MergeViewsBytes(); err == nil {
		t.Error("MergeViews with no inputs must fail")
	}
	if _, _, err := MergeViewsBytes(mk([]string{"a"}), mk([]string{"a", "b"})); !errors.Is(err, ErrDimsMismatch) {
		t.Errorf("dimension count mismatch: %v", err)
	}
	if _, _, err := MergeViewsBytes(mk([]string{"a", "b"}), mk([]string{"a", "c"})); !errors.Is(err, ErrDimsMismatch) {
		t.Errorf("dimension name mismatch: %v", err)
	}
}

// TestMergeViewsFromQueryFlag: merging query-derived cubes keeps the
// is_cube flag set in the output header.
func TestMergeViewsFromQueryFlag(t *testing.T) {
	c, err := New([]string{"a"}, []Tuple{{Dims: []string{"x"}, Measure: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c.FromQuery = true
	v, err := OpenView(encodeFor(t, c, true))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := MergeViewsBytes(v, v)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := DecodeBytes(out)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.FromQuery {
		t.Error("FromQuery flag lost in merge")
	}
	// The output is the union's batch build with the flag applied.
	union, err := New([]string{"a"}, []Tuple{{Dims: []string{"x"}, Measure: 1}, {Dims: []string{"x"}, Measure: 1}})
	if err != nil {
		t.Fatal(err)
	}
	union.FromQuery = true
	if want := encodeFor(t, union, true); !bytes.Equal(out, want) {
		t.Error("merge of FromQuery inputs differs from the flagged union build")
	}
}

// TestMergeViewsKWayMatchesPairwise: one k-way merge folds aggregates in
// the same left-to-right input order as a chain of pairwise merges, so
// the two write identical bytes even with fractional measures, whose sums
// change under re-association, and whatever options built the inputs.
func TestMergeViewsKWayMatchesPairwise(t *testing.T) {
	ablations := [][]Option{
		nil,
		{WithoutSuffixCoalescing()},
		{WithoutHashConsing()},
		{WithoutSuffixCoalescing(), WithoutHashConsing()},
	}
	open := func(data []byte) *CubeView {
		v, err := OpenViewTrusted(data)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for ai, opts := range ablations {
		rng := rand.New(rand.NewSource(int64(ai)))
		ndims := 1 + rng.Intn(3)
		dims := dimNames(ndims)
		views := make([]*CubeView, 4)
		for i := range views {
			c, err := New(dims, floatTuples(rng, ndims, rng.Intn(50), 4), opts...)
			if err != nil {
				t.Fatal(err)
			}
			views[i] = open(encodeFor(t, c, true))
		}
		kway, _, err := MergeViewsBytes(views...)
		if err != nil {
			t.Fatal(err)
		}
		pairwise, _, err := MergeViewsBytes(views[0], views[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range views[2:] {
			if pairwise, _, err = MergeViewsBytes(open(pairwise), v); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(kway, pairwise) {
			t.Errorf("ablation %d: k-way merge %d bytes, pairwise chain %d (fold order diverged)",
				ai, len(kway), len(pairwise))
		}
	}
}

// FuzzMergeViews drives the streaming merge over arbitrary (resealed)
// streams: it must never panic, fail only with the codec sentinels or a
// dimension mismatch, and any stream it does emit must be fully valid and
// carry the merge of the inputs' ALL aggregates.
func FuzzMergeViews(f *testing.F) {
	seeds := fuzzSeedStreams(f)
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, d1, d2 []byte) {
		clean := func(op string, err error) {
			if err == nil || errors.Is(err, ErrDimsMismatch) || errors.Is(err, ErrMergeTooLarge) {
				return
			}
			wantCleanError(t, op, err)
		}
		v1, err := OpenView(resealV1(d1))
		wantCleanError(t, "OpenView", err)
		v2, err2 := OpenView(resealV1(d2))
		wantCleanError(t, "OpenView", err2)
		if err != nil || err2 != nil {
			return
		}
		out, stats, err := MergeViewsBytes(v1, v2)
		clean("MergeViews", err)
		if err != nil {
			return
		}
		merged, err := DecodeBytes(out)
		if err != nil {
			t.Fatalf("MergeViews emitted an invalid stream: %v", err)
		}
		if !HasOffsetTrailer(out) {
			t.Fatal("MergeViews emitted no offset trailer")
		}
		if merged.NumSourceTuples() != stats.Tuples {
			t.Fatalf("output carries %d tuples, stats say %d", merged.NumSourceTuples(), stats.Tuples)
		}
		wild := make([]string, merged.NumDims())
		for i := range wild {
			wild[i] = All
		}
		got, err := merged.Point(wild...)
		if err != nil {
			t.Fatalf("Point on merged output: %v", err)
		}
		a1, e1 := v1.Point(wild...)
		a2, e2 := v2.Point(wild...)
		if e1 != nil || e2 != nil {
			return
		}
		want := MergeAggregates(a1, a2)
		if got.Count != want.Count {
			t.Fatalf("merged count %d, inputs' ALL count %d", got.Count, want.Count)
		}
		if !math.IsNaN(got.Sum) && !math.IsNaN(want.Sum) &&
			math.Float64bits(got.Sum) != math.Float64bits(want.Sum) {
			t.Fatalf("merged sum %v, inputs' ALL sum %v", got.Sum, want.Sum)
		}
	})
}
