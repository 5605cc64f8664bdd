package dwarf

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// compareDims orders key tuples lexicographically, dimension by dimension:
// the order sortPerm implements, and its oracle here.
func compareDims(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// sortKeyAlphabet mixes the empty key, keys that are prefixes of each
// other and bytes at and above 0x80, so the rank order has to agree with
// strings.Compare's byte order, not with any rune or length order.
var sortKeyAlphabet = []string{"", "a", "ab", "abc", "b", "ba", "\x7f", "\x80", "\xff", "a\xff", "é", "z"}

// TestSortPermMatchesStableSort holds the radix sort to the comparison
// sort it replaces: the permutation equals slices.SortStableFunc by
// compareDims, from empty inputs and fold-tail sizes up to a seal's,
// over duplicate keys carrying distinct measures (so input order among
// equal keys is observable). The kept ranks must name every row's key.
// One sortScratch serves every case, as it does across a drain's seals.
func TestSortPermMatchesStableSort(t *testing.T) {
	var sc sortScratch
	sizes := []int{0, 1, 2, 3, 20, 64, 300, 1000, 5000}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := sizes[int(seed)%len(sizes)]
		if seed >= int64(len(sizes)) {
			n = rng.Intn(5001)
		}
		ndims := 1 + rng.Intn(8)
		card := 1 + rng.Intn(len(sortKeyAlphabet))
		tuples := make([]Tuple, n)
		for i := range tuples {
			dims := make([]string, ndims)
			for d := range dims {
				dims[d] = sortKeyAlphabet[rng.Intn(card)]
			}
			tuples[i] = Tuple{Dims: dims, Measure: float64(i)}
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			return compareDims(tuples[a].Dims, tuples[b].Dims)
		})
		got := sortPerm(rawFacts(tuples), &sc)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: %d rows × %d dims over %d keys: radix permutation differs from the stable sort", seed, n, ndims, card)
		}
		if n == 0 {
			continue
		}
		// The ranks name each key and order the keys as strings.Compare.
		for d := 0; d < ndims; d++ {
			keys, ranks := sc.keys[d], sc.ranks[d]
			if len(ranks) != n || !slices.IsSorted(keys) || len(slices.Compact(slices.Clone(keys))) != len(keys) {
				t.Fatalf("seed %d dim %d: %d ranks for %d rows, keys %q not strictly sorted", seed, d, len(ranks), n, keys)
			}
			for i, tu := range tuples {
				if keys[ranks[i]] != tu.Dims[d] {
					t.Fatalf("seed %d dim %d row %d: rank %d names %q, key is %q", seed, d, i, ranks[i], keys[ranks[i]], tu.Dims[d])
				}
			}
		}
	}
}

// TestScratchReuse runs builds and merges of changing shapes through one
// Scratch, a failed merge among them, and holds every result to a fresh
// build's bytes: nothing of an earlier call leaks into a later one.
func TestScratchReuse(t *testing.T) {
	var sc Scratch
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 24; round++ {
		ndims := 1 + rng.Intn(5)
		dims := dimNames(ndims)
		n := []int{0, 5, 64, 700}[round%4]
		tuples := intTuples(rng, ndims, n, 1+rng.Intn(9))
		t.Run(fmt.Sprintf("round%d/dims%d/n%d", round, ndims, n), func(t *testing.T) {
			want := batchIndexed(t, dims, tuples)
			got, err := sc.BuildIndexed(dims, tuples)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("build in a reused scratch: %d bytes, fresh build %d", len(got), len(want))
			}
			parts := partition(rng, tuples, 3)
			views := make([]*CubeView, len(parts))
			for i, p := range parts {
				v, err := OpenView(batchIndexed(t, dims, p))
				if err != nil {
					t.Fatal(err)
				}
				views[i] = v
			}
			if round%3 == 0 {
				// A merge that fails part-way leaves tables half filled.
				good, bad := unsortedLeafViews(t)
				if _, _, err := sc.MergeViewsBytes(good, bad); err == nil {
					t.Fatal("merge over unsorted cell keys succeeded")
				}
			}
			got, _, err = sc.MergeViewsBytes(views...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("merge in a reused scratch: %d bytes, batch build %d", len(got), len(want))
			}
		})
	}
}

// unsortedLeafViews returns a valid two-dimension view and one whose
// second leaf lists its keys out of order. The damage sits behind the CRC
// (OpenViewTrusted), so a merge of the two emits the first leaf before it
// finds the second one corrupt.
func unsortedLeafViews(t *testing.T) (good, bad *CubeView) {
	t.Helper()
	dims := dimNames(2)
	tuples := []Tuple{
		{Dims: []string{"x", "kb"}, Measure: 1},
		{Dims: []string{"y", "kb"}, Measure: 2},
		{Dims: []string{"y", "kc"}, Measure: 3},
	}
	data := batchIndexed(t, dims, tuples)
	good, err := OpenView(data)
	if err != nil {
		t.Fatal(err)
	}
	broken := bytes.Clone(data)
	i := bytes.Index(broken, []byte("kc"))
	broken[i+1] = 'a' // y's leaf now reads kb, ka
	if bad, err = OpenViewTrusted(broken); err != nil {
		t.Fatal(err)
	}
	return good, bad
}
