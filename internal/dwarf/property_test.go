package dwarf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForce computes the reference answer of a point/ALL query by scanning
// the fact tuples directly.
func bruteForce(tuples []Tuple, keys []string) Aggregate {
	var agg Aggregate
	for _, t := range tuples {
		match := true
		for i, k := range keys {
			if k != All && t.Dims[i] != k {
				match = false
				break
			}
		}
		if match {
			agg = MergeAggregates(agg, NewAggregate(t.Measure))
		}
	}
	return agg
}

// bruteForceRange is the scan reference for Range queries.
func bruteForceRange(tuples []Tuple, sels []Selector) Aggregate {
	var agg Aggregate
	for _, t := range tuples {
		match := true
		for i, s := range sels {
			k := t.Dims[i]
			switch {
			case s.isAll():
			case s.HasRange:
				if k < s.Lo || k > s.Hi {
					match = false
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
					match = false
				}
			}
			if !match {
				break
			}
		}
		if match {
			agg = MergeAggregates(agg, NewAggregate(t.Measure))
		}
	}
	return agg
}

func randomTuples(rng *rand.Rand, ndims, n, cardinality int) []Tuple {
	tuples := make([]Tuple, n)
	for i := range tuples {
		dims := make([]string, ndims)
		for d := range dims {
			dims[d] = fmt.Sprintf("k%d", rng.Intn(cardinality))
		}
		tuples[i] = Tuple{Dims: dims, Measure: float64(rng.Intn(41) - 20)}
	}
	return tuples
}

func randomQuery(rng *rand.Rand, ndims, cardinality int) []string {
	keys := make([]string, ndims)
	for d := range keys {
		if rng.Intn(3) == 0 {
			keys[d] = All
		} else {
			keys[d] = fmt.Sprintf("k%d", rng.Intn(cardinality))
		}
	}
	return keys
}

// TestPropertyPointMatchesBruteForce: every point/ALL query on a cube built
// from random facts equals the brute-force scan over those facts.
func TestPropertyPointMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ndims := 1 + rng.Intn(4)
		card := 1 + rng.Intn(5)
		tuples := randomTuples(rng, ndims, rng.Intn(60), card)
		c, err := New(dimNames(ndims), tuples)
		if err != nil {
			t.Logf("New: %v", err)
			return false
		}
		for q := 0; q < 25; q++ {
			keys := randomQuery(rng, ndims, card+1) // +1 probes missing keys too
			got, err := c.Point(keys...)
			if err != nil {
				t.Logf("Point(%v): %v", keys, err)
				return false
			}
			want := bruteForce(tuples, keys)
			if !got.Equal(want) {
				t.Logf("seed %d query %v: dwarf=%v brute=%v", seed, keys, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRangeMatchesBruteForce: the same for Range selectors (key
// lists and inclusive ranges).
func TestPropertyRangeMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ndims := 1 + rng.Intn(3)
		card := 2 + rng.Intn(5)
		tuples := randomTuples(rng, ndims, rng.Intn(80), card)
		c, err := New(dimNames(ndims), tuples)
		if err != nil {
			return false
		}
		for q := 0; q < 15; q++ {
			sels := make([]Selector, ndims)
			for d := range sels {
				switch rng.Intn(3) {
				case 0:
					sels[d] = SelectAll()
				case 1:
					nkeys := 1 + rng.Intn(3)
					keys := make([]string, nkeys)
					for i := range keys {
						keys[i] = fmt.Sprintf("k%d", rng.Intn(card+1))
					}
					sels[d] = SelectKeys(keys...)
				default:
					lo := fmt.Sprintf("k%d", rng.Intn(card))
					hi := fmt.Sprintf("k%d", rng.Intn(card))
					if hi < lo {
						lo, hi = hi, lo
					}
					sels[d] = SelectRange(lo, hi)
				}
			}
			got, err := c.Range(sels)
			if err != nil {
				return false
			}
			want := bruteForceRange(tuples, sels)
			if !got.Equal(want) {
				t.Logf("seed %d sels %+v: dwarf=%v brute=%v", seed, sels, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMergeEqualsUnionBuild: MergeViewsBytes over BuildIndexed(A)
// and BuildIndexed(B) is byte-identical to the oracle's stream of A ∪ B, and
// leaves its inputs' bytes untouched.
func TestPropertyMergeEqualsUnionBuild(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ndims := 1 + rng.Intn(3)
		card := 1 + rng.Intn(4)
		dims := dimNames(ndims)
		a := randomTuples(rng, ndims, rng.Intn(40), card)
		b := randomTuples(rng, ndims, rng.Intn(40), card)
		da, err := BuildIndexed(dims, a)
		if err != nil {
			return false
		}
		db, err := BuildIndexed(dims, b)
		if err != nil {
			return false
		}
		keep := append([]byte(nil), da...)
		va, err := OpenViewTrusted(da)
		if err != nil {
			return false
		}
		vb, err := OpenViewTrusted(db)
		if err != nil {
			return false
		}
		merged, _, err := MergeViewsBytes(va, vb)
		if err != nil {
			t.Logf("MergeViewsBytes: %v", err)
			return false
		}
		union := batchIndexed(t, dims, append(append([]Tuple{}, a...), b...))
		if !bytes.Equal(merged, union) {
			t.Logf("seed %d: merged %d bytes, union build %d", seed, len(merged), len(union))
			return false
		}
		if !bytes.Equal(da, keep) {
			t.Logf("seed %d: input bytes mutated by the merge", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCodecRoundTrip: Encode/Decode preserves dimension names, tuple
// counts, structure stats and query answers.
func TestPropertyCodecRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ndims := 1 + rng.Intn(4)
		card := 1 + rng.Intn(4)
		tuples := randomTuples(rng, ndims, rng.Intn(50), card)
		c, err := New(dimNames(ndims), tuples)
		if err != nil {
			return false
		}
		v1 := encodeV1(t, c)
		if err := VerifyEncoded(v1); err != nil {
			t.Logf("VerifyEncoded: %v", err)
			return false
		}
		d, err := DecodeBytes(v1)
		if err != nil {
			t.Logf("Decode: %v", err)
			return false
		}
		if d.NumSourceTuples() != c.NumSourceTuples() || d.NumDims() != c.NumDims() {
			return false
		}
		cs, ds := c.Stats(), d.Stats()
		if cs.Nodes != ds.Nodes || cs.Cells != ds.Cells {
			t.Logf("seed %d: stats differ: %+v vs %+v", seed, cs, ds)
			return false
		}
		for q := 0; q < 20; q++ {
			keys := randomQuery(rng, ndims, card+1)
			ga, _ := c.Point(keys...)
			gb, _ := d.Point(keys...)
			if !ga.Equal(gb) {
				t.Logf("seed %d query %v: orig=%v decoded=%v", seed, keys, ga, gb)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyExtractMatchesFilter: Extract produces a sub-cube whose ALL
// aggregate sum equals the brute-force filtered sum.
func TestPropertyExtractMatchesFilter(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ndims := 1 + rng.Intn(3)
		card := 2 + rng.Intn(3)
		tuples := randomTuples(rng, ndims, 10+rng.Intn(40), card)
		c, err := New(dimNames(ndims), tuples)
		if err != nil {
			return false
		}
		sels := make([]Selector, ndims)
		for d := range sels {
			if rng.Intn(2) == 0 {
				sels[d] = SelectAll()
			} else {
				sels[d] = SelectKeys(fmt.Sprintf("k%d", rng.Intn(card)))
			}
		}
		sub, err := c.Extract(sels)
		if err != nil {
			return false
		}
		if !sub.FromQuery {
			t.Log("extracted cube must set FromQuery")
			return false
		}
		allQ := make([]Selector, ndims)
		got, _ := sub.Range(allQ)
		want := bruteForceRange(tuples, sels)
		if got.Sum != want.Sum {
			t.Logf("seed %d: extract sum=%g want %g", seed, got.Sum, want.Sum)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func dimNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dim%d", i)
	}
	return out
}
