package dwarf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// floatTuples returns n random tuples whose measures are negative,
// non-integer and spread over magnitudes from 1e-3 to 1e16, so sums change
// under re-association: only the exact fold order reproduces the
// oracle's bits.
func floatTuples(rng *rand.Rand, ndims, n, card int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		dims := make([]string, ndims)
		for d := range dims {
			dims[d] = fmt.Sprintf("k%d", rng.Intn(card))
		}
		m := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(20)-3))
		out[i] = Tuple{Dims: dims, Measure: m}
	}
	return out
}

// checkBuildIndexed holds the production constructors to the node-graph
// oracle (oracle_test.go): BuildIndexed writes the oracle's EncodeIndexed
// bytes, and under every ablation set New(opts...) has the oracle's bytes
// and Stats under the same options. Input the oracle rejects gets the
// same error from both. The stream passes VerifyEncoded and opens with
// OpenView.
func checkBuildIndexed(t *testing.T, dims []string, tuples []Tuple) {
	t.Helper()
	got, err := BuildIndexed(dims, tuples)
	ref, refErr := oracle(dims, tuples)
	if refErr != nil || err != nil {
		if refErr == nil || err == nil || err.Error() != refErr.Error() {
			t.Fatalf("BuildIndexed error %v, oracle error %v", err, refErr)
		}
		if _, err := New(dims, tuples); err == nil || err.Error() != refErr.Error() {
			t.Fatalf("New error %v, oracle error %v", err, refErr)
		}
		return
	}
	if want := ref.encodeIndexed(); !bytes.Equal(got, want) {
		t.Fatalf("BuildIndexed differs from the oracle's EncodeIndexed over %d tuples: %d vs %d bytes",
			len(tuples), len(got), len(want))
	}
	if err := VerifyEncoded(got); err != nil {
		t.Fatalf("VerifyEncoded: %v", err)
	}
	if _, err := OpenView(got); err != nil {
		t.Fatalf("OpenView: %v", err)
	}
	for name, opts := range viewOptionSets() {
		c, err := New(dims, tuples, opts...)
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		ref := mustOracle(t, dims, tuples, opts...)
		if got, want := c.encodeIndexed(), ref.encodeIndexed(); !bytes.Equal(got, want) {
			t.Fatalf("%s: New differs from the oracle over %d tuples: %d vs %d bytes", name, len(tuples), len(got), len(want))
		}
		if got, want := c.Stats(), ref.Stats(); got != want {
			t.Fatalf("%s: New's stats %+v, the oracle's %+v", name, got, want)
		}
	}
}

func TestBuildIndexedMatchesNew(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ndims := 1 + rng.Intn(4)
		n := rng.Intn(300)
		card := 1 + rng.Intn(8)
		tuples := intTuples(rng, ndims, n, card)
		if seed%2 == 1 {
			tuples = floatTuples(rng, ndims, n, card)
		}
		t.Run(fmt.Sprintf("seed%d/dims%d/n%d", seed, ndims, n), func(t *testing.T) {
			checkBuildIndexed(t, dimNames(ndims), tuples)
		})
	}
	checkBuildIndexed(t, []string{"a", "b"}, nil)
	checkBuildIndexed(t, []string{"a"}, nil)
	checkBuildIndexed(t, []string{"a", "b"}, []Tuple{
		{Dims: []string{"x", "y"}, Measure: math.Copysign(0, -1)},
		{Dims: []string{"x", "y"}, Measure: 0.1},
		{Dims: []string{"x", "y"}, Measure: 1e16},
	})
}

func TestBuildIndexedValidation(t *testing.T) {
	bad := []struct {
		dims   []string
		tuples []Tuple
		want   error
	}{
		{nil, nil, ErrNoDimensions},
		{[]string{"a"}, []Tuple{{Dims: []string{"x", "y"}}}, ErrDimMismatch},
		{[]string{"a"}, []Tuple{{Dims: []string{All}}}, ErrReservedKey},
		{[]string{"a"}, []Tuple{{Dims: []string{"x"}, Measure: math.NaN()}}, ErrNotFiniteValue},
		{[]string{"a"}, []Tuple{{Dims: []string{"x"}, Measure: math.Inf(-1)}}, ErrNotFiniteValue},
	}
	for _, c := range bad {
		if _, err := BuildIndexed(c.dims, c.tuples); !errors.Is(err, c.want) {
			t.Errorf("BuildIndexed(%v, %v) = %v, want %v", c.dims, c.tuples, err, c.want)
		}
		checkBuildIndexed(t, c.dims, c.tuples)
	}
	ats := []AggTuple{{Dims: []string{"x", All}, Agg: NewAggregate(1)}}
	if _, err := BuildIndexedFromAggregates([]string{"a", "b"}, ats); !errors.Is(err, ErrReservedKey) {
		t.Errorf("BuildIndexedFromAggregates accepted the wildcard key: %v", err)
	}
}

// TestBuildIndexedFromAggregatesMatchesNew covers pre-aggregated facts
// (rollup builds): BuildIndexedFromAggregates and NewFromAggregates both
// give the oracle's bytes, so counts and min/max survive, and the header
// carries the summed count.
func TestBuildIndexedFromAggregatesMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dims := dimNames(3)
	var ats []AggTuple
	for _, tp := range floatTuples(rng, 3, 200, 4) {
		a := NewAggregate(tp.Measure)
		a.Add(float64(rng.Intn(50)))
		ats = append(ats, AggTuple{Dims: tp.Dims, Agg: a})
	}
	got, err := BuildIndexedFromAggregates(dims, ats)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracleFromAggregates(dims, ats)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.encodeIndexed()
	if !bytes.Equal(got, want) {
		t.Fatalf("BuildIndexedFromAggregates differs from the oracle: %d vs %d bytes", len(got), len(want))
	}
	c, err := NewFromAggregates(dims, ats)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSourceTuples() != 400 || !bytes.Equal(c.encodeIndexed(), want) {
		t.Fatalf("NewFromAggregates: %d source tuples, want 400, or bytes differ from the oracle", c.NumSourceTuples())
	}
}

// fuzzTuples decodes a fuzz input into a dimension count (1-4) and tuples:
// one key byte per dimension (a 5-key alphabet, so duplicates are common)
// and eight bytes of float64 measure bits, so every float — negative,
// fractional, huge, and non-finite — is reachable.
func fuzzTuples(data []byte) ([]string, []Tuple) {
	if len(data) == 0 {
		return []string{"a"}, nil
	}
	ndims := 1 + int(data[0]%4)
	data = data[1:]
	var tuples []Tuple
	for len(data) >= ndims+8 {
		dims := make([]string, ndims)
		for d := range dims {
			dims[d] = string(rune('a' + data[d]%5))
		}
		m := math.Float64frombits(binary.LittleEndian.Uint64(data[ndims:]))
		tuples = append(tuples, Tuple{Dims: dims, Measure: m})
		data = data[ndims+8:]
	}
	return dimNames(ndims), tuples
}

// FuzzBuildIndexed holds the stream builder to the node-graph oracle over
// arbitrary tuple sets (checkBuildIndexed): BuildIndexed's bytes, and
// New's bytes and Stats under every ablation set, equal the oracle's, or
// the error is the oracle's for input it rejects.
func FuzzBuildIndexed(f *testing.F) {
	enc := func(ndims byte, rows ...any) []byte {
		out := []byte{ndims}
		for i := 0; i < len(rows); i += 2 {
			out = append(out, rows[i].(string)...)
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(rows[i+1].(float64)))
		}
		return out
	}
	f.Add([]byte{})
	f.Add(enc(0, "a", 1.0))
	f.Add(enc(1, "ab", 0.1, "ab", 0.2, "ba", -0.3))
	f.Add(enc(2, "abc", 1e16, "abd", 1.0, "acc", -1e16, "abc", 3.5))
	f.Add(enc(3, "abcd", -2.25, "abce", 7.0, "bbcd", 1e-3, "abcd", 1e300))
	f.Add(enc(1, "aa", math.Inf(1)))
	// A seal-like input: many rows over few keys per dimension, so
	// sortPerm's counting passes run with duplicates in every bucket.
	var rows []any
	for i := 0; i < 192; i++ {
		rows = append(rows, string([]byte{'a' + byte(i%5), 'a' + byte(i/5%5), 'a' + byte(i/25%5)}), float64(i%7)-3)
	}
	f.Add(enc(2, rows...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dims, tuples := fuzzTuples(data)
		checkBuildIndexed(t, dims, tuples)
	})
}
