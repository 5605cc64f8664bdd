package dwarf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestIncrementalEqualsBatchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := []string{"a", "b", "c"}
	tuples := randomTuples(rng, 3, 500, 7)

	inc, err := NewIncremental(dims)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		if err := inc.Add(tu); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := inc.Cube()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := New(dims, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.NumSourceTuples() != batch.NumSourceTuples() {
		t.Errorf("tuples %d != %d", streamed.NumSourceTuples(), batch.NumSourceTuples())
	}
	for q := 0; q < 50; q++ {
		keys := randomQuery(rng, 3, 8)
		a, _ := streamed.Point(keys...)
		b, _ := batch.Point(keys...)
		if !a.Equal(b) {
			t.Fatalf("query %v: streamed=%v batch=%v", keys, a, b)
		}
	}
	if err := streamed.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestIncrementalBuildsOnce: appends only buffer, and the first Cube()
// folds the whole buffer with one New — so its encoding is byte-identical
// to a batch build over the same tuples, not a merge of chunk builds.
func TestIncrementalBuildsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dims := []string{"a", "b", "c"}
	// Cardinality 24: over smaller domains a merge of partial builds can
	// happen to encode identically, which would hide a chunked build.
	tuples := randomTuples(rng, 3, 700, 24)
	inc, err := NewIncremental(dims)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tuples); i += 100 {
		if err := inc.AddBatch(tuples[i : i+100]); err != nil {
			t.Fatal(err)
		}
	}
	if got := inc.Buffered(); got != len(tuples) {
		t.Fatalf("Buffered after AddBatch = %d, want %d", got, len(tuples))
	}
	c, err := inc.Cube()
	if err != nil {
		t.Fatal(err)
	}
	if got := inc.Buffered(); got != 0 {
		t.Fatalf("Buffered after Cube = %d, want 0", got)
	}
	batch, err := New(dims, tuples)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := c.EncodeIndexed(&got); err != nil {
		t.Fatal(err)
	}
	if err := batch.EncodeIndexed(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("folded cube encodes to %d bytes, batch build to %d: not byte-identical", got.Len(), want.Len())
	}
	// A second Cube with nothing buffered hands back the same cube.
	if again, err := inc.Cube(); err != nil || again != c {
		t.Fatalf("Cube with an empty buffer = %p, %v; want the standing cube %p", again, err, c)
	}

	empty, err := NewIncremental(dims)
	if err != nil {
		t.Fatal(err)
	}
	e, err := empty.Cube()
	if err != nil {
		t.Fatal(err)
	}
	if agg, _ := e.Point(All, All, All); agg.Count != 0 || e.NumSourceTuples() != 0 {
		t.Fatalf("empty builder's cube = %+v over %d tuples", agg, e.NumSourceTuples())
	}
}

func TestIncrementalContinuesAfterCube(t *testing.T) {
	inc, err := NewIncremental([]string{"d"})
	if err != nil {
		t.Fatal(err)
	}
	inc.AddBatch([]Tuple{{Dims: []string{"x"}, Measure: 1}, {Dims: []string{"y"}, Measure: 2}})
	c1, err := inc.Cube()
	if err != nil {
		t.Fatal(err)
	}
	if agg, _ := c1.Point(All); agg.Sum != 3 {
		t.Errorf("first cube = %v", agg)
	}
	if err := inc.Add(Tuple{Dims: []string{"z"}, Measure: 4}); err != nil {
		t.Fatal(err)
	}
	if inc.Buffered() != 1 {
		t.Errorf("buffered = %d", inc.Buffered())
	}
	c2, err := inc.Cube()
	if err != nil {
		t.Fatal(err)
	}
	if agg, _ := c2.Point(All); agg.Sum != 7 || agg.Count != 3 {
		t.Errorf("second cube = %v", agg)
	}
	// The earlier snapshot is immutable.
	if agg, _ := c1.Point(All); agg.Sum != 3 {
		t.Errorf("snapshot mutated: %v", agg)
	}
}

// TestIncrementalCubeStableAcrossFlushes is the regression test for the
// Cube() ownership rule: a cube handed out earlier must answer identically
// after any number of later Adds and flushes, because flushes build new
// cubes and never mutate shared sub-dwarfs.
func TestIncrementalCubeStableAcrossFlushes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []string{"a", "b", "c"}
	inc, err := NewIncremental(dims)
	if err != nil {
		t.Fatal(err)
	}
	type snap struct {
		cube    *Cube
		queries [][]string
		answers []Aggregate
	}
	var snaps []snap
	tuples := randomTuples(rng, 3, 400, 5)
	for i, tu := range tuples {
		if err := inc.Add(tu); err != nil {
			t.Fatal(err)
		}
		if i%37 == 0 {
			c, err := inc.Cube()
			if err != nil {
				t.Fatal(err)
			}
			s := snap{cube: c}
			for q := 0; q < 20; q++ {
				keys := randomQuery(rng, 3, 6)
				agg, err := c.Point(keys...)
				if err != nil {
					t.Fatal(err)
				}
				s.queries = append(s.queries, keys)
				s.answers = append(s.answers, agg)
			}
			snaps = append(snaps, s)
		}
	}
	if _, err := inc.Cube(); err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		for q, keys := range s.queries {
			agg, err := s.cube.Point(keys...)
			if err != nil {
				t.Fatal(err)
			}
			if !agg.Equal(s.answers[q]) {
				t.Fatalf("snapshot %d mutated by later flushes: query %v was %v, now %v",
					i, keys, s.answers[q], agg)
			}
		}
		if err := s.cube.CheckInvariants(); err != nil {
			t.Errorf("snapshot %d: %v", i, err)
		}
	}
}

// TestIncrementalConcurrent exercises Add/AddBatch/Cube/Buffered from many
// goroutines; run under -race it is the regression test for the field races
// the pre-lock Incremental had (concurrent Cube() flushing while an Add
// appends to pending).
func TestIncrementalConcurrent(t *testing.T) {
	inc, err := NewIncremental([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				tu := Tuple{Dims: []string{fmt.Sprintf("a%d", rng.Intn(5)), fmt.Sprintf("b%d", rng.Intn(5))}, Measure: 1}
				if rng.Intn(4) == 0 {
					if err := inc.AddBatch([]Tuple{tu}); err != nil {
						t.Error(err)
						return
					}
				} else if err := inc.Add(tu); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := inc.Cube()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Point(All, All); err != nil {
					t.Error(err)
					return
				}
				inc.Buffered()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	c, err := inc.Cube()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := c.Point(All, All)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != writers*perWriter || agg.Sum != writers*perWriter {
		t.Errorf("final ALL aggregate = %+v, want count/sum %d", agg, writers*perWriter)
	}
}

func TestIncrementalValidation(t *testing.T) {
	inc, err := NewIncremental([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.Add(Tuple{Dims: []string{"only-one"}, Measure: 1}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch: %v", err)
	}
	if _, err := NewIncremental(nil); !errors.Is(err, ErrNoDimensions) {
		t.Errorf("no dims: %v", err)
	}
}

func TestDumpRendersTree(t *testing.T) {
	c := mustCube(t, paperDims, paperTuples())
	var sb strings.Builder
	if err := c.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"Ireland"`, `"Fenian St"`, "ALL", "[Country]", "[Station]"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %s:\n%s", want, out)
		}
	}
	// Coalesced sub-dwarfs render as shared references.
	if !strings.Contains(out, "(shared)") {
		t.Errorf("dump should mark shared sub-dwarfs:\n%s", out)
	}
	// Empty cube.
	e := mustCube(t, []string{"x"}, nil)
	sb.Reset()
	if err := e.Dump(&sb); err != nil || !strings.Contains(sb.String(), "node #") {
		t.Errorf("empty dump = %q, %v", sb.String(), err)
	}
}
