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
	streamed, err := inc.Runs()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := oracle(dims, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if runTuples(streamed) != batch.NumSourceTuples() {
		t.Errorf("tuples %d != %d", runTuples(streamed), batch.NumSourceTuples())
	}
	for q := 0; q < 50; q++ {
		keys := randomQuery(rng, 3, 8)
		a, _ := streamed.Point(keys...)
		b, _ := batch.Point(keys...)
		if !a.Equal(b) {
			t.Fatalf("query %v: streamed=%v batch=%v", keys, a, b)
		}
	}
	if len(streamed.data) != 1 {
		t.Errorf("one fold of a fresh buffer left %d runs, want 1", len(streamed.data))
	}
}

// TestIncrementalBuildsOnce: appends only buffer, and the first Runs()
// folds the whole buffer into one run with one build — so its bytes are
// identical to a batch build over the same tuples, not a merge of chunk
// builds.
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
	c, err := inc.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if got := inc.Buffered(); got != 0 {
		t.Fatalf("Buffered after Runs = %d, want 0", got)
	}
	if len(c.data) != 1 {
		t.Fatalf("one fold left %d runs, want 1", len(c.data))
	}
	got, err := inc.IndexedBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := batchIndexed(t, dims, tuples)
	if !bytes.Equal(got, want) || runBytes(c) != len(want) {
		t.Fatalf("folded run is %d bytes (IndexedBytes %d), batch build %d: not byte-identical", runBytes(c), len(got), len(want))
	}
	// A second Runs with nothing buffered hands back the same list.
	if again, err := inc.Runs(); err != nil || again != c {
		t.Fatalf("Runs with an empty buffer = %p, %v; want the standing list %p", again, err, c)
	}

	empty, err := NewIncremental(dims)
	if err != nil {
		t.Fatal(err)
	}
	e, err := empty.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if agg, _ := e.Point(All, All, All); agg.Count != 0 || runTuples(e) != 0 {
		t.Fatalf("empty builder's cube = %+v over %d tuples", agg, runTuples(e))
	}
}

// TestIncrementalIndexedBytes: IndexedBytes writes the batch encoding of
// every tuple added, whether no Runs call, some, or a full fold came first
// (integer measures, so folded sums are exact), and leaves the buffer as
// it found it.
func TestIncrementalIndexedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dims := []string{"a", "b", "c"}
	tuples := intTuples(rng, 3, 600, 24)
	want := batchIndexed(t, dims, tuples)
	for _, foldAt := range []int{-1, 0, 200, 450, 600} {
		inc, err := NewIncremental(dims)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(tuples); i += 50 {
			if i == foldAt {
				if _, err := inc.Runs(); err != nil {
					t.Fatal(err)
				}
			}
			if err := inc.AddBatch(tuples[i : i+50]); err != nil {
				t.Fatal(err)
			}
		}
		if foldAt == len(tuples) {
			if _, err := inc.Runs(); err != nil {
				t.Fatal(err)
			}
		}
		buffered := inc.Buffered()
		got, err := inc.IndexedBytes(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("fold at %d: IndexedBytes wrote %d bytes, the batch build encodes to %d", foldAt, len(got), len(want))
		}
		if inc.Buffered() != buffered {
			t.Errorf("fold at %d: IndexedBytes changed Buffered from %d to %d", foldAt, buffered, inc.Buffered())
		}
	}
	empty, err := NewIncremental(dims)
	if err != nil {
		t.Fatal(err)
	}
	got, err := empty.IndexedBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := batchIndexed(t, dims, nil); !bytes.Equal(got, want) {
		t.Errorf("empty builder: IndexedBytes wrote %d bytes, want %d", len(got), len(want))
	}
}

func TestIncrementalContinuesAfterCube(t *testing.T) {
	inc, err := NewIncremental([]string{"d"})
	if err != nil {
		t.Fatal(err)
	}
	inc.AddBatch([]Tuple{{Dims: []string{"x"}, Measure: 1}, {Dims: []string{"y"}, Measure: 2}})
	c1, err := inc.Runs()
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
	c2, err := inc.Runs()
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
// Runs() ownership rule: a run list handed out earlier must answer
// identically after any number of later Adds and folds, because folds build
// and merge into new runs and a new list, never touching one handed out.
func TestIncrementalCubeStableAcrossFlushes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := []string{"a", "b", "c"}
	inc, err := NewIncremental(dims)
	if err != nil {
		t.Fatal(err)
	}
	type snap struct {
		list        *Runs
		runs, bytes int
		queries     [][]string
		answers     []Aggregate
	}
	var snaps []snap
	tuples := randomTuples(rng, 3, 400, 5)
	for i, tu := range tuples {
		if err := inc.Add(tu); err != nil {
			t.Fatal(err)
		}
		if i%37 == 0 {
			c, err := inc.Runs()
			if err != nil {
				t.Fatal(err)
			}
			s := snap{list: c, runs: len(c.data), bytes: runBytes(c)}
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
	if _, err := inc.Runs(); err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		for q, keys := range s.queries {
			agg, err := s.list.Point(keys...)
			if err != nil {
				t.Fatal(err)
			}
			if !agg.Equal(s.answers[q]) {
				t.Fatalf("snapshot %d mutated by later flushes: query %v was %v, now %v",
					i, keys, s.answers[q], agg)
			}
		}
		if len(s.list.data) != s.runs || runBytes(s.list) != s.bytes {
			t.Errorf("snapshot %d: %d runs of %d bytes became %d of %d", i, s.runs, s.bytes, len(s.list.data), runBytes(s.list))
		}
	}
}

// TestIncrementalConcurrent exercises Add/AddBatch/Runs/IndexedBytes/
// Buffered from many goroutines; run under -race it is the regression test
// for the field races the pre-lock Incremental had (concurrent folds while
// an Add appends to pending).
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
				c, err := inc.Runs()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Point(All, All); err != nil {
					t.Error(err)
					return
				}
				if _, err := inc.IndexedBytes(nil); err != nil {
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
	c, err := inc.Runs()
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

// FuzzIncrementalRuns drives random interleavings of AddBatch, Runs and
// IndexedBytes. After every fold the runs must hold every added tuple,
// each run more than twice the tuples of the next, and answer a full Pivot
// and the grand total exactly like one cube over the added tuples; every
// IndexedBytes must equal a batch BuildIndexed of them. Measures are small
// integers, so merged sums are exact. The first byte picks 1–4 dimensions;
// each later op byte picks the op (mod 3) and an AddBatch's size, and an
// added tuple reads one key byte per dimension plus a signed measure byte.
func FuzzIncrementalRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 'a', 'b', 3, 1, 2})
	f.Add([]byte{2, 12, 'a', 'b', 'c', 1, 'b', 'c', 'd', 255, 'a', 'b', 'c', 7, 1, 0, 'e', 'a', 'b', 2, 1, 2, 0, 'c', 'c', 'c', 4, 1, 2})
	f.Add([]byte{0, 0, 'a', 1, 1, 0, 'b', 2, 1, 0, 'c', 3, 1, 0, 'd', 4, 1, 0, 'e', 5, 1, 2})
	// Eight tuples, then one: the fold keeps two runs.
	f.Add([]byte{0, 30, 'a', 1, 'b', 2, 'c', 3, 'd', 4, 'e', 5, 'a', 6, 'b', 7, 'c', 8, 1, 0, 'd', 9, 1, 2, 0, 'a', 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		ndims := 1
		if len(data) > 0 {
			ndims += int(data[0] % 4)
			data = data[1:]
		}
		dims := dimNames(ndims)
		inc, err := NewIncremental(dims)
		if err != nil {
			t.Fatal(err)
		}
		var added []Tuple
		check := func(op byte) {
			switch op % 3 {
			case 1:
				runs, err := inc.Runs()
				if err != nil {
					t.Fatal(err)
				}
				checkRuns(t, dims, runs, added)
			case 2:
				got, err := inc.IndexedBytes(nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := BuildIndexed(dims, added)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("IndexedBytes over %d tuples: %d bytes, batch BuildIndexed %d", len(added), len(got), len(want))
				}
			}
		}
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			if op%3 != 0 {
				check(op)
				continue
			}
			var batch []Tuple
			for n := 1 + int(op>>2)%8; n > 0 && len(data) >= ndims+1; n-- {
				keys := make([]string, ndims)
				for d := range keys {
					keys[d] = string(rune('a' + data[d]%5))
				}
				batch = append(batch, Tuple{Dims: keys, Measure: float64(int8(data[ndims]))})
				data = data[ndims+1:]
			}
			if err := inc.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			added = append(added, batch...)
		}
		check(1)
		check(2)
	})
}

// checkRuns holds a fold's run list to the Incremental contract over the
// tuples added before it.
func checkRuns(t *testing.T, dims []string, runs *Runs, added []Tuple) {
	t.Helper()
	if runTuples(runs) != len(added) {
		t.Fatalf("runs hold %d tuples, %d were added", runTuples(runs), len(added))
	}
	if len(runs.data) > 0 && len(runs.views) != len(runs.data) || (len(runs.data) > 0) != (len(added) > 0) {
		t.Fatalf("%d runs with %d views over %d tuples", len(runs.data), len(runs.views), len(added))
	}
	for i := 1; i < len(runs.data); i++ {
		if older, newer := runs.views[i-1].NumSourceTuples(), runs.views[i].NumSourceTuples(); older <= 2*newer {
			t.Fatalf("run %d holds %d tuples, not over twice run %d's %d", i-1, older, i, newer)
		}
	}
	ref, err := oracle(dims, added)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]string, len(dims))
	pivot := make([]int, len(dims))
	for d := range all {
		all[d], pivot[d] = All, d
	}
	sels := make([]Selector, len(dims))
	got, err := runs.Point(all...)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := ref.Point(all...); !got.Equal(want) {
		t.Fatalf("runs' total %v, batch cube's %v", got, want)
	}
	rows, err := runs.Pivot(pivot, sels)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Pivot(pivot, sels)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("runs' pivot %v, batch cube's %v", rows, want)
	}
}

// runTuples and runBytes total a run list's source tuples and encoded
// bytes.
func runTuples(r *Runs) int {
	n := 0
	for _, v := range r.views {
		n += v.NumSourceTuples()
	}
	return n
}

func runBytes(r *Runs) int {
	n := 0
	for _, d := range r.data {
		n += len(d)
	}
	return n
}

// TestRunStatsCountCapacity folds 20 tuples at a time and holds RunStats
// (the store's memtable_run_bytes gauge) to what the runs pin: each run's
// buffer capacity, not only the bytes the encoding fills, plus its view's
// heap index. A kept run's buffer is trimmed when over half of it is
// spare, so the doubling slack of the buffer a fold built or merged in
// pins at most half a run's bytes.
func TestRunStatsCountCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dims := dimNames(4)
	inc, err := NewIncremental(dims)
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= 120; b++ {
		if err := inc.AddBatch(intTuples(rng, len(dims), 20, 40)); err != nil {
			t.Fatal(err)
		}
		r, err := inc.Runs()
		if err != nil {
			t.Fatal(err)
		}
		pinned := 0
		for i, d := range r.data {
			pinned += cap(d) + r.views[i].heapBytes()
			if slack := cap(d) - len(d); slack > len(d)/2 {
				t.Fatalf("after %d folds run %d pins %d B of buffer beyond its %d B", b, i, slack, len(d))
			}
		}
		runs, bytes := inc.RunStats()
		if runs != len(r.data) || bytes != pinned {
			t.Fatalf("after %d folds: RunStats = %d runs, %d B; the runs are %d and pin %d B", b, runs, bytes, len(r.data), pinned)
		}
	}
}
