package dwarf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// ablationCases are the option sets every parallel/serial equivalence check
// runs under: full compression, each ablation alone, and both together.
var ablationCases = []struct {
	name string
	opts []Option
}{
	{"full", nil},
	{"no-hash-consing", []Option{WithoutHashConsing()}},
	{"no-suffix-coalescing", []Option{WithoutSuffixCoalescing()}},
	{"no-sharing-at-all", []Option{WithoutSuffixCoalescing(), WithoutHashConsing()}},
}

func dumpString(t *testing.T, c *Cube) string {
	t.Helper()
	var sb strings.Builder
	if err := c.Dump(&sb); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	return sb.String()
}

// checkStructurallyIdentical asserts the full correctness bar of the
// parallel pipeline: same Dump rendering (structure, sharing and ids), same
// node/cell counts, and identical point, range and rollup answers.
func checkStructurallyIdentical(t *testing.T, serial, parallel *Cube, label string) {
	t.Helper()
	ss, ps := serial.Stats(), parallel.Stats()
	if ss != ps {
		t.Fatalf("%s: stats differ: serial=%+v parallel=%+v", label, ss, ps)
	}
	if sd, pd := dumpString(t, serial), dumpString(t, parallel); sd != pd {
		t.Fatalf("%s: Dump differs\n--- serial ---\n%s--- parallel ---\n%s", label, sd, pd)
	}
	if err := parallel.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants: %v", label, err)
	}
}

// TestParallelMatchesSerialPaperExample: the paper's Fig. 2 facts built at
// every worker count match the serial cube exactly.
func TestParallelMatchesSerialPaperExample(t *testing.T) {
	for _, tc := range ablationCases {
		serial := mustCube(t, paperDims, paperTuples(), tc.opts...)
		for workers := 1; workers <= 8; workers++ {
			par, err := NewParallel(paperDims, paperTuples(), workers, tc.opts...)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", tc.name, workers, err)
			}
			checkStructurallyIdentical(t, serial, par, fmt.Sprintf("%s/workers=%d", tc.name, workers))
		}
	}
}

// TestParallelCrossShardSharing: data with identical suffixes under every
// first-dimension key forces the cross-shard re-canonicalization to merge
// sub-dwarfs built by different workers; without it node counts explode.
func TestParallelCrossShardSharing(t *testing.T) {
	var tuples []Tuple
	for s := 0; s < 16; s++ {
		for _, day := range []string{"mon", "tue", "wed"} {
			for _, slot := range []string{"am", "pm"} {
				tuples = append(tuples, Tuple{
					Dims: []string{fmt.Sprintf("s%02d", s), day, slot}, Measure: 1,
				})
			}
		}
	}
	dims := []string{"station", "day", "slot"}
	serial := mustCube(t, dims, tuples)
	for _, workers := range []int{2, 4, 8} {
		par, err := NewParallel(dims, tuples, workers)
		if err != nil {
			t.Fatal(err)
		}
		checkStructurallyIdentical(t, serial, par, fmt.Sprintf("workers=%d", workers))
	}
}

// TestParallelDegenerateLeadingDims: a near-constant leading dimension (the
// bike feed's Year/Month shape) defeats first-dimension sharding; the
// planner must deepen the shard prefix until the data fans out, and the
// result must still match the serial build exactly.
func TestParallelDegenerateLeadingDims(t *testing.T) {
	var tuples []Tuple
	for day := 0; day < 7; day++ {
		for hour := 0; hour < 24; hour++ {
			for st := 0; st < 3; st++ {
				tuples = append(tuples, Tuple{
					Dims: []string{"2016", "01", fmt.Sprintf("%02d", day),
						fmt.Sprintf("%02d", hour), fmt.Sprintf("s%d", st)},
					Measure: float64(day*hour + st),
				})
			}
		}
	}
	dims := []string{"year", "month", "day", "hour", "station"}
	serial := mustCube(t, dims, tuples)
	for _, workers := range []int{2, 4, 8, 16} {
		par, err := NewParallel(dims, tuples, workers)
		if err != nil {
			t.Fatal(err)
		}
		checkStructurallyIdentical(t, serial, par, fmt.Sprintf("workers=%d", workers))
	}
	// The plan really does shard: depth reaches the day level (2 distinct
	// year/month prefixes would not feed 4 workers).
	ats := make([]AggTuple, len(tuples))
	for i, tp := range tuples {
		ats[i] = AggTuple{Dims: tp.Dims, Agg: NewAggregate(tp.Measure)}
	}
	shards, lo := planShards(sortTuples(ats), 4, len(dims))
	if lo != 3 || len(shards) != 4 {
		t.Errorf("plan = %d shards at lo=%d, want 4 shards at lo=3", len(shards), lo)
	}
}

// TestPropertyParallelEqualsSerial: for random facts, every worker count
// from 1 to 8 and every ablation option set, the parallel build's Dump,
// stats and point/range/rollup query answers equal the serial build's.
func TestPropertyParallelEqualsSerial(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ndims := 1 + rng.Intn(4)
		card := 1 + rng.Intn(6)
		tuples := randomTuples(rng, ndims, rng.Intn(120), card)
		dims := dimNames(ndims)
		tc := ablationCases[rng.Intn(len(ablationCases))]
		serial, err := New(dims, tuples, tc.opts...)
		if err != nil {
			t.Logf("New: %v", err)
			return false
		}
		serialDump := dumpString(t, serial)
		for workers := 1; workers <= 8; workers++ {
			par, err := NewParallel(dims, tuples, workers, tc.opts...)
			if err != nil {
				t.Logf("NewParallel(%d): %v", workers, err)
				return false
			}
			if serial.Stats() != par.Stats() {
				t.Logf("seed %d %s workers=%d: stats %+v vs %+v",
					seed, tc.name, workers, serial.Stats(), par.Stats())
				return false
			}
			if pd := dumpString(t, par); pd != serialDump {
				t.Logf("seed %d %s workers=%d: Dump differs", seed, tc.name, workers)
				return false
			}
			// Point queries, including wildcard mixes and missing keys.
			for q := 0; q < 20; q++ {
				keys := randomQuery(rng, ndims, card+1)
				gs, err1 := serial.Point(keys...)
				gp, err2 := par.Point(keys...)
				if err1 != nil || err2 != nil || !gs.Equal(gp) {
					t.Logf("seed %d workers=%d point %v: serial=%v parallel=%v",
						seed, workers, keys, gs, gp)
					return false
				}
			}
			// Range queries.
			for q := 0; q < 8; q++ {
				sels := make([]Selector, ndims)
				for d := range sels {
					switch rng.Intn(3) {
					case 0:
						sels[d] = SelectAll()
					case 1:
						sels[d] = SelectKeys(fmt.Sprintf("k%d", rng.Intn(card+1)))
					default:
						lo := fmt.Sprintf("k%d", rng.Intn(card))
						hi := fmt.Sprintf("k%d", rng.Intn(card))
						if hi < lo {
							lo, hi = hi, lo
						}
						sels[d] = SelectRange(lo, hi)
					}
				}
				gs, err1 := serial.Range(sels)
				gp, err2 := par.Range(sels)
				if err1 != nil || err2 != nil || !gs.Equal(gp) {
					t.Logf("seed %d workers=%d range: serial=%v parallel=%v", seed, workers, gs, gp)
					return false
				}
			}
			// Rollups: group by each dimension over the whole cube.
			all := make([]Selector, ndims)
			for dim := 0; dim < ndims; dim++ {
				gs, err1 := serial.GroupBy(dim, all)
				gp, err2 := par.GroupBy(dim, all)
				if err1 != nil || err2 != nil || len(gs) != len(gp) {
					t.Logf("seed %d workers=%d groupby(%d): size %d vs %d", seed, workers, dim, len(gs), len(gp))
					return false
				}
				for k, v := range gs {
					if !gp[k].Equal(v) {
						t.Logf("seed %d workers=%d groupby(%d)[%q]: %v vs %v", seed, workers, dim, k, v, gp[k])
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPlanShards: shards are contiguous subslices covering the sorted input
// exactly once, cuts never split an lo-prefix run, the worker cap holds,
// and a degenerate plan reports lo = 0 (serial).
func TestPlanShards(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ndims := 1 + rng.Intn(4)
		tuples := randomTuples(rng, ndims, rng.Intn(200), 1+rng.Intn(8))
		ats := make([]AggTuple, len(tuples))
		for i, tp := range tuples {
			ats[i] = AggTuple{Dims: tp.Dims, Agg: NewAggregate(tp.Measure)}
		}
		sorted := sortTuples(ats)
		workers := 1 + rng.Intn(10)
		shards, lo := planShards(sorted, workers, ndims)
		if len(shards) > workers {
			t.Logf("seed %d: %d shards > %d workers", seed, len(shards), workers)
			return false
		}
		if lo < 0 || lo >= ndims {
			t.Logf("seed %d: lo %d out of range for %d dims", seed, lo, ndims)
			return false
		}
		if lo == 0 && len(shards) != 1 {
			t.Logf("seed %d: serial plan with %d shards", seed, len(shards))
			return false
		}
		// Shards tile the sorted input in order.
		total := 0
		for si, sh := range shards {
			if len(shards) > 1 && len(sh) == 0 {
				t.Logf("seed %d: empty shard %d of %d", seed, si, len(shards))
				return false
			}
			for j := range sh {
				want := &sorted[total+j]
				if &sh[j] != want {
					t.Logf("seed %d: shard %d is not a contiguous subslice", seed, si)
					return false
				}
			}
			total += len(sh)
		}
		if total != len(sorted) {
			t.Logf("seed %d: shards cover %d of %d tuples", seed, total, len(sorted))
			return false
		}
		// No cut splits an lo-prefix run.
		if lo > 0 {
			idx := 0
			for si := 0; si < len(shards)-1; si++ {
				idx += len(shards[si])
				if commonPrefix(sorted[idx-1].Dims, sorted[idx].Dims) >= lo {
					t.Logf("seed %d: cut after %d splits an lo=%d run", seed, idx-1, lo)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSortTuplesParallel: the parallel merge sort is element-for-element
// identical to the serial stable sort, including the relative order of
// duplicate keys (each input tuple carries a unique aggregate marker, so a
// stability violation flips an element).
func TestSortTuplesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 100, 5000, 20000} {
		ats := make([]AggTuple, n)
		for i := range ats {
			ats[i] = AggTuple{
				Dims: []string{fmt.Sprintf("k%d", rng.Intn(5)), fmt.Sprintf("k%d", rng.Intn(3))},
				Agg:  NewAggregate(float64(i)), // unique marker: exposes instability
			}
		}
		want := sortTuples(ats)
		for _, workers := range []int{2, 3, 4, 8} {
			got := sortTuplesParallel(ats, workers)
			if len(got) != len(want) {
				t.Fatalf("n=%d workers=%d: length %d, want %d", n, workers, len(got), len(want))
			}
			for i := range want {
				if !sameDims(got[i].Dims, want[i].Dims) || !got[i].Agg.Equal(want[i].Agg) {
					t.Fatalf("n=%d workers=%d: order diverges at %d: %v vs %v",
						n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func sameDims(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelLargeBuild: a build big enough to engage the parallel sort
// (chunks over 1024 tuples) still matches the serial cube exactly.
func TestParallelLargeBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tuples := randomTuples(rng, 4, 12000, 9)
	dims := dimNames(4)
	serial := mustCube(t, dims, tuples)
	for _, workers := range []int{2, 4, 8} {
		par, err := NewParallel(dims, tuples, workers)
		if err != nil {
			t.Fatal(err)
		}
		checkStructurallyIdentical(t, serial, par, fmt.Sprintf("workers=%d", workers))
	}
}

// TestParallelWorkerDefaults: workers <= 0 falls back to NumCPU and still
// matches serial; a worker count far above the key cardinality collapses
// gracefully.
func TestParallelWorkerDefaults(t *testing.T) {
	serial := mustCube(t, paperDims, paperTuples())
	zero, err := NewParallel(paperDims, paperTuples(), 0)
	if err != nil {
		t.Fatal(err)
	}
	checkStructurallyIdentical(t, serial, zero, "workers=0")
	many, err := NewParallel(paperDims, paperTuples(), 64)
	if err != nil {
		t.Fatal(err)
	}
	checkStructurallyIdentical(t, serial, many, "workers=64")

	// Empty input.
	emptySerial := mustCube(t, paperDims, nil)
	emptyPar, err := NewParallel(paperDims, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkStructurallyIdentical(t, emptySerial, emptyPar, "empty")
}
