package dwarf_test

import (
	"testing"

	"repro/internal/dwarf"
	"repro/internal/smartcity"
)

// BenchmarkMemtableFold times what the first read after a feed batch pays
// in a memtable that readers keep folded: one 20-tuple AddBatch plus the
// fold (Incremental.Runs), with 16,384 bike-feed tuples already folded 20
// at a time. The next 16,384 feed tuples arrive as the timed batches; past
// them the memtable is rebuilt with the timer stopped, so every op sees
// 16–32k folded tuples and the average includes the run merges' amortized
// cost, not just the tail's build.
func BenchmarkMemtableFold(b *testing.B) {
	const batch, folded = 20, 16384
	recs := smartcity.NewBikeFeed(smartcity.BikeConfig{Seed: 7}).Take(2 * folded)
	tuples := make([]dwarf.Tuple, len(recs))
	for i, r := range recs {
		tuples[i] = r.Tuple()
	}
	fold := func(inc *dwarf.Incremental, ts []dwarf.Tuple) {
		if err := inc.AddBatch(ts); err != nil {
			b.Fatal(err)
		}
		if _, err := inc.Runs(); err != nil {
			b.Fatal(err)
		}
	}
	fresh := func() *dwarf.Incremental {
		inc, err := dwarf.NewIncremental(smartcity.BikeDims)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < folded; i += batch {
			fold(inc, tuples[i:min(i+batch, folded)])
		}
		return inc
	}
	b.ReportAllocs()
	b.StopTimer()
	inc, next := fresh(), folded
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		if next+batch > len(tuples) {
			b.StopTimer()
			inc, next = fresh(), folded
			b.StartTimer()
		}
		fold(inc, tuples[next:next+batch])
		next += batch
	}
}

// BenchmarkSealBuild times what a store's sealer pays per seal: one
// BuildIndexed of a full memtable, 16,384 bike-feed tuples (the store's
// DefaultSealTuples), in a Scratch reused from seal to seal as one drain
// of the frozen queue reuses it. Its bytes and allocs per op are the
// garbage each seal leaves behind.
func BenchmarkSealBuild(b *testing.B) {
	const sealTuples = 16384
	recs := smartcity.NewBikeFeed(smartcity.BikeConfig{Seed: 7}).Take(sealTuples)
	tuples := make([]dwarf.Tuple, len(recs))
	for i, r := range recs {
		tuples[i] = r.Tuple()
	}
	var sc dwarf.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.BuildIndexed(smartcity.BikeDims, tuples); err != nil {
			b.Fatal(err)
		}
	}
}
