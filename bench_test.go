package repro

// The benchmark harness: one bench per published table/figure plus the
// ablations DESIGN.md calls out. Benchmarks default to the paper's smaller
// datasets (Day/Week) so `go test -bench .` completes in minutes;
// cmd/dwarfbench runs the full Table 4/5 sweep including TMonth/SMonth.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/dwarf"
	"repro/internal/flatfile"
	"repro/internal/mapper"
	"repro/internal/nosql"
	"repro/internal/smartcity"
)

// benchPresets are the dataset scales exercised by `go test -bench`.
var benchPresets = []string{"Day", "Week"}

// BenchmarkTable2Datasets regenerates Table 2: dataset generation, XML
// emission size and cube construction for each preset.
func BenchmarkTable2Datasets(b *testing.B) {
	b.ReportAllocs()
	for _, preset := range benchPresets {
		b.Run(preset, func(b *testing.B) {
			b.ReportAllocs()
			p, err := smartcity.PresetByName(preset)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				recs, err := smartcity.DatasetRecords(preset)
				if err != nil {
					b.Fatal(err)
				}
				tuples := make([]dwarf.Tuple, len(recs))
				for j, r := range recs {
					tuples[j] = r.Tuple()
				}
				cube, err := dwarf.New(smartcity.BikeDims, tuples)
				if err != nil {
					b.Fatal(err)
				}
				if cube.NumSourceTuples() != p.Tuples {
					b.Fatalf("tuple count %d != Table 2's %d", cube.NumSourceTuples(), p.Tuples)
				}
			}
			b.ReportMetric(float64(p.Tuples), "tuples")
		})
	}
}

// benchSave measures one store kind saving one preset's cube; the stored
// size is attached as a metric, so this single harness regenerates both the
// Table 4 row (size) and the Table 5 row (time).
func benchSave(b *testing.B, kind mapper.Kind, preset string) {
	cube, err := bench.DatasetCube(preset)
	if err != nil {
		b.Fatal(err)
	}
	var lastBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), fmt.Sprintf("s%d", i))
		st, err := mapper.OpenStore(kind, dir, mapper.Options{}, mapper.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := st.Save(cube); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if lastBytes, err = st.StoredBytes(); err != nil {
			b.Fatal(err)
		}
		st.Close()
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.ReportMetric(float64(lastBytes)/(1<<20), "MB-stored")
}

// BenchmarkTable4StorageSize regenerates Table 4 (stored MB is the
// "MB-stored" metric of each sub-benchmark).
func BenchmarkTable4StorageSize(b *testing.B) {
	b.ReportAllocs()
	for _, kind := range mapper.AllKinds() {
		for _, preset := range benchPresets {
			b.Run(fmt.Sprintf("%s/%s", kind, preset), func(b *testing.B) {
				b.ReportAllocs()
				benchSave(b, kind, preset)
			})
		}
	}
}

// BenchmarkTable5InsertTime regenerates Table 5 (ns/op is the bulk-insert
// time).
func BenchmarkTable5InsertTime(b *testing.B) {
	b.ReportAllocs()
	for _, kind := range mapper.AllKinds() {
		for _, preset := range benchPresets {
			b.Run(fmt.Sprintf("%s/%s", kind, preset), func(b *testing.B) {
				b.ReportAllocs()
				benchSave(b, kind, preset)
			})
		}
	}
}

// BenchmarkBaoComparison regenerates the §5.1 flat-file baseline: writing
// the cube in both Bao-et-al. clusterings, size as a metric.
func BenchmarkBaoComparison(b *testing.B) {
	b.ReportAllocs()
	for _, layout := range []flatfile.Layout{flatfile.Hierarchical, flatfile.Recursive} {
		for _, preset := range benchPresets {
			b.Run(fmt.Sprintf("%s/%s", layout, preset), func(b *testing.B) {
				b.ReportAllocs()
				cube, err := bench.DatasetCube(preset)
				if err != nil {
					b.Fatal(err)
				}
				var size int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					path := filepath.Join(b.TempDir(), "cube.dwf")
					if size, err = flatfile.Write(path, cube, layout); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					os.Remove(path)
					b.StartTimer()
				}
				b.ReportMetric(float64(size)/(1<<20), "MB-stored")
			})
		}
	}
}

// BenchmarkCubeConstruction isolates DWARF build cost per dataset scale.
// Each preset's own row is New, the node graph decoded from the stream
// build, and indexed is the stream build alone (BuildIndexed), what a
// seal or a rollup rebuild runs.
func BenchmarkCubeConstruction(b *testing.B) {
	b.ReportAllocs()
	for _, preset := range benchPresets {
		tuples, err := bench.DatasetTuples(preset)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(preset, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dwarf.New(smartcity.BikeDims, tuples); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tuples)), "tuples")
		})
		b.Run(preset+"/indexed", func(b *testing.B) {
			b.ReportAllocs()
			var out []byte
			for i := 0; i < b.N; i++ {
				if out, err = dwarf.BuildIndexed(smartcity.BikeDims, tuples); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(out)), "bytes")
		})
	}
}

// BenchmarkPointQuery measures in-memory point and wildcard lookups.
func BenchmarkPointQuery(b *testing.B) {
	b.ReportAllocs()
	cube, err := bench.DatasetCube("Week")
	if err != nil {
		b.Fatal(err)
	}
	var probes [][]string
	cube.Tuples(func(keys []string, _ dwarf.Aggregate) bool {
		probes = append(probes, append([]string(nil), keys...))
		return len(probes) < 512
	})
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cube.Point(probes[i%len(probes)]...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wildcard-suffix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := append([]string(nil), probes[i%len(probes)]...)
			q[6], q[7] = dwarf.All, dwarf.All
			if _, err := cube.Point(q...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("all-dims", func(b *testing.B) {
		b.ReportAllocs()
		q := []string{dwarf.All, dwarf.All, dwarf.All, dwarf.All, dwarf.All, dwarf.All, dwarf.All, dwarf.All}
		for i := 0; i < b.N; i++ {
			if _, err := cube.Point(q...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRangeAndGroupBy measures the richer query primitives.
func BenchmarkRangeAndGroupBy(b *testing.B) {
	b.ReportAllocs()
	cube, err := bench.DatasetCube("Week")
	if err != nil {
		b.Fatal(err)
	}
	sels := []dwarf.Selector{
		dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectRange("01", "15"),
		dwarf.SelectRange("07", "09"), dwarf.SelectAll(),
		dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectKeys("open"),
	}
	b.Run("range", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cube.Range(sels); err != nil {
				b.Fatal(err)
			}
		}
	})
	all := []dwarf.Selector{
		dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectAll(),
		dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectAll(), dwarf.SelectAll(),
	}
	b.Run("groupby-area", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cube.GroupBy(5, all); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalMerge measures the §7 maintenance primitive the way
// the store runs it: build one fresh day straight to bytes, then merge it
// with the standing week's view.
func BenchmarkIncrementalMerge(b *testing.B) {
	b.ReportAllocs()
	weekTuples, err := bench.DatasetTuples("Week")
	if err != nil {
		b.Fatal(err)
	}
	weekData, err := dwarf.BuildIndexed(smartcity.BikeDims, weekTuples)
	if err != nil {
		b.Fatal(err)
	}
	week, err := dwarf.OpenViewTrusted(weekData)
	if err != nil {
		b.Fatal(err)
	}
	day := smartcity.NewBikeFeed(smartcity.BikeConfig{Seed: 77}).Take(7358)
	tuples := make([]dwarf.Tuple, len(day))
	for i, r := range day {
		tuples[i] = r.Tuple()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := dwarf.BuildIndexed(smartcity.BikeDims, tuples)
		if err != nil {
			b.Fatal(err)
		}
		v, err := dwarf.OpenViewTrusted(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := dwarf.MergeViewsBytes(week, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSuffixCoalescing quantifies DWARF's compression: node
// counts with full coalescing, hash-consing off, and no sharing at all.
// When all three run it fails unless each switch the stream builder
// applies costs nodes: full coalescing < no hash-consing <= no sharing.
func BenchmarkAblationSuffixCoalescing(b *testing.B) {
	b.ReportAllocs()
	tuples, err := bench.DatasetTuples("Day")
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		opts []dwarf.Option
	}{
		{"full-coalescing", nil},
		{"no-hash-consing", []dwarf.Option{dwarf.WithoutHashConsing()}},
		{"no-sharing", []dwarf.Option{dwarf.WithoutSuffixCoalescing()}},
	}
	nodes := make(map[string]int, len(cases))
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cube, err := dwarf.New(smartcity.BikeDims, tuples, tc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				nodes[tc.name] = cube.Stats().Nodes
			}
			b.ReportMetric(float64(nodes[tc.name]), "nodes")
		})
	}
	full, noHash, none := nodes["full-coalescing"], nodes["no-hash-consing"], nodes["no-sharing"]
	if len(nodes) == len(cases) && !(full < noHash && noHash <= none) {
		b.Fatalf("nodes: %d full coalescing, %d no hash-consing, %d no sharing; want full < no hash-consing <= no sharing",
			full, noHash, none)
	}
}

// BenchmarkAblationBatchSize sweeps the bulk-insert batch size on the
// NoSQL-DWARF store (the paper inserts "in bulk"; this shows why).
func BenchmarkAblationBatchSize(b *testing.B) {
	b.ReportAllocs()
	cube, err := bench.DatasetCube("Day")
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{1, 10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(b.TempDir(), fmt.Sprintf("b%d", i))
				st, err := mapper.NewNoSQLDwarf(dir, mapper.Options{BatchSize: size}, nosql.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := st.Save(cube); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				st.Close()
				os.RemoveAll(dir)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAblationIndexSerialization isolates the modelled Cassandra
// behaviour behind Table 5's NoSQL-Min row: per-row write-path
// serialization for indexed batches vs. plain group commit.
func BenchmarkAblationIndexSerialization(b *testing.B) {
	b.ReportAllocs()
	cube, err := bench.DatasetCube("Day")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts nosql.Options
	}{
		{"serialized-per-row", nosql.Options{}},
		{"group-commit", nosql.Options{GroupCommitIndexedBatches: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(b.TempDir(), fmt.Sprintf("i%d", i))
				st, err := mapper.NewNoSQLMin(dir, mapper.Options{}, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := st.Save(cube); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				st.Close()
				os.RemoveAll(dir)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAblationDimensions sweeps cube dimensionality at a fixed fact
// count, isolating how dimension count drives DWARF size.
func BenchmarkAblationDimensions(b *testing.B) {
	b.ReportAllocs()
	feed := smartcity.NewBikeFeed(smartcity.BikeConfig{Seed: 9})
	recs := feed.Take(7358)
	for _, nd := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("dims-%d", nd), func(b *testing.B) {
			b.ReportAllocs()
			dims := smartcity.BikeDims[8-nd:]
			tuples := make([]dwarf.Tuple, len(recs))
			for i, r := range recs {
				full := r.Tuple()
				tuples[i] = dwarf.Tuple{Dims: full.Dims[8-nd:], Measure: full.Measure}
			}
			var cells int
			for i := 0; i < b.N; i++ {
				cube, err := dwarf.New(dims, tuples)
				if err != nil {
					b.Fatal(err)
				}
				cells = cube.Stats().TotalCells()
			}
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

// BenchmarkStoreLoad measures the bi-directional mapper's read side.
func BenchmarkStoreLoad(b *testing.B) {
	b.ReportAllocs()
	for _, kind := range mapper.AllKinds() {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			cube, err := bench.DatasetCube("Day")
			if err != nil {
				b.Fatal(err)
			}
			dir := b.TempDir()
			st, err := mapper.OpenStore(kind, dir, mapper.Options{}, mapper.EngineOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			id, err := st.Save(cube)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Load(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOnStoreQuery measures point queries walked directly against the
// stored rows of each schema model (§5.1's anticipated query-time impact of
// dropping the node construct, plus §7's query primitives).
func BenchmarkOnStoreQuery(b *testing.B) {
	b.ReportAllocs()
	for _, kind := range mapper.AllKinds() {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			cube, err := bench.DatasetCube("Day")
			if err != nil {
				b.Fatal(err)
			}
			st, err := mapper.OpenStore(kind, b.TempDir(), mapper.Options{}, mapper.EngineOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			id, err := st.Save(cube)
			if err != nil {
				b.Fatal(err)
			}
			pq := st.(mapper.PointQuerier)
			var probes [][]string
			cube.Tuples(func(keys []string, _ dwarf.Aggregate) bool {
				probes = append(probes, append([]string(nil), keys...))
				return len(probes) < 128
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pq.PointOnStore(id, probes[i%len(probes)]...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlatFilePointQuery measures on-disk point queries against both
// Bao-et-al. layouts (their point-vs-range design goal).
func BenchmarkFlatFilePointQuery(b *testing.B) {
	b.ReportAllocs()
	cube, err := bench.DatasetCube("Day")
	if err != nil {
		b.Fatal(err)
	}
	var probes [][]string
	cube.Tuples(func(keys []string, _ dwarf.Aggregate) bool {
		probes = append(probes, append([]string(nil), keys...))
		return len(probes) < 256
	})
	for _, layout := range []flatfile.Layout{flatfile.Hierarchical, flatfile.Recursive} {
		b.Run(layout.String(), func(b *testing.B) {
			b.ReportAllocs()
			path := filepath.Join(b.TempDir(), "cube.dwf")
			if _, err := flatfile.Write(path, cube, layout); err != nil {
				b.Fatal(err)
			}
			f, err := flatfile.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Point(probes[i%len(probes)]...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeOpen measures making a cube servable: full Decode vs the
// zero-copy OpenView paths (the dwarfd cold-start cost).
func BenchmarkServeOpen(b *testing.B) {
	b.ReportAllocs()
	cube, err := bench.DatasetCube("Week")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.EncodeIndexed(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dwarf.DecodeBytes(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dwarf.OpenView(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("view-trusted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dwarf.OpenViewTrusted(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServePointQuery mirrors BenchmarkPointQuery against the
// zero-copy view instead of the decoded cube.
func BenchmarkServePointQuery(b *testing.B) {
	b.ReportAllocs()
	cube, err := bench.DatasetCube("Week")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.EncodeIndexed(&buf); err != nil {
		b.Fatal(err)
	}
	view, err := dwarf.OpenView(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	var probes [][]string
	cube.Tuples(func(keys []string, _ dwarf.Aggregate) bool {
		probes = append(probes, append([]string(nil), keys...))
		return len(probes) < 512
	})
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := view.Point(probes[i%len(probes)]...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("all-dims", func(b *testing.B) {
		b.ReportAllocs()
		q := []string{dwarf.All, dwarf.All, dwarf.All, dwarf.All, dwarf.All, dwarf.All, dwarf.All, dwarf.All}
		for i := 0; i < b.N; i++ {
			if _, err := view.Point(q...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompactSegments measures the store's steady-state maintenance
// path: merging k sealed segments into one with the streaming zero-copy
// k-way MergeViews, which never materializes a node graph.
func BenchmarkCompactSegments(b *testing.B) {
	b.ReportAllocs()
	tuples, err := bench.DatasetTuples("Day")
	if err != nil {
		b.Fatal(err)
	}
	const parts = 4
	segments := make([][]byte, parts)
	for i := 0; i < parts; i++ {
		lo, hi := i*len(tuples)/parts, (i+1)*len(tuples)/parts
		if segments[i], err = dwarf.BuildIndexed(smartcity.BikeDims, tuples[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("streaming-kway", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			views := make([]*dwarf.CubeView, parts)
			for j, seg := range segments {
				v, err := dwarf.OpenViewTrusted(seg)
				if err != nil {
					b.Fatal(err)
				}
				views[j] = v
			}
			if _, _, err := dwarf.MergeViewsBytes(views...); err != nil {
				b.Fatal(err)
			}
		}
	})
}
