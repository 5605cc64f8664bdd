package cluster

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/cubestore"
	"repro/internal/dwarf"
	"repro/internal/serve"
	"repro/internal/smartcity"
)

// Dimension indexes of the bike cube (smartcity.BikeDims).
const (
	benchDimMonth   = 1
	benchDimDay     = 2
	benchDimArea    = 5
	benchDimStation = 6
)

// benchCluster serves the Week over 3 httptest nodes, partitioned with
// NodeFor exactly as Coordinator.Append would route it, each node one
// sealed segment with no result cache, and returns a coordinator over them
// plus the Week tuples. Every op therefore pays the full coordinator hop
// and the nodes' kernel walk, nothing cached.
func benchCluster(b *testing.B) (*Coordinator, []dwarf.Tuple) {
	b.Helper()
	week, err := smartcity.Dataset("Week")
	if err != nil {
		b.Fatal(err)
	}
	const k = 3
	parts := make([][]dwarf.Tuple, k)
	for _, t := range week {
		i := NodeFor(t.Dims, k)
		parts[i] = append(parts[i], t)
	}
	urls := make([]string, k)
	for i, part := range parts {
		st, err := cubestore.Open(b.TempDir(), cubestore.Options{Dims: smartcity.BikeDims})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Append(part); err != nil {
			b.Fatal(err)
		}
		if err := st.Seal(); err != nil {
			b.Fatal(err)
		}
		srv, err := serve.New(serve.Options{Store: st, ClusterNode: true})
		if err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		b.Cleanup(func() {
			hs.Close()
			st.Close()
		})
		urls[i] = hs.URL
	}
	coord, err := New(Options{Nodes: urls, Dims: smartcity.BikeDims})
	if err != nil {
		b.Fatal(err)
	}
	return coord, week
}

// benchSels binds the given dimensions and leaves the rest ALL.
func benchSels(kv map[int]string) []dwarf.Selector {
	sels := make([]dwarf.Selector, len(smartcity.BikeDims))
	for d, key := range kv {
		sels[d] = dwarf.SelectKeys(key)
	}
	return sels
}

// BenchmarkCoordinatorGroupBy groups Station within one (Area, Day) pair,
// cycling over 12 Areas × Days 01-08 of June: a 3-node scatter whose
// partials are per-node group maps.
func BenchmarkCoordinatorGroupBy(b *testing.B) {
	coord, _ := benchCluster(b)
	var qs [][]dwarf.Selector
	for d := 1; d <= 8; d++ {
		for a := 0; a < 12; a++ {
			qs = append(qs, benchSels(map[int]string{
				benchDimMonth: "06", benchDimDay: fmt.Sprintf("%02d", d), benchDimArea: fmt.Sprintf("area-%02d", a),
			}))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, err := coord.GroupBy(benchDimStation, qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		if len(groups) == 0 {
			b.Fatal("empty group map")
		}
	}
}

// BenchmarkCoordinatorRange aggregates one June day: a 3-node scatter of
// single aggregates.
func BenchmarkCoordinatorRange(b *testing.B) {
	coord, _ := benchCluster(b)
	var qs [][]dwarf.Selector
	for d := 1; d <= 7; d++ {
		qs = append(qs, benchSels(map[int]string{benchDimMonth: "06", benchDimDay: fmt.Sprintf("%02d", d)}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := coord.Range(qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		if agg.Count == 0 {
			b.Fatal("empty range")
		}
	}
}

// BenchmarkCoordinatorPoint asks for fully bound Week cells, each routed
// to its one owning node.
func BenchmarkCoordinatorPoint(b *testing.B) {
	coord, week := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg, err := coord.Point(week[(i*7919)%len(week)].Dims...)
		if err != nil {
			b.Fatal(err)
		}
		if agg.Count == 0 {
			b.Fatal("empty point")
		}
	}
}
