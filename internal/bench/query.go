package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dwarf"
	"repro/internal/mapper"
)

// The on-store query experiment measures what the paper anticipates but
// does not report: "we anticipate the absence of a DWARF Node construct
// will have a significant impact on query times as DWARF Node
// reconstruction is required" (§5.1). Each schema model answers the same
// battery of point/ALL queries directly against its stored rows.

// QueryResult is one schema model's on-store query cost.
type QueryResult struct {
	Kind        mapper.Kind   `json:"kind"`
	Preset      string        `json:"preset"`
	Queries     int           `json:"queries"`
	Total       time.Duration `json:"total_ns"`
	PerQuery    time.Duration `json:"per_query_ns"`
	LoadTime    time.Duration `json:"load_ns"`          // full rebuild, for comparison
	MemPerQuery time.Duration `json:"mem_per_query_ns"` // same battery against the loaded cube
}

// RunQueryExperiment saves the preset's cube in every schema model and
// times the same query battery against each store.
func RunQueryExperiment(kinds []mapper.Kind, preset string, queries int, baseDir string) ([]QueryResult, error) {
	if baseDir == "" {
		dir, err := os.MkdirTemp("", "dwarfquery-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		baseDir = dir
	}
	cube, err := DatasetCube(preset)
	if err != nil {
		return nil, err
	}
	// A deterministic battery: base tuples with rotating wildcard masks.
	var battery [][]string
	cube.Tuples(func(keys []string, _ dwarf.Aggregate) bool {
		q := append([]string(nil), keys...)
		switch len(battery) % 4 {
		case 1:
			q[len(q)-1] = dwarf.All
		case 2:
			q[len(q)-1], q[len(q)-2] = dwarf.All, dwarf.All
		case 3:
			q[0] = dwarf.All
		}
		battery = append(battery, q)
		return len(battery) < queries
	})

	var out []QueryResult
	for _, kind := range kinds {
		dir := filepath.Join(baseDir, "q-"+sanitize(string(kind)))
		st, err := mapper.OpenStore(kind, dir, mapper.Options{}, mapper.EngineOptions{})
		if err != nil {
			return nil, err
		}
		id, err := st.Save(cube)
		if err != nil {
			st.Close()
			return nil, err
		}
		pq, ok := st.(mapper.PointQuerier)
		if !ok {
			st.Close()
			return nil, fmt.Errorf("bench: %s cannot query on store", kind)
		}
		// Warm + verify one query.
		want, _ := cube.Point(battery[0]...)
		got, err := pq.PointOnStore(id, battery[0]...)
		if err != nil {
			st.Close()
			return nil, err
		}
		if !got.Equal(want) {
			st.Close()
			return nil, fmt.Errorf("bench: %s on-store answer mismatch", kind)
		}

		start := time.Now()
		for _, q := range battery {
			if _, err := pq.PointOnStore(id, q...); err != nil {
				st.Close()
				return nil, err
			}
		}
		total := time.Since(start)

		start = time.Now()
		loaded, err := st.Load(id)
		if err != nil {
			st.Close()
			return nil, err
		}
		loadTime := time.Since(start)
		start = time.Now()
		for _, q := range battery {
			if _, err := loaded.Point(q...); err != nil {
				st.Close()
				return nil, err
			}
		}
		memTotal := time.Since(start)

		out = append(out, QueryResult{
			Kind: kind, Preset: preset, Queries: len(battery),
			Total: total, PerQuery: total / time.Duration(len(battery)),
			LoadTime:    loadTime,
			MemPerQuery: memTotal / time.Duration(len(battery)),
		})
		st.Close()
		os.RemoveAll(dir)
	}
	return out, nil
}

// FormatQuery renders the on-store query comparison.
func FormatQuery(results []QueryResult) *Table {
	t := NewTable("On-store point queries (§5.1's anticipated query-time impact)",
		"Schema model", "Dataset", "Queries", "On-store µs/q", "Full load ms", "In-memory µs/q")
	for _, r := range results {
		t.AddRow(string(r.Kind), r.Preset,
			fmt.Sprintf("%d", r.Queries),
			fmt.Sprintf("%.1f", float64(r.PerQuery.Nanoseconds())/1000),
			FormatMs(r.LoadTime),
			fmt.Sprintf("%.2f", float64(r.MemPerQuery.Nanoseconds())/1000))
	}
	return t
}
