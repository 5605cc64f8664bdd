package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cubestore"
	"repro/internal/dwarf"
	cubequery "repro/internal/query"
	"repro/internal/smartcity"
)

// Sizes of the generated input (Table 2's Week and TMonth presets).
const (
	weekTuples   = 60102  // June 1-9: the restart state every workload opens
	tmonthTuples = 396756 // the ingest workload appends TMonth[weekTuples:]
	liveCube     = "live"
	cacheBytes   = 64 << 20 // dwarfd's -cache-bytes default
)

// Dimension indexes of the bike cube.
const (
	dimMonth   = 1
	dimDay     = 2
	dimArea    = 5
	dimStation = 6
	dimStatus  = 7
)

// querier is the query surface shared by cubes, stores and the cluster.
type querier = cubequery.Querier

var (
	dims    = smartcity.BikeDims
	rollups = [][]string{{"Area", "Station"}, {"Area", "Status"}}
)

func dimName(i int) string { return dims[i] }

// generate returns the first n tuples of the seeded bike feed. Every input
// of every workload is a prefix of this one stream.
func generate(seed int64, n int) []dwarf.Tuple {
	f := smartcity.NewBikeFeed(smartcity.BikeConfig{Seed: seed})
	out := make([]dwarf.Tuple, n)
	for i := range out {
		out[i] = f.Next().Tuple()
	}
	return out
}

// ---- store set-up ----

// bulkLoad writes tuples into a new store at dir as one sealed segment per
// calendar day, builds the configured rollups, and closes the store. Each
// day is one durable Append, so a day costs one WAL fsync plus its seal's.
// The load-time store never compacts, so each day stays its own segment.
func bulkLoad(dir string, tuples []dwarf.Tuple, withRollups bool) error {
	opts := cubestore.Options{Dims: dims, DisableAutoCompact: true, CompactFanout: 1 << 10}
	if withRollups {
		opts.Rollups = rollups
	}
	st, err := cubestore.Open(dir, opts)
	if err != nil {
		return err
	}
	for start := 0; start < len(tuples); {
		end := start
		for end < len(tuples) && tuples[end].Dims[dimDay] == tuples[start].Dims[dimDay] &&
			tuples[end].Dims[dimMonth] == tuples[start].Dims[dimMonth] {
			end++
		}
		if err := st.Append(tuples[start:end]); err != nil {
			st.Close()
			return err
		}
		if err := st.Seal(); err != nil {
			st.Close()
			return err
		}
		start = end
	}
	if withRollups {
		if _, err := st.Compact(); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// servingOpts are dwarfd's live-store defaults plus the two rollups.
func servingOpts() cubestore.Options {
	return cubestore.Options{SealAge: time.Minute, CacheBytes: cacheBytes, Rollups: rollups}
}

// ---- queries ----

type shape int

const (
	shapePoint shape = iota
	shapeRange
	shapeGroupBy
	shapeTopK
	numShapes
)

var shapeNames = [numShapes]string{"point", "range", "groupby", "topk"}

// query is one query template of a workload's mix.
type query struct {
	shape shape
	keys  []string         // point
	sels  []dwarf.Selector // range, groupby, topk (one per dimension)
	dim   int              // groupby, topk
	spec  dwarf.TopKSpec
	by    string
	// fixed: the feed cannot change the answer while the run is live, so
	// every response is checked against the reference.
	fixed bool
}

func (q *query) String() string {
	switch q.shape {
	case shapePoint:
		return "point " + strings.Join(q.keys, ",")
	}
	var sel []string
	for i, s := range q.sels {
		if len(s.Keys) > 0 {
			sel = append(sel, dims[i]+"="+strings.Join(s.Keys, "|"))
		}
	}
	s := shapeNames[q.shape] + " [" + strings.Join(sel, " ") + "]"
	if q.shape != shapeRange {
		s += " by " + dims[q.dim]
	}
	if q.shape == shapeTopK {
		s += fmt.Sprintf(" k=%d %s", q.spec.K, q.by)
	}
	return s
}

// answer is a query's result in comparable form.
type answer struct {
	agg    dwarf.Aggregate
	groups map[string]dwarf.Aggregate
	top    []dwarf.GroupEntry
}

// run answers q on any of the repository's query surfaces: a reference
// cube, a store or the cluster coordinator.
func (q *query) run(src querier) (answer, error) {
	var a answer
	var err error
	switch q.shape {
	case shapePoint:
		a.agg, err = src.Point(q.keys...)
	case shapeRange:
		a.agg, err = src.Range(q.sels)
	case shapeGroupBy:
		a.groups, err = src.GroupBy(q.dim, q.sels)
	default:
		a.top, err = src.TopK(q.dim, q.sels, q.spec)
	}
	return a, err
}

func (q *query) check(got, want answer) error {
	switch q.shape {
	case shapePoint, shapeRange:
		if !got.agg.Equal(want.agg) {
			return fmt.Errorf("%s: got %v, want %v", q, got.agg, want.agg)
		}
		return nil
	case shapeGroupBy:
		return sameGroups(q, got.groups, want.groups)
	}
	return sameEntries(q, got.top, want.top)
}

func sels(kv map[int]string) []dwarf.Selector {
	out := make([]dwarf.Selector, len(dims))
	for d, k := range kv {
		out[d] = dwarf.SelectKeys(k)
	}
	return out
}

func topK(kv map[int]string, k int, by string) *query {
	m, _ := dwarf.ParseMetric(by)
	return &query{shape: shapeTopK, sels: sels(kv), dim: dimStation, spec: dwarf.TopKSpec{K: k, By: m}, by: by}
}

const areas = 12

func area(a int) string { return fmt.Sprintf("area-%02d", a) }
func day(d int) string  { return fmt.Sprintf("%02d", d) }

// mix is a workload's query templates and the seeded order it sends them
// in: 60 % fully bound points on Week keys, 20 % one-day ranges (Month 06,
// Days 01-07), 15 % groupby Station, 5 % topk Station.
type mix struct {
	queries []*query
	byShape [numShapes][]int
	want    []answer // reference answers, filled by answerAll
	seq     []int32
}

// newMix builds the templates. The dashboard set groups within one Area
// (answered by the {Area,Station} rollup, ~30 grouped queries); the
// cluster set groups within one (Area, Day) pair for Days 01-08, whose
// answers the feed cannot change (192 grouped queries).
func newMix(seed int64, week []dwarf.Tuple, clustered bool) *mix {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	m := &mix{}
	add := func(q *query) {
		m.byShape[q.shape] = append(m.byShape[q.shape], len(m.queries))
		m.queries = append(m.queries, q)
	}
	for i := 0; i < 4096; i++ {
		t := week[rng.Intn(len(week))]
		add(&query{shape: shapePoint, keys: append([]string(nil), t.Dims...), fixed: true})
	}
	for d := 1; d <= 7; d++ {
		add(&query{shape: shapeRange, sels: sels(map[int]string{dimMonth: "06", dimDay: day(d)}), fixed: true})
	}
	if clustered {
		for d := 1; d <= 8; d++ {
			for a := 0; a < areas; a++ {
				kv := map[int]string{dimMonth: "06", dimDay: day(d), dimArea: area(a)}
				add(&query{shape: shapeGroupBy, sels: sels(kv), dim: dimStation, fixed: true})
				q := topK(kv, 5, "sum")
				q.fixed = true
				add(q)
			}
		}
	} else {
		for a := 0; a < areas; a++ {
			add(&query{shape: shapeGroupBy, sels: sels(map[int]string{dimArea: area(a)}), dim: dimStation})
			add(topK(map[int]string{dimArea: area(a)}, 10, "sum"))
			if a < areas/2 {
				add(topK(map[int]string{dimArea: area(a)}, 10, "count"))
			}
		}
	}
	m.seq = make([]int32, 1<<16)
	for i := range m.seq {
		var s shape
		switch r := rng.Float64(); {
		case r < 0.60:
			s = shapePoint
		case r < 0.80:
			s = shapeRange
		case r < 0.95:
			s = shapeGroupBy
		default:
			s = shapeTopK
		}
		ids := m.byShape[s]
		m.seq[i] = int32(ids[rng.Intn(len(ids))])
	}
	return m
}

// answerAll fills the reference answers from a cube built with dwarf.New.
func answerAll(qs []*query, ref *dwarf.Cube) ([]answer, error) {
	out := make([]answer, len(qs))
	for i, q := range qs {
		a, err := q.run(ref)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q, err)
		}
		out[i] = a
	}
	return out, nil
}

// finalChecks is the end-of-run bit-identity set: the grand total, whole-
// cube groupings and every grouped template of the mix.
func finalChecks(m *mix) []*query {
	qs := []*query{{shape: shapeRange, sels: sels(nil)}}
	for _, d := range []int{dimDay, dimArea, dimStation, dimStatus} {
		qs = append(qs, &query{shape: shapeGroupBy, sels: sels(nil), dim: d})
	}
	qs = append(qs, topK(nil, 10, "sum"))
	for _, s := range []shape{shapeGroupBy, shapeTopK} {
		for _, i := range m.byShape[s] {
			qs = append(qs, m.queries[i])
		}
	}
	return qs
}
