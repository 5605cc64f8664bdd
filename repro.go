// Package repro is the public facade of the reproduction of Scriney &
// Roantree, "Efficient Cube Construction for Smart City Data" (EDBT/ICDT
// 2016 Workshops): DWARF cube construction from XML/JSON smart-city feeds
// and bi-directional persistence into four storage schema models over
// from-scratch columnar-NoSQL and relational engines.
//
// The facade re-exports the library's main entry points so downstream users
// program against one package:
//
//	tuples, _ := repro.ParseXML(feed, repro.BikeXMLSpec())
//	cube, _ := repro.BuildCube(repro.BikeDims(), tuples)
//	store, _ := repro.OpenStore(repro.NoSQLDwarf, dir, nil)
//	id, _ := store.Save(cube)
//	back, _ := store.Load(id)
//
// The implementation packages live under internal/: internal/dwarf (the
// cube), internal/nosql and internal/sqlengine (the storage engines),
// internal/mapper (the four schema models), internal/smartcity (synthetic
// feeds), internal/xmlstream and internal/jsonstream (ingestion),
// internal/flatfile (the Bao-et-al. baselines), internal/hierarchy
// (rollup/drill-down) and internal/bench (the harness that regenerates the
// paper's tables; speed is measured by the repo benchmark in perfbench/).
package repro

import (
	"bytes"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cubestore"
	"repro/internal/dwarf"
	"repro/internal/jsonstream"
	"repro/internal/mapper"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/smartcity"
	"repro/internal/xmlstream"
)

// Core cube types.
type (
	// Cube is a constructed DWARF cube.
	Cube = dwarf.Cube
	// Tuple is one fact: dimension keys plus a measure.
	Tuple = dwarf.Tuple
	// Aggregate is the aggregation state of a cell (sum/count/min/max).
	Aggregate = dwarf.Aggregate
	// Selector restricts one dimension of a range query.
	Selector = dwarf.Selector
	// CubeOption tunes construction (ablation switches).
	CubeOption = dwarf.Option
)

// All is the query wildcard aggregating over a dimension.
const All = dwarf.All

// BuildCube constructs a DWARF cube from fact tuples.
func BuildCube(dims []string, tuples []Tuple, opts ...CubeOption) (*Cube, error) {
	return dwarf.New(dims, tuples, opts...)
}

// MergeCubes combines two cubes over the same dimensions (incremental
// maintenance). The result is the cube BuildCube returns over both inputs'
// facts; see MergeAllCubes.
func MergeCubes(a, b *Cube) (*Cube, error) { return MergeAllCubes(a, b) }

// MergeAllCubes folds any number of cubes over the same dimensions in one
// k-way pass with the engine the live store uses (MergeCubeViews): each
// input is encoded, the encodings are merged, and the merged stream is
// decoded. The result encodes to the same bytes as BuildCube over the
// concatenated facts whenever the sums are exact, and is FromQuery when
// any input is. Mismatched dimension lists fail with dwarf.ErrDimsMismatch.
func MergeAllCubes(cubes ...*Cube) (*Cube, error) {
	views := make([]*CubeView, len(cubes))
	for i, c := range cubes {
		var buf bytes.Buffer
		if err := c.EncodeIndexed(&buf); err != nil {
			return nil, err
		}
		v, err := dwarf.OpenViewTrusted(buf.Bytes())
		if err != nil {
			return nil, err
		}
		views[i] = v
	}
	out, _, err := dwarf.MergeViewsBytes(views...)
	if err != nil {
		return nil, err
	}
	return dwarf.DecodeBytes(out)
}

// CubeMergeStats describes one streaming merge (MergeCubeViews).
type CubeMergeStats = dwarf.MergeStats

// MergeCubeViews merges k encoded cubes directly view-to-bytes, writing one
// v2-indexed stream to dst without materializing any node graph — the
// engine behind live-store segment compaction. The output is the canonical
// encoding of the merged facts.
func MergeCubeViews(dst io.Writer, views ...*CubeView) (CubeMergeStats, error) {
	return dwarf.MergeViews(dst, views...)
}

// Zero-copy serving types.
type (
	// CubeView answers queries directly against encoded cube bytes — no
	// node graph on the heap, safe for concurrent readers.
	CubeView = dwarf.CubeView
	// CubeFile is a CubeView backed by a (possibly mmap'd) cube file;
	// Close releases the mapping.
	CubeFile = dwarf.ViewFile
)

// WriteCubeFile encodes the cube to path with the v2 node-offset trailer,
// so OpenCubeFile (and dwarfd) can open it in O(1). The write goes through
// a temp file and rename, so readers never observe a partial cube.
func WriteCubeFile(c *Cube, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".dwarfcube-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := c.EncodeIndexed(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// OpenCubeFile opens an encoded cube file as a zero-copy view, mmap'd where
// the platform allows. Files carrying the offset trailer open in O(1);
// plain v1 files are checksummed at open and indexed on first query.
func OpenCubeFile(path string) (*CubeFile, error) { return dwarf.OpenViewFile(path) }

// OpenCubeView opens a view over encoded cube bytes held in memory.
func OpenCubeView(data []byte) (*CubeView, error) { return dwarf.OpenView(data) }

// Live cube store (streaming ingestion).
type (
	// LiveStore is a WAL-backed live cube store: durable streaming Appends,
	// automatic sealing into immutable cube segments, background
	// compaction, and queries that fan out over segments plus the live
	// memtable so answers reflect every acknowledged tuple.
	LiveStore = cubestore.Store
	// LiveStoreOptions tunes OpenLiveStore (dimensions, seal thresholds,
	// compaction fanout, durability).
	LiveStoreOptions = cubestore.Options
	// LiveStoreStats is a point-in-time description of a LiveStore.
	LiveStoreStats = cubestore.Stats
)

// OpenLiveStore opens (creating if needed) a live cube store rooted at dir,
// recovering any sealed segments and unsealed WAL tuples from a previous
// run. opts.Dims is required for a new store; closing the store leaves
// everything durable for the next OpenLiveStore.
func OpenLiveStore(dir string, opts LiveStoreOptions) (*LiveStore, error) {
	return cubestore.Open(dir, opts)
}

// ServeOptions configures the dwarfd query service. Set Store to also
// serve a live cube store (POST /ingest, GET /store/stats, and the
// reserved "live" cube name for queries).
type ServeOptions = serve.Options

// NewCubeServer builds the dwarfd HTTP query service over a directory of
// .dwarf files; mount its Handler on any mux or listener.
func NewCubeServer(opts ServeOptions) (*serve.Server, error) { return serve.New(opts) }

// Serve runs the dwarfd query service at addr over a directory of .dwarf
// cube files, blocking until the listener fails.
func Serve(addr, dir string) error {
	return serve.ListenAndServe(addr, serve.Options{Dir: dir})
}

// Query selector constructors.
var (
	SelectAll   = dwarf.SelectAll
	SelectKeys  = dwarf.SelectKeys
	SelectRange = dwarf.SelectRange
)

// Unified query engine surface. Every type below answers through one query
// kernel, so a query shape means exactly the same thing on an in-memory
// Cube, a zero-copy CubeView/CubeFile and a LiveStore.
type (
	// Querier is the query surface shared by *Cube, *CubeView and
	// *LiveStore: Point, Range, GroupBy, Pivot and TopK.
	Querier = query.Querier
	// PivotGroup is one row of a multi-dimension GroupBy (Pivot/RollUp).
	PivotGroup = dwarf.PivotGroup
	// TopKEntry is one ranked group of a TopK query.
	TopKEntry = dwarf.GroupEntry
	// TopKSpec shapes a TopK/iceberg query: ranking metric, optional
	// threshold, and the K cut.
	TopKSpec = dwarf.TopKSpec
	// Metric names the aggregate component TopK ranks by.
	Metric = dwarf.Metric
)

// The rankable aggregate components for TopKSpec.By.
const (
	BySum   = dwarf.BySum
	ByCount = dwarf.ByCount
	ByMin   = dwarf.ByMin
	ByMax   = dwarf.ByMax
	ByAvg   = dwarf.ByAvg
)

// TopK ranks the groups of the named dimension by spec's metric and returns
// the surviving entries best first (iceberg threshold and K cut applied
// after all partial aggregates are merged). q may be a cube, a view or a
// live store.
func TopK(q Querier, dim string, sels []Selector, spec TopKSpec) ([]TopKEntry, error) {
	return query.TopKByName(q, dim, sels, spec)
}

// RollUp collapses q to the named dimensions (in cube dimension order),
// aggregating everything else away through ALL cells: one sorted row per
// surviving key combination, counts and min/max preserved. It runs directly
// on views and live stores — no cube rebuild, no decoding.
func RollUp(q Querier, keep ...string) (dims []string, rows []PivotGroup, err error) {
	return query.RollUp(q, keep...)
}

// DrillDown enumerates the members of the named dimension under a fixed
// path: fixed maps dimension name → key, missing dimensions are wildcards.
// Each member key maps to its aggregate under the path.
func DrillDown(q Querier, fixed map[string]string, dim string) (map[string]Aggregate, error) {
	return query.DrillDown(q, fixed, dim)
}

// Construction ablation switches.
var (
	WithoutSuffixCoalescing = dwarf.WithoutSuffixCoalescing
	WithoutHashConsing      = dwarf.WithoutHashConsing
)

// Storage schema models (the paper's four).
type (
	// Store persists DWARF cubes under one schema model.
	Store = mapper.Store
	// StoreKind names a schema model.
	StoreKind = mapper.Kind
	// SchemaID identifies a stored cube.
	SchemaID = mapper.SchemaID
	// SchemaInfo is a stored cube's metadata row.
	SchemaInfo = mapper.SchemaInfo
	// StoreOptions tunes batching.
	StoreOptions = mapper.Options
)

// The four schema models of the evaluation.
const (
	MySQLDwarf = mapper.KindMySQLDwarf
	MySQLMin   = mapper.KindMySQLMin
	NoSQLDwarf = mapper.KindNoSQLDwarf
	NoSQLMin   = mapper.KindNoSQLMin
)

// AllStoreKinds returns the four schema models in the paper's order.
func AllStoreKinds() []StoreKind { return mapper.AllKinds() }

// OpenStore opens a store of the given kind rooted at dir. opts may be nil
// for defaults.
func OpenStore(kind StoreKind, dir string, opts *StoreOptions) (Store, error) {
	var o StoreOptions
	if opts != nil {
		o = *opts
	}
	return mapper.OpenStore(kind, dir, o, mapper.EngineOptions{})
}

// Feed ingestion.
type (
	// XMLSpec maps an XML feed onto fact tuples.
	XMLSpec = xmlstream.Spec
	// JSONSpec maps a JSON feed onto fact tuples.
	JSONSpec = jsonstream.Spec
)

// ParseXML extracts fact tuples from an XML feed document.
func ParseXML(r io.Reader, spec XMLSpec) ([]Tuple, error) { return xmlstream.Parse(r, spec) }

// ParseJSON extracts fact tuples from a JSON feed document.
func ParseJSON(r io.Reader, spec JSONSpec) ([]Tuple, error) { return jsonstream.Parse(r, spec) }

// Ready-made specs for the synthetic smart-city feeds.
var (
	BikeXMLSpec        = xmlstream.BikeFeedSpec
	CarParkXMLSpec     = xmlstream.CarParkFeedSpec
	BikeJSONSpec       = jsonstream.BikeFeedSpec
	AirQualityJSONSpec = jsonstream.AirQualityFeedSpec
)

// BikeDims returns the evaluation's 8-dimension bike cube layout.
func BikeDims() []string { return append([]string(nil), smartcity.BikeDims...) }

// BikeDataset generates one of the paper's Table 2 datasets
// (Day/Week/Month/TMonth/SMonth) as fact tuples.
func BikeDataset(preset string) ([]Tuple, error) { return smartcity.Dataset(preset) }
