package serve

import (
	"repro/internal/cubestore"
	"repro/internal/dwarf"
)

// The typed response envelopes: the wire contract the append encoders in
// encode.go implement. encoding/json over these structs (encodeReflect) is
// the test-side oracle every encoder and every served body is compared
// against byte for byte; nothing outside the tests encodes them.

// aggJSON is the wire form of an aggregate.
type aggJSON struct {
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Avg   float64 `json:"avg"`
}

func toAggJSON(a dwarf.Aggregate) aggJSON {
	return aggJSON{Sum: a.Sum, Count: a.Count, Min: a.Min, Max: a.Max, Avg: a.Avg()}
}

// partialMark is the allow_partial marking, embedded last in every query
// envelope and omitted when no backend failed.
type partialMark struct {
	Partial     bool     `json:"partial,omitempty"`
	FailedNodes []string `json:"failed_nodes,omitempty"`
}

// errorResponse is the error envelope, {"error": …}.
type errorResponse struct {
	Error string `json:"error"`
}

// pointResponse is the /query/point envelope.
type pointResponse struct {
	Aggregate aggJSON  `json:"aggregate"`
	Cube      string   `json:"cube"`
	Keys      []string `json:"keys"`
	partialMark
}

// rangeResponse is the /query/range envelope.
type rangeResponse struct {
	Aggregate aggJSON `json:"aggregate"`
	Cube      string  `json:"cube"`
	partialMark
}

// groupByResponse is the /query/groupby envelope.
type groupByResponse struct {
	Cube        string             `json:"cube"`
	Dim         string             `json:"dim"`
	Groups      map[string]aggJSON `json:"groups"`
	Limit       int                `json:"limit"`
	Offset      int                `json:"offset"`
	TotalGroups int                `json:"total_groups"`
	Truncated   bool               `json:"truncated"`
	partialMark
}

// entryJSON is one ranked row in the /query/topk envelope.
type entryJSON struct {
	Key       string  `json:"key"`
	Metric    float64 `json:"metric"`
	Aggregate aggJSON `json:"aggregate"`
}

// topKResponse is the /query/topk envelope.
type topKResponse struct {
	By           string      `json:"by"`
	Cube         string      `json:"cube"`
	Dim          string      `json:"dim"`
	Entries      []entryJSON `json:"entries"`
	Limit        int         `json:"limit"`
	Offset       int         `json:"offset"`
	TotalEntries int         `json:"total_entries"`
	Truncated    bool        `json:"truncated"`
	partialMark
}

// rowJSON is one keyed row in the /query/rollup and /query/pivot envelopes.
type rowJSON struct {
	Keys      []string `json:"keys"`
	Aggregate aggJSON  `json:"aggregate"`
}

// rowsResponse is the keyed-rows envelope shared by /query/rollup and
// /query/pivot.
type rowsResponse struct {
	Cube        string    `json:"cube"`
	Dims        []string  `json:"dims"`
	Groups      []rowJSON `json:"groups"`
	Limit       int       `json:"limit"`
	Offset      int       `json:"offset"`
	TotalGroups int       `json:"total_groups"`
	Truncated   bool      `json:"truncated"`
	partialMark
}

// statsResponse is the /stats envelope.
type statsResponse struct {
	AllCells     int      `json:"all_cells"`
	Cells        int      `json:"cells"`
	Cube         string   `json:"cube"`
	Dims         []string `json:"dims"`
	EncodedBytes int      `json:"encoded_bytes"`
	Indexed      bool     `json:"indexed"`
	Nodes        int      `json:"nodes"`
	SourceTuples int      `json:"source_tuples"`
	TotalCells   int      `json:"total_cells"`
}

// cubesResponse is the /cubes envelope.
type cubesResponse struct {
	Cache []CacheInfo `json:"cache"`
	Cubes []cubeInfo  `json:"cubes"`
	Dir   string      `json:"dir"`
	Live  string      `json:"live,omitempty"`
}

// ingestResponse is the /ingest acknowledgement from a local store.
type ingestResponse struct {
	Appended    int `json:"appended"`
	TotalTuples int `json:"total_tuples"`
}

// sourceIngestResponse is the /ingest acknowledgement from a source that
// does not know its total (a cluster coordinator).
type sourceIngestResponse struct {
	Appended int `json:"appended"`
}

// storeStatsResponse is the /store/stats envelope.
type storeStatsResponse struct {
	Cube  string          `json:"cube"`
	Stats cubestore.Stats `json:"stats"`
}

// clusterStatsResponse is the /cluster/stats envelope.
type clusterStatsResponse struct {
	Dims  []string     `json:"dims"`
	Nodes []NodeStatus `json:"nodes"`
}
