// Hand-rolled JSON response encoders: one append-to-buffer emitter per
// response envelope, producing output byte-identical to what encoding/json
// (two-space indent, HTML escaping) produces for the equivalent typed
// envelope. The typed envelopes live in the test suite as the oracle
// (oracle_test.go); the differential suite in encode_test.go pins the
// equivalence per envelope, including fuzzed keys and float values.
//
// Discipline: emitters only ever append to the caller's buffer — no
// intermediate containers, no reflection, no per-row allocation — so a
// paged group-by response costs the buffer plus whatever the query itself
// allocated, and a point response costs nothing beyond the pooled buffer.
// Buffers come from a sync.Pool (getBuf/putBuf) and oversized ones are
// dropped rather than pooled, keeping the steady-state pool footprint at a
// few KiB per P.
//
// Divergence policy (documented in docs/SERVING.md): non-finite floats
// (NaN, ±Inf) encode as null. The reflection encoder errors mid-response
// and silently truncates the body instead; null is strictly better and the
// only envelope field that can carry a non-finite value is an aggregate of
// a pathological cube.
package serve

import (
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/cubestore"
	"repro/internal/dwarf"
)

// respBufSize is the initial capacity of pooled response buffers; large
// enough for every fixed-shape envelope and the common one-page group
// response without growing.
const respBufSize = 8 << 10

// respBufMax is the largest buffer returned to the pool; anything bigger
// (a maximal group page) is left to the GC so one giant response cannot
// pin memory forever.
const respBufMax = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, respBufSize)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(p *[]byte) {
	if cap(*p) > respBufMax {
		return
	}
	*p = (*p)[:0]
	bufPool.Put(p)
}

// jw emits indented JSON byte-identical to a json.Encoder configured with
// SetIndent("", "  "): members on their own lines, two spaces per depth,
// ": " after keys, empty containers collapsed to {} / [].
type jw struct {
	buf   []byte
	depth int
	first [12]bool // first[depth]: no member written yet at this depth
}

func (w *jw) nl() {
	w.buf = append(w.buf, '\n')
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// member starts the next object member or array element at this depth:
// comma separator, newline, indentation.
func (w *jw) member() {
	if !w.first[w.depth] {
		w.buf = append(w.buf, ',')
	}
	w.first[w.depth] = false
	w.nl()
}

func (w *jw) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
	w.first[w.depth] = true
}

func (w *jw) close(c byte) {
	empty := w.first[w.depth]
	w.depth--
	if !empty {
		w.nl()
	}
	w.buf = append(w.buf, c)
}

// key emits an object key and its ": " separator. Envelope keys are fixed
// ASCII literals, so no escaping pass is needed.
func (w *jw) key(name string) {
	w.member()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, '"', ':', ' ')
}

func (w *jw) str(s string)   { w.buf = appendJSONString(w.buf, s) }
func (w *jw) num(f float64)  { w.buf = appendJSONFloat(w.buf, f) }
func (w *jw) int(i int64)    { w.buf = strconv.AppendInt(w.buf, i, 10) }
func (w *jw) uint(u uint64)  { w.buf = strconv.AppendUint(w.buf, u, 10) }
func (w *jw) boolean(v bool) { w.buf = strconv.AppendBool(w.buf, v) }
func (w *jw) null()          { w.buf = append(w.buf, "null"...) }

// strs emits a []string with encoding/json's nil-vs-empty distinction.
func (w *jw) strs(ss []string) {
	if ss == nil {
		w.null()
		return
	}
	w.open('[')
	for _, s := range ss {
		w.member()
		w.str(s)
	}
	w.close(']')
}

// agg emits the wire form of an aggregate: sum, count, min, max, avg.
func (w *jw) agg(a dwarf.Aggregate) {
	w.open('{')
	w.key("sum")
	w.num(a.Sum)
	w.key("count")
	w.int(a.Count)
	w.key("min")
	w.num(a.Min)
	w.key("max")
	w.num(a.Max)
	w.key("avg")
	w.num(a.Avg())
	w.close('}')
}

// done terminates the document the way Encoder.Encode does.
func (w *jw) done() []byte { return append(w.buf, '\n') }

const hexDigits = "0123456789abcdef"

// appendJSONString escapes and appends s exactly as encoding/json does with
// HTML escaping on: quotes, backslashes and control characters escaped
// (\n, \r, \t short forms, \u00xx otherwise), <, >, & as \u00xx, invalid
// UTF-8 as �, and U+2028/U+2029 as \u202x.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == ' ' || r == ' ' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat formats f exactly as encoding/json does for float64 —
// shortest representation, 'e' form outside [1e-6, 1e21) with the exponent's
// leading zero trimmed — except that non-finite values encode as null (the
// reflection encoder errors and truncates the response instead).
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONTime appends t in time.Time's MarshalJSON form (RFC 3339 with
// trailing-zero-trimmed nanoseconds, quoted).
func appendJSONTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"')
}

// ---- response envelopes ----
//
// Field order in each emitter matches what encoding/json produces for the
// corresponding typed envelope in oracle_test.go, which in turn preserves
// the sorted-key order of the historical map[string]any envelopes.

// appendErrorResponse emits {"error": msg}.
func appendErrorResponse(buf []byte, msg string) []byte {
	w := jw{buf: buf}
	w.open('{')
	w.key("error")
	w.str(msg)
	w.close('}')
	return w.done()
}

// appendPointResponse emits the /query/point envelope.
func appendPointResponse(buf []byte, cube string, keys []string, a dwarf.Aggregate) []byte {
	w := jw{buf: buf}
	w.open('{')
	w.key("aggregate")
	w.agg(a)
	w.key("cube")
	w.str(cube)
	w.key("keys")
	w.strs(keys)
	w.close('}')
	return w.done()
}

// appendRangeResponse emits the /query/range envelope.
func appendRangeResponse(buf []byte, cube string, a dwarf.Aggregate) []byte {
	w := jw{buf: buf}
	w.open('{')
	w.key("aggregate")
	w.agg(a)
	w.key("cube")
	w.str(cube)
	w.close('}')
	return w.done()
}

// appendGroupByResponse emits the /query/groupby envelope, streaming the
// page's rows straight out of the kernel's group map in pageKeys order —
// no intermediate per-row containers.
func appendGroupByResponse(buf []byte, cube, dim string, pageKeys []string,
	groups map[string]dwarf.Aggregate, total, offset, limit int, truncated bool) []byte {

	w := jw{buf: buf}
	w.open('{')
	w.key("cube")
	w.str(cube)
	w.key("dim")
	w.str(dim)
	w.key("groups")
	w.open('{')
	for _, k := range pageKeys {
		w.key2(k)
		w.agg(groups[k])
	}
	w.close('}')
	w.key("limit")
	w.int(int64(limit))
	w.key("offset")
	w.int(int64(offset))
	w.key("total_groups")
	w.int(int64(total))
	w.key("truncated")
	w.boolean(truncated)
	w.close('}')
	return w.done()
}

// key2 is key for dynamic (escaping-required) object keys like group names.
func (w *jw) key2(name string) {
	w.member()
	w.buf = appendJSONString(w.buf, name)
	w.buf = append(w.buf, ':', ' ')
}

// appendTopKResponse emits the /query/topk envelope, streaming the page's
// entries directly.
func appendTopKResponse(buf []byte, cube, dim string, by dwarf.Metric,
	entries []dwarf.GroupEntry, total, offset, limit int, truncated bool) []byte {

	w := jw{buf: buf}
	w.open('{')
	w.key("by")
	w.str(by.String())
	w.key("cube")
	w.str(cube)
	w.key("dim")
	w.str(dim)
	w.key("entries")
	w.open('[')
	for i := range entries {
		w.member()
		w.open('{')
		w.key("key")
		w.str(entries[i].Key)
		w.key("metric")
		w.num(by.Of(entries[i].Agg))
		w.key("aggregate")
		w.agg(entries[i].Agg)
		w.close('}')
	}
	w.close(']')
	w.key("limit")
	w.int(int64(limit))
	w.key("offset")
	w.int(int64(offset))
	w.key("total_entries")
	w.int(int64(total))
	w.key("truncated")
	w.boolean(truncated)
	w.close('}')
	return w.done()
}

// appendRowsResponse emits the keyed-rows envelope shared by /query/rollup
// and /query/pivot: one {"keys": […], "aggregate": …} object per page row.
func appendRowsResponse(buf []byte, cube string, dims []string,
	rows []dwarf.PivotGroup, total, offset, limit int, truncated bool) []byte {

	w := jw{buf: buf}
	w.open('{')
	w.key("cube")
	w.str(cube)
	w.key("dims")
	w.strs(dims)
	w.key("groups")
	w.open('[')
	for i := range rows {
		w.member()
		w.open('{')
		w.key("keys")
		w.strs(rows[i].Keys)
		w.key("aggregate")
		w.agg(rows[i].Agg)
		w.close('}')
	}
	w.close(']')
	w.key("limit")
	w.int(int64(limit))
	w.key("offset")
	w.int(int64(offset))
	w.key("total_groups")
	w.int(int64(total))
	w.key("truncated")
	w.boolean(truncated)
	w.close('}')
	return w.done()
}

// appendStatsResponse emits the /stats envelope.
func appendStatsResponse(buf []byte, cube string, dims []string,
	sourceTuples int, indexed bool, encodedBytes int, st dwarf.Stats) []byte {

	w := jw{buf: buf}
	w.open('{')
	w.key("all_cells")
	w.int(int64(st.AllCells))
	w.key("cells")
	w.int(int64(st.Cells))
	w.key("cube")
	w.str(cube)
	w.key("dims")
	w.strs(dims)
	w.key("encoded_bytes")
	w.int(int64(encodedBytes))
	w.key("indexed")
	w.boolean(indexed)
	w.key("nodes")
	w.int(int64(st.Nodes))
	w.key("source_tuples")
	w.int(int64(sourceTuples))
	w.key("total_cells")
	w.int(int64(st.TotalCells()))
	w.close('}')
	return w.done()
}

// appendCubesResponse emits the /cubes registry envelope. live is included
// only when the server fronts a store (haveLive).
func appendCubesResponse(buf []byte, dir string, cubes []cubeInfo,
	cache []CacheInfo, live string, haveLive bool) []byte {

	w := jw{buf: buf}
	w.open('{')
	w.key("cache")
	w.open('[')
	for i := range cache {
		w.member()
		w.open('{')
		w.key("name")
		w.str(cache[i].Name)
		w.key("size_bytes")
		w.int(cache[i].SizeBytes)
		w.key("loaded_at")
		w.buf = appendJSONTime(w.buf, cache[i].LoadedAt)
		w.key("hits")
		w.int(cache[i].Hits)
		w.key("indexed")
		w.boolean(cache[i].Indexed)
		w.close('}')
	}
	w.close(']')
	w.key("cubes")
	w.open('[')
	for i := range cubes {
		w.member()
		w.open('{')
		w.key("name")
		w.str(cubes[i].Name)
		w.key("size_bytes")
		w.int(cubes[i].SizeBytes)
		w.key("indexed")
		w.boolean(cubes[i].Indexed)
		w.key("loaded")
		w.boolean(cubes[i].Loaded)
		w.close('}')
	}
	w.close(']')
	w.key("dir")
	w.str(dir)
	if haveLive {
		w.key("live")
		w.str(live)
	}
	w.close('}')
	return w.done()
}

// appendIngestResponse emits the /ingest acknowledgement envelope; a
// negative total (unknown to the source) is omitted.
func appendIngestResponse(buf []byte, appended, total int) []byte {
	w := jw{buf: buf}
	w.open('{')
	w.key("appended")
	w.int(int64(appended))
	if total >= 0 {
		w.key("total_tuples")
		w.int(int64(total))
	}
	w.close('}')
	return w.done()
}

// appendPartialMark adds "partial": true and the failed backends to a
// finished top-level envelope (which always ends "\n}\n"), as trailing
// members; with no failed backends the envelope is left as it is.
func appendPartialMark(doc []byte, failed []string) []byte {
	if len(failed) == 0 {
		return doc
	}
	w := jw{buf: doc[:len(doc)-3], depth: 1} // reopen the outer object
	w.key("partial")
	w.boolean(true)
	w.key("failed_nodes")
	w.strs(failed)
	w.close('}')
	return w.done()
}

// appendClusterStatsResponse emits the /cluster/stats envelope.
func appendClusterStatsResponse(buf []byte, dims []string, nodes []NodeStatus) []byte {
	w := jw{buf: buf}
	w.open('{')
	w.key("dims")
	w.strs(dims)
	w.key("nodes")
	w.open('[')
	for i := range nodes {
		w.member()
		w.open('{')
		w.key("node")
		w.str(nodes[i].Node)
		w.key("ok")
		w.boolean(nodes[i].OK)
		if nodes[i].Generation != 0 {
			w.key("generation")
			w.uint(nodes[i].Generation)
		}
		if nodes[i].Error != "" {
			w.key("error")
			w.str(nodes[i].Error)
		}
		w.close('}')
	}
	w.close(']')
	w.close('}')
	return w.done()
}

// appendStoreStatsResponse emits the /store/stats envelope, mirroring
// cubestore.Stats's struct field order and omitempty error fields.
func appendStoreStatsResponse(buf []byte, cube string, st cubestore.Stats) []byte {
	w := jw{buf: buf}
	w.open('{')
	w.key("cube")
	w.str(cube)
	w.key("stats")
	w.open('{')
	w.key("dims")
	w.strs(st.Dims)
	w.key("segments")
	if st.Segments == nil {
		w.null()
	} else {
		w.open('[')
		for i := range st.Segments {
			w.member()
			w.open('{')
			w.key("file")
			w.str(st.Segments[i].File)
			w.key("tuples")
			w.int(int64(st.Segments[i].Tuples))
			w.key("level")
			w.int(int64(st.Segments[i].Level))
			w.key("bytes")
			w.int(int64(st.Segments[i].Bytes))
			w.close('}')
		}
		w.close(']')
	}
	if len(st.Rollups) > 0 {
		w.key("rollups")
		w.open('[')
		for i := range st.Rollups {
			w.member()
			w.open('{')
			w.key("file")
			w.str(st.Rollups[i].File)
			w.key("dims")
			w.strs(st.Rollups[i].Dims)
			w.key("covers")
			w.int(int64(st.Rollups[i].Covers))
			w.key("tuples")
			w.int(int64(st.Rollups[i].Tuples))
			w.key("bytes")
			w.int(int64(st.Rollups[i].Bytes))
			w.close('}')
		}
		w.close(']')
	}
	w.key("sealed_tuples")
	w.int(int64(st.SealedTuples))
	w.key("live_tuples")
	w.int(int64(st.LiveTuples))
	w.key("total_tuples")
	w.int(int64(st.TotalTuples))
	w.key("sealed_bytes")
	w.int(st.SealedBytes)
	w.key("wal_gen")
	w.uint(st.WALGen)
	w.key("generation")
	w.uint(st.Generation)
	w.key("wal_bytes")
	w.int(st.WALBytes)
	w.key("seals")
	w.int(st.Seals)
	w.key("compactions")
	w.int(st.Compactions)
	w.key("appended")
	w.int(st.Appended)
	w.key("streaming_compactions")
	w.int(st.StreamingCompactions)
	w.key("cache_hits")
	w.int(st.CacheHits)
	w.key("cache_misses")
	w.int(st.CacheMisses)
	w.key("cache_stale")
	w.int(st.CacheStale)
	w.key("cache_partial_hits")
	w.int(st.CachePartialHits)
	w.key("cache_partial_misses")
	w.int(st.CachePartialMisses)
	w.key("cache_bytes")
	w.int(st.CacheBytes)
	w.key("cache_entries")
	w.int(int64(st.CacheEntries))
	w.key("rollup_hits")
	w.int(st.RollupHits)
	w.key("segments_scanned")
	w.int(st.SegmentsScanned)
	w.key("segments_pruned")
	w.int(st.SegmentsPruned)
	w.key("group_commits")
	w.int(st.GroupCommits)
	w.key("fsyncs_saved")
	w.int(st.FsyncsSaved)
	w.key("frozen_memtables")
	w.int(st.FrozenMemtables)
	w.key("seal_queue_depth")
	w.int(int64(st.SealQueueDepth))
	w.key("memtable_runs")
	w.int(int64(st.MemtableRuns))
	w.key("memtable_run_bytes")
	w.int(st.MemtableRunBytes)
	w.key("dir_sync_errors")
	w.int(st.DirSyncErrors)
	if st.LastSealError != "" {
		w.key("last_seal_error")
		w.str(st.LastSealError)
	}
	if st.LastCompactError != "" {
		w.key("last_compact_error")
		w.str(st.LastCompactError)
	}
	if st.LastDirSyncError != "" {
		w.key("last_dir_sync_error")
		w.str(st.LastDirSyncError)
	}
	w.close('}')
	w.close('}')
	return w.done()
}
