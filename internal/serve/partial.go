package serve

import (
	"net/http"

	"repro/internal/dwarf"
)

// POST /query/partial is the cluster-node wire format (Options.ClusterNode):
// one request per query shape, answered UNPAGED with the node's raw partial
// result plus the store generation it was computed at. The coordinator
// (internal/cluster) merges these exactly as the store merges its own
// per-segment partials — Point/Range by aggregate merge, GroupBy/Pivot via
// the kernel's merge helpers, TopK from full group maps before the cut
// (which is why TopK has no partial shape of its own: a per-node K cut
// could misrank keys split across nodes, so the coordinator asks every
// node for the full "groupby" map instead).
//
// Responses reuse the zero-alloc append encoders. Group maps stream in map
// iteration order — the coordinator folds them into its own map, so no
// order is promised on this wire (unlike the paged client endpoints).

// partialRequest is the body of /query/partial. Shape selects the query;
// the other fields mirror the corresponding /query/* request.
type partialRequest struct {
	Shape     string         `json:"shape"`
	Cube      string         `json:"cube"`
	Keys      []string       `json:"keys,omitempty"`      // point
	Dim       string         `json:"dim,omitempty"`       // groupby
	Dims      []string       `json:"dims,omitempty"`      // pivot
	Selectors []selectorSpec `json:"selectors,omitempty"` // range/groupby/pivot
}

func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, badRequest("POST a JSON body to /query/partial"))
		return
	}
	var req partialRequest
	if err := decodeBody(w, r, &req, maxQueryBodyBytes); err != nil {
		s.fail(w, err)
		return
	}
	v, err := s.source(req.Cube)
	if err != nil {
		s.fail(w, err)
		return
	}
	// The generation is read BEFORE the query, like the store's own cache
	// stamps: a write racing the query leaves the stamp older than the
	// data, never newer, so a coordinator comparing stamps across retries
	// can only under-claim freshness.
	var gen uint64
	if s.local != nil && s.isLive(req.Cube) {
		gen = s.local.Generation()
	}
	buf := getBuf()
	switch req.Shape {
	case "point":
		agg, err := v.Point(req.Keys...)
		if err != nil {
			putBuf(buf)
			s.fail(w, err)
			return
		}
		*buf = appendPartialAggResponse((*buf)[:0], gen, agg)
	case "range":
		sels, err := selectors(req.Selectors, v.NumDims())
		if err == nil {
			var agg dwarf.Aggregate
			if agg, err = v.Range(sels); err == nil {
				*buf = appendPartialAggResponse((*buf)[:0], gen, agg)
			}
		}
		if err != nil {
			putBuf(buf)
			s.fail(w, err)
			return
		}
	case "groupby":
		dim, err := dimIndex(v, req.Dim)
		var groups map[string]dwarf.Aggregate
		if err == nil {
			var sels []dwarf.Selector
			if sels, err = selectors(req.Selectors, v.NumDims()); err == nil {
				groups, err = v.GroupBy(dim, sels)
			}
		}
		if err != nil {
			putBuf(buf)
			s.fail(w, err)
			return
		}
		*buf = appendPartialGroupsResponse((*buf)[:0], gen, groups)
	case "pivot":
		dims := make([]int, len(req.Dims))
		var err error
		for i, d := range req.Dims {
			if dims[i], err = dimIndex(v, d); err != nil {
				break
			}
		}
		var rows []dwarf.PivotGroup
		if err == nil {
			var sels []dwarf.Selector
			if sels, err = selectors(req.Selectors, v.NumDims()); err == nil {
				rows, err = v.Pivot(dims, sels)
			}
		}
		if err != nil {
			putBuf(buf)
			s.fail(w, err)
			return
		}
		*buf = appendPartialRowsResponse((*buf)[:0], gen, rows)
	default:
		putBuf(buf)
		s.fail(w, badRequest("unknown partial shape %q (want point, range, groupby or pivot)", req.Shape))
		return
	}
	send(w, http.StatusOK, buf)
}

// appendPartialAggResponse emits the point/range partial envelope.
func appendPartialAggResponse(buf []byte, gen uint64, agg dwarf.Aggregate) []byte {
	w := jw{buf: buf}
	w.open('{')
	w.key("generation")
	w.uint(gen)
	w.key("aggregate")
	w.agg(agg)
	w.close('}')
	return w.done()
}

// appendPartialGroupsResponse emits the groupby partial envelope: the full
// unpaged group map, streamed in map iteration order.
func appendPartialGroupsResponse(buf []byte, gen uint64, groups map[string]dwarf.Aggregate) []byte {
	w := jw{buf: buf}
	w.open('{')
	w.key("generation")
	w.uint(gen)
	w.key("groups")
	w.open('{')
	for k, a := range groups {
		w.key2(k)
		w.agg(a)
	}
	w.close('}')
	w.close('}')
	return w.done()
}

// appendPartialRowsResponse emits the pivot partial envelope: the full
// unpaged sorted rows.
func appendPartialRowsResponse(buf []byte, gen uint64, rows []dwarf.PivotGroup) []byte {
	w := jw{buf: buf}
	w.open('{')
	w.key("generation")
	w.uint(gen)
	w.key("rows")
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
	w.close('}')
	return w.done()
}
