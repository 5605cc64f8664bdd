package serve

import (
	"fmt"
	"net/http"
)

// POST /query/partial is the cluster-node endpoint (Options.ClusterNode):
// one request per query shape, answered UNPAGED with the node's raw partial
// result plus the store generation it was computed at. The coordinator
// (internal/cluster) merges these exactly as the store merges its own
// per-segment partials — Point/Range by aggregate merge, GroupBy/Pivot via
// the kernel's merge helpers, TopK from full group maps before the cut
// (which is why TopK has no partial shape of its own: a per-node K cut
// could misrank keys split across nodes, so the coordinator asks every
// node for the full groupby map instead).
//
// Request and 200 response bodies are the binary partial wire
// (partialwire.go, Content-Type PartialContentType); errors are the usual
// JSON error envelope.

func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, badRequest("POST a %s body to /query/partial", PartialContentType))
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != PartialContentType {
		s.fail(w, &httpError{
			status: http.StatusUnsupportedMediaType,
			msg:    fmt.Sprintf("/query/partial takes Content-Type %s, got %q", PartialContentType, ct),
		})
		return
	}
	buf := getBuf()
	err := readBody(w, r, buf, maxQueryBodyBytes)
	if err == nil {
		var req PartialRequest
		if req, err = parsePartialRequest(*buf); err != nil {
			err = badRequest("bad request body: %v", err)
		} else {
			err = s.answerPartial(&req, buf)
		}
	}
	if err != nil {
		putBuf(buf)
		s.fail(w, err)
		return
	}
	sendAs(w, http.StatusOK, partialContentType, buf)
}

// answerPartial runs req and encodes its partial into buf.
func (s *Server) answerPartial(req *PartialRequest, buf *[]byte) error {
	v, err := s.source(req.Cube)
	if err != nil {
		return err
	}
	// The generation is read BEFORE the query, like the store's own cache
	// stamps: a write racing the query leaves the stamp older than the
	// data, never newer, so a coordinator comparing stamps across retries
	// can only under-claim freshness.
	var gen uint64
	if s.local != nil && s.isLive(req.Cube) {
		gen = s.local.Generation()
	}
	switch req.Shape {
	case PartialPoint:
		agg, err := v.Point(req.Keys...)
		if err != nil {
			return err
		}
		*buf = AppendPartialAgg((*buf)[:0], gen, agg)
	case PartialRange:
		agg, err := v.Range(req.Sels)
		if err != nil {
			return err
		}
		*buf = AppendPartialAgg((*buf)[:0], gen, agg)
	case PartialGroupBy:
		if len(req.Dims) != 1 {
			return badRequest("a groupby partial names 1 dimension, got %d", len(req.Dims))
		}
		groups, err := v.GroupBy(req.Dims[0], req.Sels)
		if err != nil {
			return err
		}
		*buf = AppendPartialGroups((*buf)[:0], gen, groups)
	case PartialPivot:
		rows, err := v.Pivot(req.Dims, req.Sels)
		if err != nil {
			return err
		}
		*buf = AppendPartialRows((*buf)[:0], gen, rows)
	default:
		return badRequest("unknown partial shape %d (want point 1, range 2, groupby 3 or pivot 4)", req.Shape)
	}
	return nil
}
