package cluster

import (
	"errors"
	"net/http"
	"sort"

	"repro/internal/query"
	"repro/internal/serve"
)

// Gateway is the cluster's client-facing HTTP surface (cmd/dwarfgw): dwarfd's
// own server (internal/serve) with the coordinator as its live source, so
// request parsing, paging, envelopes and error statuses are dwarfd's by
// construction. The coordinator adds the three things serve finds through
// optional interfaces: the survivor re-run behind allow_partial
// (Survivors), per-node health on /cluster/stats (NodeStats), and the 502
// status of a scatter failure (scatterError matches serve.ErrUpstream).
//
// Failure semantics per request: by default a node failure fails the query
// with 502 and an error naming every failed node. A request carrying
// "allow_partial": true instead gets the merge over the surviving nodes,
// explicitly marked with "partial": true and the failed node list — the
// two responses are never confusable, and a silently short total is
// impossible by construction.
type Gateway struct {
	srv *serve.Server
}

// NewGateway wraps a coordinator. groupLimit <= 0 means
// serve.DefaultGroupLimit.
func NewGateway(c *Coordinator, groupLimit int) *Gateway {
	srv, err := serve.New(serve.Options{Store: c, LiveName: c.live, GroupLimit: groupLimit})
	if err != nil {
		panic(err) // unreachable: a live source and no directory always configure
	}
	return &Gateway{srv: srv}
}

// Handler returns the gateway's route table.
func (g *Gateway) Handler() http.Handler { return g.srv.Handler() }

// Is makes a scatter failure serve.ErrUpstream: the nodes failed, not the
// request, so it is answered 502.
func (e *scatterError) Is(target error) bool { return target == serve.ErrUpstream }

// Survivors re-targets a query whose strict run failed with err at the
// nodes that did not fail, returning that view with the failed nodes'
// base URLs (sorted). It reports false when err is not a scatter failure or
// no node survived: an answer over zero nodes is not a partial answer.
func (c *Coordinator) Survivors(err error) (query.Querier, []string, bool) {
	var se *scatterError
	if !errors.As(err, &se) {
		return nil, nil, false
	}
	failed := make([]string, len(se.failed))
	bad := make(map[string]bool, len(se.failed))
	for i, f := range se.failed {
		failed[i] = f.Node
		bad[f.Node] = true
	}
	sort.Strings(failed)
	alive := &Coordinator{dims: c.dims, live: c.live, survivors: true}
	for _, n := range c.snapshot() {
		if !bad[n.base] {
			alive.nodes = append(alive.nodes, n)
		}
	}
	if len(alive.nodes) == 0 {
		return nil, nil, false
	}
	return alive, failed, true
}

// NodeStats probes every node's store generation for /cluster/stats.
func (c *Coordinator) NodeStats() []serve.NodeStatus {
	nodes := c.snapshot()
	stats, _ := scatter(nodes, func(n *node) (serve.NodeStatus, error) {
		st := serve.NodeStatus{Node: n.base}
		gen, err := n.generation()
		if err != nil {
			st.Error = err.Error()
		} else {
			st.OK, st.Generation = true, gen
		}
		return st, nil
	})
	return stats
}
