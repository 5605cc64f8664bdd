// Package cluster scatter-gathers the cube query surface across N dwarfd
// nodes, each running its own cubestore over a hash-partitioned slice of
// the tuple stream.
//
// The coordinator answers every query shape by fanning the query out to
// every node's /query/partial endpoint (serve.Options.ClusterNode) and
// merging the per-node partials exactly as the store merges its own
// per-segment partials today:
//
//   - Point/Range: per-node aggregates merged with dwarf.MergeAggregates,
//     folded in node-index order (deterministic).
//   - GroupBy/Pivot: per-node maps/rows merged with dwarf.MergeGroupMaps /
//     dwarf.MergePivotGroups — the same helpers the store's fan-out uses.
//   - TopK: every node returns its FULL group map; the coordinator merges
//     the maps first and only then applies the threshold and the K cut
//     (dwarf.TopKFromGroups). Cutting per node would misrank keys whose
//     tuples hash-split across nodes, so no per-node cut exists on the
//     wire at all.
//   - RollUp: query.RollUp over the coordinator (it is a query.Querier),
//     which lowers to Pivot.
//
// Failure semantics are strict by construction: a node that cannot be
// reached within the per-node timeout and bounded retries fails the whole
// query with an error naming the node — never a silently short merged
// total. Callers that prefer availability opt in per request (the
// gateway's allow_partial, answered through Survivors), and the answer is
// then explicitly marked with the nodes it is missing.
package cluster

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dwarf"
	"repro/internal/query"
)

// Defaults for Options.
const (
	DefaultTimeout = 5 * time.Second
	DefaultRetries = 2
	DefaultBackoff = 50 * time.Millisecond
)

// Options configures a Coordinator.
type Options struct {
	// Nodes are the dwarfd node base URLs (e.g. http://10.0.0.1:8080), in
	// partition order. The order IS the partition map: tuples hash to
	// len(Nodes) buckets by index, so growing or reordering the list
	// re-homes data. At least one node is required.
	Nodes []string
	// Dims is the cluster's dimension list; every node's store must have
	// exactly these dimensions (validated lazily per query by the nodes).
	Dims []string
	// LiveName is the cube name queried on every node ("live" when empty).
	LiveName string
	// Timeout bounds each HTTP attempt to one node (DefaultTimeout when 0).
	Timeout time.Duration
	// Retries is how many times a failed query attempt is retried per node
	// beyond the first, with doubling backoff (DefaultRetries when 0; -1
	// disables retries). Ingest is never retried: appends are not
	// idempotent, and a retry after an ambiguous failure could double-count
	// a batch the node actually acknowledged.
	Retries int
	// Backoff is the wait before the first retry, doubling per attempt
	// (DefaultBackoff when 0).
	Backoff time.Duration
	// Client is the HTTP client used for every node call. Defaults to a
	// dedicated client; Timeout is applied per request regardless.
	Client *http.Client
}

// Coordinator fans queries out over the nodes and merges partials. It
// implements query.Querier, so every shape — including RollUp/DrillDown —
// runs over a cluster exactly as over one store.
type Coordinator struct {
	dims []string
	live string
	// survivors marks a view over the nodes that answered after others
	// failed (Survivors): its node list is not the partition map.
	survivors bool

	mu    sync.RWMutex
	nodes []*node
}

// New builds a Coordinator over opts.Nodes.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	if len(opts.Dims) == 0 {
		return nil, fmt.Errorf("cluster: no dimensions configured")
	}
	live := opts.LiveName
	if live == "" {
		live = "live"
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	retries := opts.Retries
	if retries == 0 {
		retries = DefaultRetries
	} else if retries < 0 {
		retries = 0
	}
	backoff := opts.Backoff
	if backoff == 0 {
		backoff = DefaultBackoff
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Coordinator{dims: append([]string(nil), opts.Dims...), live: live}
	for _, u := range opts.Nodes {
		c.nodes = append(c.nodes, &node{
			base: strings.TrimRight(u, "/"), client: client,
			timeout: timeout, retries: retries, backoff: backoff,
		})
	}
	return c, nil
}

// NumNodes returns the cluster size (the number of hash partitions).
func (c *Coordinator) NumNodes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// SetNode repoints partition i at a new base URL — the operational hook
// for replacing a dead node with its restarted or recovered successor.
// The partition count never changes; the new node must hold partition i's
// data (e.g. the same store directory recovered via its WAL).
func (c *Coordinator) SetNode(i int, baseURL string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("cluster: node index %d out of range [0,%d)", i, len(c.nodes))
	}
	old := c.nodes[i]
	c.nodes[i] = &node{
		base: strings.TrimRight(baseURL, "/"), client: old.client,
		timeout: old.timeout, retries: old.retries, backoff: old.backoff,
	}
	return nil
}

func (c *Coordinator) snapshot() []*node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*node(nil), c.nodes...)
}

// NodeError is one node's failure inside a scatter.
type NodeError struct {
	Node string // base URL
	Err  error
}

func (e *NodeError) Error() string { return fmt.Sprintf("node %s: %v", e.Node, e.Err) }
func (e *NodeError) Unwrap() error { return e.Err }

// scatterError is the strict-mode query failure: every failed node, named.
type scatterError struct {
	total  int
	failed []*NodeError
}

func (e *scatterError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d/%d nodes failed:", len(e.failed), e.total)
	for _, f := range e.failed {
		b.WriteString(" [")
		b.WriteString(f.Error())
		b.WriteString("]")
	}
	return b.String()
}

// scatter runs fn against every node concurrently and returns the per-node
// results in node order plus every failure. Callers enforce the strict
// failure policy with strictErr.
func scatter[T any](nodes []*node, fn func(n *node) (T, error)) ([]T, []*NodeError) {
	parts := make([]T, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			parts[i], errs[i] = fn(n)
		}(i, n)
	}
	wg.Wait()
	var failed []*NodeError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &NodeError{Node: nodes[i].base, Err: err})
		}
	}
	return parts, failed
}

func strictErr(total int, failed []*NodeError) error {
	if len(failed) == 0 {
		return nil
	}
	return &scatterError{total: total, failed: failed}
}

// Dims returns the cluster's dimension names in order.
func (c *Coordinator) Dims() []string { return append([]string(nil), c.dims...) }

// NumDims returns the number of dimensions.
func (c *Coordinator) NumDims() int { return len(c.dims) }

// The coordinator validates query arguments up front with the kernel's own
// rules and error shapes (wrapping dwarf.ErrBadQuery), so it is a drop-in
// query.Querier: an invalid query fails identically against a cluster and
// a single store, without a network round trip.

func (c *Coordinator) checkSels(sels []dwarf.Selector) error {
	if len(sels) != len(c.dims) {
		return fmt.Errorf("%w: got %d selectors, cube has %d dimensions", dwarf.ErrBadQuery, len(sels), len(c.dims))
	}
	return nil
}

func (c *Coordinator) checkDim(dim int) error {
	if dim < 0 || dim >= len(c.dims) {
		return fmt.Errorf("%w: group-by dimension %d out of range", dwarf.ErrBadQuery, dim)
	}
	return nil
}

// Point answers a point/ALL-wildcard query across the cluster: per-node
// point partials merged in node order.
func (c *Coordinator) Point(keys ...string) (dwarf.Aggregate, error) {
	if len(keys) != len(c.dims) {
		return dwarf.Aggregate{}, fmt.Errorf("%w: got %d keys, cube has %d dimensions", dwarf.ErrBadQuery, len(keys), len(c.dims))
	}
	nodes := c.snapshot()
	if i, ok := c.pointOwner(keys, len(nodes)); ok {
		nodes = nodes[i : i+1]
	}
	parts, failed := scatter(nodes, func(n *node) (dwarf.Aggregate, error) {
		return n.partialAgg(partialReq{Shape: "point", Cube: c.live, Keys: keys})
	})
	if err := strictErr(len(nodes), failed); err != nil {
		return dwarf.Aggregate{}, err
	}
	return mergeAggs(parts), nil
}

// pointOwner reports the single node that can hold a fully bound point
// tuple. Append hash-routes each tuple by its full key tuple (NodeFor), so
// a point query binding every dimension matches tuples living on exactly
// one partition; every other node would contribute the zero aggregate, and
// merging zeros is the identity — asking one node is bit-identical to the
// full scatter. Routing applies only over the full partition map: an ALL
// wildcard aggregates across partitions, and a survivor view (the
// gateway's allow_partial re-run) no longer indexes like the partition map,
// so both fall back to the scatter.
func (c *Coordinator) pointOwner(keys []string, partitions int) (int, bool) {
	if c.survivors {
		return 0, false
	}
	for _, k := range keys {
		if k == dwarf.All {
			return 0, false
		}
	}
	return NodeFor(keys, partitions), true
}

// Range aggregates one selector per dimension across the cluster.
func (c *Coordinator) Range(sels []dwarf.Selector) (dwarf.Aggregate, error) {
	if err := c.checkSels(sels); err != nil {
		return dwarf.Aggregate{}, err
	}
	nodes := c.snapshot()
	req := partialReq{Shape: "range", Cube: c.live, Selectors: wireSelectors(sels)}
	parts, failed := scatter(nodes, func(n *node) (dwarf.Aggregate, error) {
		return n.partialAgg(req)
	})
	if err := strictErr(len(nodes), failed); err != nil {
		return dwarf.Aggregate{}, err
	}
	return mergeAggs(parts), nil
}

// GroupBy groups the dimension at index dim across the cluster: full
// per-node group maps merged with the kernel's map merge.
func (c *Coordinator) GroupBy(dim int, sels []dwarf.Selector) (map[string]dwarf.Aggregate, error) {
	if err := c.checkDim(dim); err != nil {
		return nil, err
	}
	if err := c.checkSels(sels); err != nil {
		return nil, err
	}
	nodes := c.snapshot()
	req := partialReq{
		Shape: "groupby", Cube: c.live,
		Dim: strconv.Itoa(dim), Selectors: wireSelectors(sels),
	}
	parts, failed := scatter(nodes, func(n *node) (map[string]dwarf.Aggregate, error) {
		return n.partialGroups(req)
	})
	if err := strictErr(len(nodes), failed); err != nil {
		return nil, err
	}
	return dwarf.MergeGroupMaps(make(map[string]dwarf.Aggregate), parts...), nil
}

// Pivot is the multi-dimension GroupBy across the cluster, returning
// sorted rows — the same merge the store applies to per-segment rows.
func (c *Coordinator) Pivot(dims []int, sels []dwarf.Selector) ([]dwarf.PivotGroup, error) {
	if err := c.checkSels(sels); err != nil {
		return nil, err
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("%w: pivot needs at least one group dimension", dwarf.ErrBadQuery)
	}
	grouped := make([]bool, len(c.dims))
	for _, d := range dims {
		if err := c.checkDim(d); err != nil {
			return nil, err
		}
		if grouped[d] {
			return nil, fmt.Errorf("%w: group-by dimension %d named twice", dwarf.ErrBadQuery, d)
		}
		grouped[d] = true
	}
	nodes := c.snapshot()
	wdims := make([]string, len(dims))
	for i, d := range dims {
		wdims[i] = strconv.Itoa(d)
	}
	req := partialReq{Shape: "pivot", Cube: c.live, Dims: wdims, Selectors: wireSelectors(sels)}
	parts, failed := scatter(nodes, func(n *node) ([]dwarf.PivotGroup, error) {
		return n.partialRows(req)
	})
	if err := strictErr(len(nodes), failed); err != nil {
		return nil, err
	}
	return dwarf.MergePivotGroups(parts...), nil
}

// TopK ranks the groups of one dimension across the cluster. Every node
// contributes its full group map; threshold and K cut run only after the
// merge (the full-map-before-cut rule, now over the network).
func (c *Coordinator) TopK(dim int, sels []dwarf.Selector, spec dwarf.TopKSpec) ([]dwarf.GroupEntry, error) {
	groups, err := c.GroupBy(dim, sels)
	if err != nil {
		return nil, err
	}
	return dwarf.TopKFromGroups(groups, spec), nil
}

// The coordinator serves the full shared query surface.
var _ query.Querier = (*Coordinator)(nil)

// Append hash-routes the batch and appends each slice to its node. The
// write is acknowledged only when every involved node acknowledged its
// slice; on failure the error names the nodes whose slices did NOT land,
// while the other nodes keep theirs — cross-node appends are not atomic,
// and pretending otherwise would hide which data is durable. Failed slices
// are safe to re-send once their node is back: the error is explicit about
// which tuples are missing. Tuples are validated up front with the store's
// own rules, so a malformed batch is rejected whole, as one store rejects
// it, before any node sees a slice.
func (c *Coordinator) Append(tuples []dwarf.Tuple) error {
	if len(tuples) == 0 {
		return fmt.Errorf("cluster: empty batch")
	}
	for i, t := range tuples {
		if err := dwarf.ValidateTuple(t, len(c.dims)); err != nil {
			return fmt.Errorf("cluster: tuple %d: %w", i, err)
		}
	}
	nodes := c.snapshot()
	buckets := make([][]dwarf.Tuple, len(nodes))
	for _, tu := range tuples {
		i := NodeFor(tu.Dims, len(nodes))
		buckets[i] = append(buckets[i], tu)
	}
	involved := make([]*node, 0, len(nodes))
	batches := make([][]dwarf.Tuple, 0, len(nodes))
	for i, b := range buckets {
		if len(b) > 0 {
			involved = append(involved, nodes[i])
			batches = append(batches, b)
		}
	}
	errs := make([]error, len(involved))
	var wg sync.WaitGroup
	for i := range involved {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = involved[i].ingest(batches[i])
		}(i)
	}
	wg.Wait()
	var failed []*NodeError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &NodeError{Node: involved[i].base, Err: err})
		}
	}
	return strictErr(len(involved), failed)
}

// Generations probes every node's store generation (via /store/stats),
// returning base URL → generation. A node that cannot be reached is
// reported in the error and omitted from the map.
func (c *Coordinator) Generations() (map[string]uint64, error) {
	nodes := c.snapshot()
	type genT struct {
		base string
		gen  uint64
	}
	parts, failed := scatter(nodes, func(n *node) (genT, error) {
		gen, err := n.generation()
		return genT{base: n.base, gen: gen}, err
	})
	out := make(map[string]uint64, len(parts))
	for _, p := range parts {
		if p.base != "" {
			out[p.base] = p.gen
		}
	}
	for _, f := range failed {
		delete(out, f.Node)
	}
	return out, strictErr(len(nodes), failed)
}

// mergeAggs folds per-node aggregates in node order.
func mergeAggs(parts []dwarf.Aggregate) dwarf.Aggregate {
	var out dwarf.Aggregate
	for _, a := range parts {
		out = dwarf.MergeAggregates(out, a)
	}
	return out
}

// wireSelectors converts kernel selectors to the serve wire form,
// preserving the HasRange-over-Keys precedence.
func wireSelectors(sels []dwarf.Selector) []wireSelector {
	if len(sels) == 0 {
		return nil
	}
	out := make([]wireSelector, len(sels))
	for i := range sels {
		switch {
		case sels[i].HasRange:
			lo, hi := sels[i].Lo, sels[i].Hi
			out[i] = wireSelector{Lo: &lo, Hi: &hi}
		case len(sels[i].Keys) > 0:
			out[i] = wireSelector{Keys: sels[i].Keys}
		}
	}
	return out
}
