// Command dwarfgw is the cluster gateway: it fronts N dwarfd nodes (each
// started with -live … -cluster-node) and answers the full dwarfd query
// surface by scatter-gather — every query fans out to all nodes'
// /query/partial endpoints (a fully bound point to its one owner) and the
// partials merge exactly as one store merges its own per-segment partials.
// Ingest is hash-partitioned: each tuple's dimension keys pick its home
// node, so per-node cubes hold disjoint cells and merge losslessly.
//
//	dwarfgw -addr :8090 -nodes http://n1:8080,http://n2:8080,http://n3:8080 \
//	        -dims Year,Month,Day,Hour,Quarter,Area,Station,Status
//
// The node list order IS the partition map — keep it stable across
// restarts, and replace a failed node in place (same position, recovered
// store) rather than removing it.
//
// The gateway is dwarfd's own HTTP server with the cluster coordinator as
// its live source, so every request and response shape, paging rule and
// error status is dwarfd's (docs/SERVING.md). The live cube is the nodes'
// cube (-live-name) and the default when a request names none. Beyond
// dwarfd's surface:
//
//	GET /cluster/stats   per-node reachability and store generation
//
// The /ingest ack carries "appended" only: a cluster total would cost a
// round trip to every node.
//
// A node failure fails the query with 502 and an error naming every failed
// node — never a silently short total. Query bodies carrying
// "allow_partial": true instead get the merge over the surviving nodes,
// explicitly marked with "partial": true and the failed node list.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/smartcity"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	nodes := flag.String("nodes", "", "comma-separated dwarfd node base URLs, in partition order (required)")
	dims := flag.String("dims", strings.Join(smartcity.BikeDims, ","),
		"comma-separated dimension list; must match every node's store")
	liveName := flag.String("live-name", "", "cube name queried on the nodes (default: the nodes' live cube)")
	timeout := flag.Duration("timeout", cluster.DefaultTimeout, "per-node HTTP attempt timeout")
	retries := flag.Int("retries", cluster.DefaultRetries,
		"query retries per node beyond the first attempt (-1 disables); ingest is never retried")
	backoff := flag.Duration("backoff", cluster.DefaultBackoff, "wait before the first retry, doubling per attempt")
	groupLimit := flag.Int("group-limit", serve.DefaultGroupLimit,
		"max groups per group-by/top-k/rollup response (clients page with limit/offset)")
	flag.Parse()

	var nodeList []string
	for _, u := range strings.Split(*nodes, ",") {
		if u = strings.TrimSpace(u); u != "" {
			nodeList = append(nodeList, u)
		}
	}
	var dimList []string
	for _, d := range strings.Split(*dims, ",") {
		if d = strings.TrimSpace(d); d != "" {
			dimList = append(dimList, d)
		}
	}
	coord, err := cluster.New(cluster.Options{
		Nodes:    nodeList,
		Dims:     dimList,
		LiveName: *liveName,
		Timeout:  *timeout,
		Retries:  *retries,
		Backoff:  *backoff,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarfgw:", err)
		os.Exit(1)
	}

	gens, err := coord.Generations()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dwarfgw: warning: not all nodes reachable at startup: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "dwarfgw: %d nodes, %d reachable, dims %v, serving on %s\n",
		coord.NumNodes(), len(gens), dimList, *addr)

	srv := serve.NewHTTPServer(*addr, cluster.NewGateway(coord, *groupLimit).Handler())
	fmt.Fprintln(os.Stderr, "dwarfgw:", srv.ListenAndServe())
	os.Exit(1)
}
