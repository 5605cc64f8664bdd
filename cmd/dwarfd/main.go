// Command dwarfd serves DWARF cube files over HTTP, zero-copy: queries are
// answered straight off the encoded bytes through dwarf.CubeView, with a
// small LRU keeping hot views shared across requests. Point a directory of
// .dwarf files at it (dwarfcli / repro.WriteCubeFile produce them; files
// written with the v2 offset trailer open in O(1)):
//
//	dwarfd -dir /var/cubes -addr :8080 -cache 16
//
// With -live it additionally runs a WAL-backed live cube store in that
// directory: POST /ingest appends tuple batches durably, the reserved cube
// name "live" answers every query shape over sealed segments plus the
// memtable, and sealing/compaction run in the background:
//
//	dwarfd -live /var/livecube -dims Year,Month,Day,Hour,Quarter,Area,Station,Status
//
// The live store caches hot GroupBy/Pivot/TopK results (generation-stamped,
// never stale; -cache-bytes sets the budget) and can maintain pre-aggregated
// rollup segments over dimension subsets that grouped queries route through
// (-rollup, repeatable):
//
//	dwarfd -live /var/livecube -cache-bytes 67108864 -rollup Area,Status -rollup Area
//
// Endpoints:
//
//	GET  /cubes                                        registry + hot cache
//	GET  /query/point?cube=week.dwarf&key=2015&key=*…  one key per dimension
//	POST /query/range    {"cube":…,"selectors":[{"lo":…,"hi":…},…]}
//	POST /query/groupby  {"cube":…,"dim":"Area","selectors":[…],"limit":…,"offset":…}
//	POST /query/pivot    {"cube":…,"dims":["Area","Status"],"selectors":[…]}
//	POST /query/topk     {"cube":…,"dim":"Station","k":10,"by":"sum","threshold":…}
//	POST /query/rollup   {"cube":…,"keep":["Month","Area"]}
//	GET  /stats?cube=week.dwarf
//	POST /ingest         {"tuples":[{"dims":[…],"measure":…},…]}   (-live)
//	GET  /store/stats                                              (-live)
//	POST /query/partial  {"shape":…,"cube":…,…}                    (-cluster-node)
//
// -cluster-node additionally serves the unpaged partial-result wire format
// a cluster coordinator (see cmd/dwarfgw) scatter-gathers over.
//
// -warm pre-opens cube files into the view LRU at startup ("*" warms every
// .dwarf file in -dir), and -time-dim/-time-layout enable trailing-window
// queries: a /query/* body carrying "window":"24h" compiles to a range
// selector [now-24h, now] on the named dimension.
//
// Every query shape runs through the unified kernel and works identically
// on cube files and the live cube. Keyed responses (groupby/topk/rollup)
// are capped at -group-limit groups per response and paginated with
// limit/offset.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cubestore"
	"repro/internal/serve"
	"repro/internal/smartcity"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "directory of .dwarf cube files (default: the -live dir, else .)")
	cache := flag.Int("cache", serve.DefaultCacheSize, "hot cube views kept in the LRU")
	groupLimit := flag.Int("group-limit", serve.DefaultGroupLimit,
		"max groups per group-by/top-k/rollup response (clients page with limit/offset)")
	live := flag.String("live", "", "directory of a live cube store to open (enables /ingest)")
	dims := flag.String("dims", strings.Join(smartcity.BikeDims, ","),
		"comma-separated dimension list for a newly created -live store")
	sealTuples := flag.Int("seal", cubestore.DefaultSealTuples, "live store: memtable tuples per sealed segment")
	sealAge := flag.Duration("seal-age", time.Minute, "live store: seal a non-empty memtable after this age (0 disables)")
	workers := flag.Int("workers", 1, "live store: shard workers for memtable builds and seals")
	cacheBytes := flag.Int64("cache-bytes", 64<<20,
		"live store: hot-result query cache budget in bytes (0 disables)")
	clusterNode := flag.Bool("cluster-node", false,
		"serve POST /query/partial for a cluster coordinator (dwarfgw) to scatter-gather over")
	warm := flag.String("warm", "",
		"comma-separated cube file names to pre-open into the view LRU at startup (* warms every .dwarf file in -dir)")
	timeDim := flag.String("time-dim", "",
		"dimension that query \"window\" parameters compile a range selector against")
	timeLayout := flag.String("time-layout", "2006-01-02",
		"Go time layout the -time-dim keys are formatted with")
	var rollups [][]string
	flag.Func("rollup", "live store: comma-separated dimension subset to maintain a rollup segment for (repeatable)",
		func(v string) error {
			var names []string
			for _, d := range strings.Split(v, ",") {
				if d = strings.TrimSpace(d); d != "" {
					names = append(names, d)
				}
			}
			if len(names) == 0 {
				return fmt.Errorf("empty dimension list")
			}
			rollups = append(rollups, names)
			return nil
		})
	flag.Parse()

	dimsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "dims" {
			dimsSet = true
		}
	})

	opts := serve.Options{
		Dir: *dir, CacheSize: *cache, GroupLimit: *groupLimit, ClusterNode: *clusterNode,
		TimeDim: *timeDim, TimeLayout: *timeLayout,
	}
	var store *cubestore.Store
	if *live != "" {
		// The -dims default only applies to a store being created; an
		// existing store's manifest is the truth unless -dims was given
		// explicitly (then Open validates it against the manifest).
		var dimList []string
		if dimsSet || !cubestore.Exists(*live) {
			for _, d := range strings.Split(*dims, ",") {
				if d = strings.TrimSpace(d); d != "" {
					dimList = append(dimList, d)
				}
			}
		}
		var err error
		store, err = cubestore.Open(*live, cubestore.Options{
			Dims:       dimList,
			SealTuples: *sealTuples,
			SealAge:    *sealAge,
			Workers:    *workers,
			CacheBytes: *cacheBytes,
			Rollups:    rollups,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwarfd:", err)
			os.Exit(1)
		}
		opts.Store = store
		if opts.Dir == "" {
			opts.Dir = *live // sealed segments are ordinary cube files
		}
		fmt.Fprintf(os.Stderr, "dwarfd: live store at %s (dims %v, %d tuples recovered)\n",
			*live, store.Dims(), store.TotalTuples())
	} else if opts.Dir == "" {
		opts.Dir = "."
	}

	fmt.Fprintf(os.Stderr, "dwarfd: serving cubes from %s on %s (cache %d)\n", opts.Dir, *addr, *cache)
	srv, err := serve.New(opts)
	if err == nil && *warm != "" {
		err = srv.Warm(warmList(*warm, opts.Dir))
	}
	if err == nil {
		// ListenAndServe only returns on failure; stop the store's background
		// maintenance before exiting (os.Exit would skip a defer).
		err = serve.NewHTTPServer(*addr, srv.Handler()).ListenAndServe()
	}
	if store != nil {
		store.Close()
	}
	fmt.Fprintln(os.Stderr, "dwarfd:", err)
	os.Exit(1)
}

// warmList expands the -warm argument: explicit comma-separated names, or
// every .dwarf file in dir for "*".
func warmList(arg, dir string) []string {
	if arg != "*" {
		var names []string
		for _, n := range strings.Split(arg, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		return names
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".dwarf") {
			names = append(names, e.Name())
		}
	}
	return names
}
