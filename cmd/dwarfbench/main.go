// Command dwarfbench regenerates the paper's evaluation tables.
//
//	dwarfbench -exp table2            # datasets (Table 2)
//	dwarfbench -exp table4            # storage sizes (Table 4)
//	dwarfbench -exp table5            # insertion times (Table 5)
//	dwarfbench -exp bao               # §5.1 flat-file baseline comparison
//	dwarfbench -exp query             # unified kernel: Cube vs zero-copy CubeView
//	dwarfbench -exp storequery        # on-store point queries per schema model
//	dwarfbench -exp parallel          # sharded-build ablation (1/2/4/8 workers)
//	dwarfbench -exp serve             # serving path: Decode vs CubeView open + q/s
//	dwarfbench -exp ingest            # live store: WAL+memtable ingest + freshness
//	dwarfbench -exp ingest -writers 1,4,16,64   # group-commit writer ladder
//	dwarfbench -exp compact           # segment compaction: decode+Merge vs MergeViews
//	dwarfbench -exp http              # live TCP load: append encoders vs reflection
//	dwarfbench -exp cache             # hot-result cache + rollups vs plain fan-out
//	dwarfbench -exp cluster           # scatter-gather over N nodes vs one store
//	dwarfbench -exp prune             # zone-map pruning: windowed queries vs full fan-out
//	dwarfbench -exp all -presets Day,Week,Month,TMonth,SMonth
//
// -workers N builds the Table 2 cubes with N shard workers (the parallel
// pipeline in internal/dwarf/parallel.go); the storage experiments reuse
// one cached cube per preset, where the worker count cannot change the
// result. The "parallel" experiment sweeps the comma-separated
// -worker-counts list against a serial baseline.
//
// Tables 4 and 5 come from the same run (one bulk save per schema model and
// dataset), exactly as in the paper. The default presets keep runtime small;
// pass the full list to reproduce the paper's scale (SMonth saves take
// minutes on the relational schemas, as they did for the authors).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/mapper"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table2, table4, table5, bao, query, storequery, parallel, serve, ingest, compact, http, cache, cluster, prune, all")
	presetsFlag := flag.String("presets", "Day,Week,Month", "comma-separated Table 2 datasets (Day,Week,Month,TMonth,SMonth)")
	kindsFlag := flag.String("kinds", "", "comma-separated schema models to run (default: all four)")
	dir := flag.String("dir", "", "working directory for store files (default: a temp dir)")
	verify := flag.Bool("verify", false, "also Load each saved cube and check the round trip")
	workers := flag.Int("workers", 1, "shard workers for -exp table2 cube construction (1 = serial)")
	workerCounts := flag.String("worker-counts", "1,2,4,8", "worker counts swept by -exp parallel")
	repeats := flag.Int("repeats", 3, "runs per measurement in -exp parallel/serve (best kept)")
	queries := flag.Int("queries", 2000, "point queries per battery in -exp serve/query")
	batch := flag.Int("batch", 512, "tuples per Append in -exp ingest")
	parts := flag.Int("parts", 4, "input segments merged by -exp compact")
	jsonOut := flag.String("json", "", "also write -exp compact/query results as JSON to this path (e.g. BENCH_query.json)")
	connsFlag := flag.String("conns", "1,16,64", "concurrent connections swept by -exp http")
	requests := flag.Int("requests", 12000, "total requests per -exp http run")
	sealTuples := flag.Int("seal", 0, "live-store seal threshold in -exp ingest (0 = default)")
	writersFlag := flag.String("writers", "", "concurrent-writer ladder for -exp ingest, e.g. 1,4,16,64 (empty = single-writer replay)")
	sync := flag.Bool("sync", true, "fsync every Append in -exp ingest (the durable configuration)")
	nodes := flag.Int("nodes", 3, "in-process dwarfd nodes in -exp cluster")
	quiet := flag.Bool("q", false, "suppress progress lines")
	flag.Parse()

	presets := strings.Split(*presetsFlag, ",")
	for i := range presets {
		presets[i] = strings.TrimSpace(presets[i])
	}
	kinds := mapper.AllKinds()
	if *kindsFlag != "" {
		kinds = nil
		for _, k := range strings.Split(*kindsFlag, ",") {
			kinds = append(kinds, mapper.Kind(strings.TrimSpace(k)))
		}
	}
	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintln(os.Stderr, msg)
		}
	}

	runTables45 := func() error {
		results, err := bench.RunStorageExperiment(kinds, presets, *dir, *verify, progress)
		if err != nil {
			return err
		}
		// Both tables come from the same run, so print both whichever was
		// asked for.
		bench.FormatTable4(results, presets).Fprint(os.Stdout)
		fmt.Println()
		bench.FormatTable5(results, presets).Fprint(os.Stdout)
		fmt.Println()
		{
			if *verify {
				t := bench.NewTable("Load (rebuild) times", "Schema model", "Dataset", "Load ms")
				for _, r := range results {
					if r.Loaded {
						t.AddRow(string(r.Kind), r.Preset, bench.FormatMs(r.LoadTime))
					}
				}
				t.Fprint(os.Stdout)
				fmt.Println()
			}
		}
		return nil
	}

	ingestOpts := bench.IngestOptions{
		BatchSize:  *batch,
		SealTuples: *sealTuples,
		Workers:    *workers,
		Sync:       *sync,
		Verify:     *verify,
		Repeats:    *repeats,
	}

	var err error
	switch *exp {
	case "table2":
		err = runTable2(presets, *workers)
	case "table4", "table5":
		err = runTables45()
	case "bao":
		err = runBao(presets, *dir)
	case "query":
		err = runQueryKernel(presets, *queries, *jsonOut, progress)
	case "storequery":
		err = runQuery(presets, *dir)
	case "parallel":
		err = runParallel(presets, *workerCounts, *repeats)
	case "serve":
		err = runServe(presets, *queries, *repeats)
	case "ingest":
		if *writersFlag != "" {
			err = runIngestLadder(presets, *writersFlag, ingestOpts, *jsonOut, progress)
		} else {
			err = runIngest(presets, ingestOpts, progress)
		}
	case "compact":
		err = runCompact(presets, *parts, *repeats, *jsonOut)
	case "http":
		err = runHTTPLoad(presets[0], *connsFlag, *requests, *jsonOut, progress)
	case "cache":
		err = runCacheBench(presets, *requests, *jsonOut, progress)
	case "cluster":
		err = runClusterBench(presets, *nodes, *queries, *jsonOut, progress)
	case "prune":
		err = runPruneBench(presets, *jsonOut, progress)
	case "all":
		if err = runTable2(presets, *workers); err == nil {
			if err = runTables45(); err == nil {
				if err = runBao(presets, *dir); err == nil {
					if err = runQueryKernel(presets[:1], *queries, "", progress); err == nil {
						err = runQuery(presets[:1], *dir)
					}
					if err == nil {
						if err = runParallel(presets[:1], *workerCounts, *repeats); err == nil {
							if err = runServe(presets[:1], *queries, *repeats); err == nil {
								if err = runIngest(presets[:1], ingestOpts, progress); err == nil {
									err = runCompact(presets[:1], *parts, *repeats, *jsonOut)
								}
							}
						}
					}
				}
			}
		}
	default:
		err = fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarfbench:", err)
		os.Exit(1)
	}
}

func runTable2(presets []string, workers int) error {
	rows, err := bench.RunTable2(presets, workers)
	if err != nil {
		return err
	}
	bench.FormatTable2(rows).Fprint(os.Stdout)
	fmt.Println()
	return nil
}

func runParallel(presets []string, countsFlag string, repeats int) error {
	var counts []int
	for _, f := range strings.Split(countsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -worker-counts entry %q", f)
		}
		counts = append(counts, n)
	}
	results, err := bench.RunParallelBuild(presets, counts, repeats)
	if err != nil {
		return err
	}
	bench.FormatParallelBuild(results).Fprint(os.Stdout)
	fmt.Println()
	return nil
}

func runCompact(presets []string, parts, repeats int, jsonOut string) error {
	results, err := bench.RunCompact(presets, parts, repeats)
	if err != nil {
		return err
	}
	bench.FormatCompact(results).Fprint(os.Stdout)
	fmt.Println()
	if jsonOut != "" {
		if err := bench.WriteCompactJSON(jsonOut, results); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", jsonOut)
	}
	return nil
}

func runIngest(presets []string, opts bench.IngestOptions, progress func(string)) error {
	results, err := bench.RunIngest(presets, opts, progress)
	if err != nil {
		return err
	}
	bench.FormatIngest(results).Fprint(os.Stdout)
	fmt.Println()
	return nil
}

func runIngestLadder(presets []string, writersFlag string, opts bench.IngestOptions, jsonOut string, progress func(string)) error {
	var counts []int
	for _, f := range strings.Split(writersFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -writers entry %q", f)
		}
		counts = append(counts, n)
	}
	results, err := bench.RunIngestLadder(presets, counts, opts, progress)
	if err != nil {
		return err
	}
	bench.FormatIngestLadder(results).Fprint(os.Stdout)
	fmt.Println()
	if jsonOut != "" {
		if err := bench.WriteIngestJSON(jsonOut, results); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", jsonOut)
	}
	return nil
}

func runServe(presets []string, queries, repeats int) error {
	results, err := bench.RunServe(presets, queries, repeats)
	if err != nil {
		return err
	}
	bench.FormatServe(results).Fprint(os.Stdout)
	fmt.Println()
	return nil
}

func runBao(presets []string, dir string) error {
	results, err := bench.RunBaoComparison(presets, dir)
	if err != nil {
		return err
	}
	bench.FormatBao(results).Fprint(os.Stdout)
	fmt.Println()
	return nil
}

func runQueryKernel(presets []string, queries int, jsonOut string, progress func(string)) error {
	results, err := bench.RunQueryKernel(presets, queries, progress)
	if err != nil {
		return err
	}
	bench.FormatQueryKernel(results).Fprint(os.Stdout)
	fmt.Println()
	if jsonOut != "" {
		if err := bench.WriteQueryJSON(jsonOut, results); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", jsonOut)
	}
	return nil
}

func runCacheBench(presets []string, requests int, jsonOut string, progress func(string)) error {
	results, err := bench.RunCacheBench(presets, requests, progress)
	if err != nil {
		return err
	}
	bench.FormatCacheBench(results).Fprint(os.Stdout)
	fmt.Println()
	bench.FormatCacheLadder(results).Fprint(os.Stdout)
	fmt.Println()
	if jsonOut != "" {
		if err := bench.WriteCacheJSON(jsonOut, results); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", jsonOut)
	}
	return nil
}

func runPruneBench(presets []string, jsonOut string, progress func(string)) error {
	results, err := bench.RunPruneBench(presets, progress)
	if err != nil {
		return err
	}
	bench.FormatPruneBench(results).Fprint(os.Stdout)
	fmt.Println()
	if jsonOut != "" {
		if err := bench.WritePruneJSON(jsonOut, results); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", jsonOut)
	}
	return nil
}

func runClusterBench(presets []string, nodes, queries int, jsonOut string, progress func(string)) error {
	results, err := bench.RunClusterBench(presets, nodes, queries, progress)
	if err != nil {
		return err
	}
	bench.FormatClusterBench(results).Fprint(os.Stdout)
	fmt.Println()
	if jsonOut != "" {
		if err := bench.WriteClusterJSON(jsonOut, results); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", jsonOut)
	}
	return nil
}

func runHTTPLoad(preset, connsFlag string, requests int, jsonOut string, progress func(string)) error {
	var conns []int
	for _, f := range strings.Split(connsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -conns entry %q", f)
		}
		conns = append(conns, n)
	}
	results, handler, err := bench.RunHTTPLoad(bench.HTTPOptions{
		Preset: preset, Conns: conns, Requests: requests,
	}, progress)
	if err != nil {
		return err
	}
	bench.FormatHTTPHandler(handler).Fprint(os.Stdout)
	fmt.Println()
	bench.FormatHTTPLoad(results).Fprint(os.Stdout)
	fmt.Println()
	if jsonOut != "" {
		if err := bench.WriteHTTPJSON(jsonOut, results, handler); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", jsonOut)
	}
	return nil
}

func runQuery(presets []string, dir string) error {
	var all []bench.QueryResult
	for _, preset := range presets {
		results, err := bench.RunQueryExperiment(mapper.AllKinds(), preset, 400, dir)
		if err != nil {
			return err
		}
		all = append(all, results...)
	}
	bench.FormatQuery(all).Fprint(os.Stdout)
	fmt.Println()
	return nil
}
