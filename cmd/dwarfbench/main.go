// Command dwarfbench regenerates the paper's evaluation tables.
//
//	dwarfbench -exp table2            # datasets (Table 2)
//	dwarfbench -exp table4            # storage sizes (Table 4)
//	dwarfbench -exp table5            # insertion times (Table 5)
//	dwarfbench -exp bao               # §5.1 flat-file baseline comparison
//	dwarfbench -exp storequery        # on-store point queries per schema model
//	dwarfbench -exp parallel          # sharded-build ablation (1/2/4/8 workers)
//	dwarfbench -exp all -presets Day,Week,Month,TMonth,SMonth
//	dwarfbench -exp all -json BENCH_paper.json
//
// -workers N builds the Table 2 cubes with N shard workers (the parallel
// pipeline in internal/dwarf/parallel.go); the storage experiments reuse
// one cached cube per preset, where the worker count cannot change the
// result. The "parallel" experiment sweeps the comma-separated
// -worker-counts list against a serial baseline and fails unless every
// parallel cube has the serial cube's structure; -verify loads every saved
// cube back and fails unless it round-trips.
//
// Tables 4 and 5 come from the same run (one bulk save per schema model and
// dataset), exactly as in the paper. The default presets keep runtime small;
// pass the full list to reproduce the paper's scale (SMonth saves take
// minutes on the relational schemas, as they did for the authors). "all"
// runs storequery and parallel on the first preset only.
//
// -json also writes every result row of the run to one file, keyed by
// experiment, with the Go version, GOMAXPROCS and the commit. Serving,
// ingest, cache, pruning, compaction and cluster speed are measured end to
// end by the repo benchmark (perfbench/), not here.
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

// storeQueries is the size of the storequery point-query battery.
const storeQueries = 400

func main() {
	exp := flag.String("exp", "all", "experiment: table2, table4, table5, bao, storequery, parallel, all")
	presetsFlag := flag.String("presets", "Day,Week,Month", "comma-separated Table 2 datasets (Day,Week,Month,TMonth,SMonth)")
	kindsFlag := flag.String("kinds", "", "comma-separated schema models to run (default: all four)")
	dir := flag.String("dir", "", "working directory for store files (default: a temp dir)")
	verify := flag.Bool("verify", false, "also Load each saved cube and check the round trip")
	workers := flag.Int("workers", 1, "shard workers for -exp table2 cube construction (1 = serial)")
	workerCounts := flag.String("worker-counts", "1,2,4,8", "worker counts swept by -exp parallel")
	repeats := flag.Int("repeats", 3, "runs per measurement in -exp parallel (best kept)")
	jsonOut := flag.String("json", "", "also write all results as one JSON object to this path (e.g. BENCH_paper.json)")
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
	show := func(t *bench.Table) {
		t.Fprint(os.Stdout)
		fmt.Println()
	}

	// Each experiment prints its tables and returns its result rows, which
	// -json writes under the experiment's name.
	experiments := map[string]func(presets []string) (any, error){
		"table2": func(presets []string) (any, error) {
			rows, err := bench.RunTable2(presets, *workers)
			if err == nil {
				show(bench.FormatTable2(rows))
			}
			return rows, err
		},
		// Tables 4 and 5 come from one run, so both print whichever was
		// asked for.
		"storage": func(presets []string) (any, error) {
			results, err := bench.RunStorageExperiment(kinds, presets, *dir, *verify, progress)
			if err != nil {
				return nil, err
			}
			show(bench.FormatTable4(results, presets))
			show(bench.FormatTable5(results, presets))
			if *verify {
				t := bench.NewTable("Load (rebuild) times", "Schema model", "Dataset", "Load ms")
				for _, r := range results {
					t.AddRow(string(r.Kind), r.Preset, bench.FormatMs(r.LoadTime))
				}
				show(t)
			}
			return results, nil
		},
		"bao": func(presets []string) (any, error) {
			results, err := bench.RunBaoComparison(presets, *dir)
			if err == nil {
				show(bench.FormatBao(results))
			}
			return results, err
		},
		"storequery": func(presets []string) (any, error) {
			var all []bench.QueryResult
			for _, preset := range presets {
				results, err := bench.RunQueryExperiment(mapper.AllKinds(), preset, storeQueries, *dir)
				if err != nil {
					return nil, err
				}
				all = append(all, results...)
			}
			show(bench.FormatQuery(all))
			return all, nil
		},
		"parallel": func(presets []string) (any, error) {
			var counts []int
			for _, f := range strings.Split(*workerCounts, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil || n < 1 {
					return nil, fmt.Errorf("bad -worker-counts entry %q", f)
				}
				counts = append(counts, n)
			}
			results, err := bench.RunParallelBuild(presets, counts, *repeats)
			if err == nil {
				show(bench.FormatParallelBuild(results))
			}
			return results, err
		},
	}

	type step struct {
		name    string
		presets []string
	}
	var plan []step
	switch *exp {
	case "all":
		plan = []step{
			{"table2", presets}, {"storage", presets}, {"bao", presets},
			{"storequery", presets[:1]}, {"parallel", presets[:1]},
		}
	case "table4", "table5":
		plan = []step{{"storage", presets}}
	case "table2", "bao", "storequery", "parallel":
		plan = []step{{*exp, presets}}
	default:
		fail(fmt.Errorf("unknown experiment %q", *exp))
	}

	results := map[string]any{}
	for _, s := range plan {
		r, err := experiments[s.name](s.presets)
		if err != nil {
			fail(err)
		}
		results[s.name] = r
	}
	if *jsonOut != "" {
		if err := bench.WriteJSON(*jsonOut, results); err != nil {
			fail(err)
		}
		progress("wrote " + *jsonOut)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dwarfbench:", err)
	os.Exit(1)
}
