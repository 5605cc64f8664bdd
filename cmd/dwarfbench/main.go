// Command dwarfbench regenerates the paper's evaluation tables.
//
//	dwarfbench -exp table2            # datasets (Table 2)
//	dwarfbench -exp table4            # storage sizes (Table 4)
//	dwarfbench -exp table5            # insertion times (Table 5)
//	dwarfbench -exp bao               # §5.1 flat-file baseline comparison
//	dwarfbench -exp storequery        # on-store point queries per schema model
//	dwarfbench -exp all -presets Day,Week,Month,TMonth,SMonth
//	dwarfbench -exp all -json BENCH_paper.json
//
// Table 2 builds each preset's cube with the serial dwarf.New; the storage
// experiments reuse one cached cube per preset. -verify loads every saved
// cube back and fails unless it round-trips.
//
// Tables 4 and 5 come from the same run (one bulk save per schema model and
// dataset), exactly as in the paper. The default presets keep runtime small;
// pass the full list to reproduce the paper's scale (SMonth saves take
// minutes on the relational schemas, as they did for the authors). "all"
// runs storequery on the first preset only.
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
	"strings"

	"repro/internal/bench"
	"repro/internal/mapper"
)

// storeQueries is the size of the storequery point-query battery.
const storeQueries = 400

func main() {
	exp := flag.String("exp", "all", "experiment: table2, table4, table5, bao, storequery, all")
	presetsFlag := flag.String("presets", "Day,Week,Month", "comma-separated Table 2 datasets (Day,Week,Month,TMonth,SMonth)")
	kindsFlag := flag.String("kinds", "", "comma-separated schema models to run (default: all four)")
	dir := flag.String("dir", "", "working directory for store files (default: a temp dir)")
	verify := flag.Bool("verify", false, "also Load each saved cube and check the round trip")
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
			rows, err := bench.RunTable2(presets)
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
			{"storequery", presets[:1]},
		}
	case "table4", "table5":
		plan = []step{{"storage", presets}}
	case "table2", "bao", "storequery":
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
