package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/flatfile"
	"repro/internal/mapper"
)

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("Title", "A", "Bee", "C")
	tbl.AddRow("1", "2", "3")
	tbl.AddRow("long-cell", "x", "yy")
	out := tbl.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// Aligned columns: header and rows share column start offsets.
	if !strings.Contains(lines[1], "A") || !strings.Contains(lines[3], "1") {
		t.Errorf("table body wrong: %q", out)
	}
	if idxOf(lines[1], "Bee") != idxOf(lines[3], "2") {
		t.Errorf("columns unaligned:\n%s", out)
	}
}

func idxOf(s, sub string) int { return strings.Index(s, sub) }

func TestFormatHelpers(t *testing.T) {
	if got := FormatMB(0); got != "0" {
		t.Errorf("FormatMB(0) = %q", got)
	}
	if got := FormatMB(500 * 1024); got != "< 1" {
		t.Errorf("FormatMB(500KiB) = %q, want the paper's \"< 1\"", got)
	}
	if got := FormatMB(5 << 20); got != "5" {
		t.Errorf("FormatMB(5MiB) = %q", got)
	}
	if got := FormatMs(1500 * time.Millisecond); got != "1500" {
		t.Errorf("FormatMs = %q", got)
	}
}

func TestDatasetCacheIsStable(t *testing.T) {
	a, err := DatasetTuples("Day")
	if err != nil {
		t.Fatal(err)
	}
	b, err := DatasetTuples("Day")
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("dataset not cached")
	}
	c1, err := DatasetCube("Day")
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := DatasetCube("Day")
	if c1 != c2 {
		t.Error("cube not cached")
	}
	if _, err := DatasetTuples("Bogus"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestRunTable2(t *testing.T) {
	rows, err := RunTable2([]string{"Day"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Tuples != 7358 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].XMLBytes <= 0 || rows[0].CubeNodes <= 0 {
		t.Errorf("row = %+v", rows[0])
	}
	out := FormatTable2(rows).String()
	if !strings.Contains(out, "7358") || !strings.Contains(out, "Day") {
		t.Errorf("table2 = %q", out)
	}
}

func TestRunStorageExperimentAndTables(t *testing.T) {
	kinds := []mapper.Kind{mapper.KindNoSQLDwarf, mapper.KindMySQLMin}
	results, err := RunStorageExperiment(kinds, []string{"Day"}, t.TempDir(), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	for _, r := range results {
		if r.Bytes <= 0 || r.SaveTime <= 0 || !r.Loaded || r.LoadTime <= 0 {
			t.Errorf("result = %+v", r)
		}
	}
	t4 := FormatTable4(results, []string{"Day"}).String()
	if !strings.Contains(t4, "NoSQL-DWARF") || !strings.Contains(t4, "MySQL-Min") {
		t.Errorf("table4 = %q", t4)
	}
	// Schema models without results are omitted.
	if strings.Contains(t4, "NoSQL-Min") {
		t.Errorf("table4 should omit kinds without measurements: %q", t4)
	}
	t5 := FormatTable5(results, []string{"Day"}).String()
	if !strings.Contains(t5, "927") { // the paper's NoSQL-DWARF Day cell
		t.Errorf("table5 missing paper reference: %q", t5)
	}
}

func TestRunBaoComparison(t *testing.T) {
	results, err := RunBaoComparison([]string{"Day"}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	for _, r := range results {
		if r.Bytes <= 0 || r.NoSQLDwarfB <= 0 {
			t.Errorf("result = %+v", r)
		}
	}
	out := FormatBao(results).String()
	if !strings.Contains(out, "hierarchical") || !strings.Contains(out, "recursive") {
		t.Errorf("bao table = %q", out)
	}
}

func TestRunQueryExperiment(t *testing.T) {
	results, err := RunQueryExperiment([]mapper.Kind{mapper.KindNoSQLDwarf, mapper.KindNoSQLMin},
		"Day", 50, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	for _, r := range results {
		if r.Queries != 50 || r.PerQuery <= 0 || r.LoadTime <= 0 {
			t.Errorf("result = %+v", r)
		}
	}
	out := FormatQuery(results).String()
	if !strings.Contains(out, "On-store") || !strings.Contains(out, "NoSQL-Min") {
		t.Errorf("query table = %q", out)
	}
}

func TestPaperReferenceDataComplete(t *testing.T) {
	presets := []string{"Day", "Week", "Month", "TMonth", "SMonth"}
	for _, kind := range mapper.AllKinds() {
		for _, p := range presets {
			if _, ok := PaperTable4[kind][p]; !ok {
				t.Errorf("PaperTable4 missing %s/%s", kind, p)
			}
			if _, ok := PaperTable5[kind][p]; !ok {
				t.Errorf("PaperTable5 missing %s/%s", kind, p)
			}
		}
	}
}

func TestWriteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "paper.json")
	rows := []BaoResult{{Preset: "Day", Layout: flatfile.Recursive, Bytes: 10, WriteTime: time.Millisecond}}
	if err := WriteJSON(path, map[string]any{"bao": rows}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		GoVersion   string `json:"go_version"`
		GoMaxProcs  int    `json:"gomaxprocs"`
		Commit      string `json:"commit"`
		Experiments map[string][]map[string]any
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.GoVersion != runtime.Version() || got.GoMaxProcs != runtime.GOMAXPROCS(0) || got.Commit == "" {
		t.Errorf("header = %+v", got)
	}
	bao := got.Experiments["bao"]
	if len(bao) != 1 || bao[0]["layout"] != "recursive" || bao[0]["write_ns"] != float64(time.Millisecond) {
		t.Errorf("bao rows = %v", bao)
	}
}
