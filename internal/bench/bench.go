// Package bench is the experiment harness: it regenerates every table of
// the paper's evaluation (§5) — Table 2 (datasets), Table 4 (storage size
// per schema model), Table 5 (bulk-insertion time per schema model) — plus
// the §5.1 comparison against the Bao-et-al. flat-file baselines, and
// carries the paper's published numbers for side-by-side reporting.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dwarf"
	"repro/internal/flatfile"
	"repro/internal/mapper"
	"repro/internal/smartcity"
)

// Table is a fixed-width text table in the style of the paper's layout.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a titled table.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteString("\n")
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, row := range t.Rows {
		line(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// FormatMB prints bytes in the paper's integer-megabyte convention,
// including the "< 1" rendering of Table 4.
func FormatMB(bytes int64) string {
	mb := bytes / (1 << 20)
	if mb == 0 && bytes > 0 {
		return "< 1"
	}
	return fmt.Sprintf("%d", mb)
}

// FormatMs prints a duration as integer milliseconds (Table 5's unit).
func FormatMs(d time.Duration) string {
	return fmt.Sprintf("%d", d.Milliseconds())
}

// report is the -json output: the result rows of every experiment that
// ran, keyed by experiment name, with what it takes to compare two files.
type report struct {
	GoVersion   string         `json:"go_version"`
	GoMaxProcs  int            `json:"gomaxprocs"`
	Commit      string         `json:"commit"`
	Experiments map[string]any `json:"experiments"`
}

// WriteJSON writes the experiments' results to path as one JSON object,
// stamped with the Go version, GOMAXPROCS and the source commit.
func WriteJSON(path string, experiments map[string]any) error {
	data, err := json.MarshalIndent(report{
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Commit:      commit(),
		Experiments: experiments,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit names the checked-out revision, with "+dirty" when tracked files
// differ from it, or "unknown" outside a git checkout. go run stamps no
// VCS information into the binary, so ask git.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

// Dataset cache: built once per process, shared by benchmarks and the
// harness binary.
var (
	cacheMu sync.Mutex
	tupleC  = map[string][]dwarf.Tuple{}
	cubeC   = map[string]*dwarf.Cube{}
)

// DatasetTuples returns (and caches) a preset's fact tuples.
func DatasetTuples(preset string) ([]dwarf.Tuple, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if ts, ok := tupleC[preset]; ok {
		return ts, nil
	}
	ts, err := smartcity.Dataset(preset)
	if err != nil {
		return nil, err
	}
	tupleC[preset] = ts
	return ts, nil
}

// DatasetCube returns (and caches) a preset's built cube.
func DatasetCube(preset string) (*dwarf.Cube, error) {
	cacheMu.Lock()
	if c, ok := cubeC[preset]; ok {
		cacheMu.Unlock()
		return c, nil
	}
	cacheMu.Unlock()
	tuples, err := DatasetTuples(preset)
	if err != nil {
		return nil, err
	}
	c, err := dwarf.New(smartcity.BikeDims, tuples)
	if err != nil {
		return nil, err
	}
	cacheMu.Lock()
	cubeC[preset] = c
	cacheMu.Unlock()
	return c, nil
}

// countingWriter counts bytes without retaining them.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// Table2Row is one dataset row: tuples and source-XML size, measured vs.
// the paper's figures.
type Table2Row struct {
	Preset    smartcity.Preset `json:"preset"`
	Tuples    int              `json:"tuples"`
	XMLBytes  int64            `json:"xml_bytes"`
	CubeNodes int              `json:"cube_nodes"`
	CubeCells int              `json:"cube_cells"`
	BuildTime time.Duration    `json:"build_ns"`
}

// RunTable2 generates each preset, measures its emitted XML size and the
// cube construction stats.
func RunTable2(presets []string) ([]Table2Row, error) {
	var out []Table2Row
	for _, name := range presets {
		p, err := smartcity.PresetByName(name)
		if err != nil {
			return nil, err
		}
		recs, err := smartcity.DatasetRecords(name)
		if err != nil {
			return nil, err
		}
		var cw countingWriter
		if err := smartcity.WriteBikesXML(&cw, recs); err != nil {
			return nil, err
		}
		tuples := make([]dwarf.Tuple, len(recs))
		for i, r := range recs {
			tuples[i] = r.Tuple()
		}
		start := time.Now()
		cube, err := dwarf.New(smartcity.BikeDims, tuples)
		if err != nil {
			return nil, err
		}
		build := time.Since(start)
		st := cube.Stats()
		out = append(out, Table2Row{
			Preset: p, Tuples: len(tuples), XMLBytes: cw.n,
			CubeNodes: st.Nodes, CubeCells: st.TotalCells(), BuildTime: build,
		})
	}
	return out, nil
}

// FormatTable2 renders the Table 2 comparison.
func FormatTable2(rows []Table2Row) *Table {
	t := NewTable("Table 2 — datasets (measured XML vs paper's source size)",
		"Dataset", "Tuples (paper)", "Tuples (ours)", "Size MB (paper)", "XML MB (ours)",
		"Cube nodes", "Cube cells", "Build time")
	for _, r := range rows {
		t.AddRow(r.Preset.Name,
			fmt.Sprintf("%d", r.Preset.Tuples),
			fmt.Sprintf("%d", r.Tuples),
			fmt.Sprintf("%.1f", r.Preset.PaperMB),
			fmt.Sprintf("%.1f", float64(r.XMLBytes)/(1<<20)),
			fmt.Sprintf("%d", r.CubeNodes),
			fmt.Sprintf("%d", r.CubeCells),
			r.BuildTime.Round(time.Millisecond).String())
	}
	return t
}

// StoreResult is one (schema model, dataset) measurement for Tables 4/5.
type StoreResult struct {
	Kind     mapper.Kind   `json:"kind"`
	Preset   string        `json:"preset"`
	SaveTime time.Duration `json:"save_ns"`
	Bytes    int64         `json:"bytes"`
	LoadTime time.Duration `json:"load_ns,omitempty"`
	Loaded   bool          `json:"loaded"`
}

// RunStorageExperiment saves each preset's cube in each schema model,
// timing the bulk insert (Table 5) and measuring the stored size (Table 4).
// When verifyLoad is set it also times Load and checks the round trip.
func RunStorageExperiment(kinds []mapper.Kind, presets []string, baseDir string,
	verifyLoad bool, progress func(string)) ([]StoreResult, error) {

	if baseDir == "" {
		dir, err := os.MkdirTemp("", "dwarfbench-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		baseDir = dir
	}
	var out []StoreResult
	for _, preset := range presets {
		cube, err := DatasetCube(preset)
		if err != nil {
			return nil, err
		}
		for _, kind := range kinds {
			if progress != nil {
				progress(fmt.Sprintf("%s / %s ...", kind, preset))
			}
			dir := filepath.Join(baseDir, fmt.Sprintf("%s-%s", sanitize(string(kind)), preset))
			st, err := mapper.OpenStore(kind, dir, mapper.Options{}, mapper.EngineOptions{})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			id, err := st.Save(cube)
			if err != nil {
				st.Close()
				return nil, fmt.Errorf("%s/%s save: %w", kind, preset, err)
			}
			saveTime := time.Since(start)
			bytes, err := st.StoredBytes()
			if err != nil {
				st.Close()
				return nil, err
			}
			res := StoreResult{Kind: kind, Preset: preset, SaveTime: saveTime, Bytes: bytes}
			if verifyLoad {
				start = time.Now()
				loaded, err := st.Load(id)
				if err != nil {
					st.Close()
					return nil, fmt.Errorf("%s/%s load: %w", kind, preset, err)
				}
				res.LoadTime = time.Since(start)
				res.Loaded = true
				ls, cs := loaded.Stats(), cube.Stats()
				if ls.Nodes != cs.Nodes || ls.Cells != cs.Cells {
					st.Close()
					return nil, fmt.Errorf("%s/%s round trip mismatch: %+v vs %+v", kind, preset, ls, cs)
				}
			}
			if err := st.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
			out = append(out, res)
		}
	}
	return out, nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' {
			return r
		}
		return '_'
	}, s)
}

// FormatTable4 renders storage sizes, one schema model per row (the
// paper's layout), with the published numbers alongside.
func FormatTable4(results []StoreResult, presets []string) *Table {
	headers := append([]string{"Schema model"}, presets...)
	headers = append(headers, "(paper row)")
	t := NewTable("Table 4 — size (MB) used to store a DWARF cube", headers...)
	for _, kind := range mapper.AllKinds() {
		row := []string{string(kind)}
		found := false
		for _, p := range presets {
			cell := "-"
			for _, r := range results {
				if r.Kind == kind && r.Preset == p {
					cell = FormatMB(r.Bytes)
					found = true
				}
			}
			row = append(row, cell)
		}
		if !found {
			continue
		}
		row = append(row, paperRow(PaperTable4[kind], presets))
		t.AddRow(row...)
	}
	return t
}

// FormatTable5 renders insertion times.
func FormatTable5(results []StoreResult, presets []string) *Table {
	headers := append([]string{"Schema model"}, presets...)
	headers = append(headers, "(paper row)")
	t := NewTable("Table 5 — time (ms) taken to insert a DWARF cube", headers...)
	for _, kind := range mapper.AllKinds() {
		row := []string{string(kind)}
		found := false
		for _, p := range presets {
			cell := "-"
			for _, r := range results {
				if r.Kind == kind && r.Preset == p {
					cell = FormatMs(r.SaveTime)
					found = true
				}
			}
			row = append(row, cell)
		}
		if !found {
			continue
		}
		row = append(row, paperRow(PaperTable5[kind], presets))
		t.AddRow(row...)
	}
	return t
}

func paperRow(vals map[string]string, presets []string) string {
	var parts []string
	for _, p := range presets {
		if v, ok := vals[p]; ok {
			parts = append(parts, v)
		} else {
			parts = append(parts, "?")
		}
	}
	return strings.Join(parts, "/")
}

// PaperTable4 is the published Table 4 (MB).
var PaperTable4 = map[mapper.Kind]map[string]string{
	mapper.KindMySQLDwarf: {"Day": "2", "Week": "20", "Month": "80", "TMonth": "169", "SMonth": "424"},
	mapper.KindMySQLMin:   {"Day": "< 1", "Week": "8", "Month": "33", "TMonth": "70", "SMonth": "178"},
	mapper.KindNoSQLDwarf: {"Day": "< 1", "Week": "9", "Month": "35", "TMonth": "73", "SMonth": "182"},
	mapper.KindNoSQLMin:   {"Day": "< 1", "Week": "11", "Month": "45", "TMonth": "96", "SMonth": "243"},
}

// PaperTable5 is the published Table 5 (ms).
var PaperTable5 = map[mapper.Kind]map[string]string{
	mapper.KindMySQLDwarf: {"Day": "1768", "Week": "12501", "Month": "47247", "TMonth": "100466", "SMonth": "255098"},
	mapper.KindMySQLMin:   {"Day": "1107", "Week": "5955", "Month": "22243", "TMonth": "47936", "SMonth": "121221"},
	mapper.KindNoSQLDwarf: {"Day": "927", "Week": "4368", "Month": "15955", "TMonth": "34203", "SMonth": "89257"},
	mapper.KindNoSQLMin:   {"Day": "5699", "Week": "57153", "Month": "222044", "TMonth": "484498", "SMonth": "1219887"},
}

// BaoResult is one flat-file baseline measurement for the §5.1 comparison.
type BaoResult struct {
	Preset      string          `json:"preset"`
	Layout      flatfile.Layout `json:"layout"`
	Bytes       int64           `json:"bytes"`
	WriteTime   time.Duration   `json:"write_ns"`
	NoSQLDwarfB int64           `json:"nosql_dwarf_bytes"`
}

// RunBaoComparison writes each preset's cube as both flat-file layouts and
// sets the NoSQL-DWARF size beside them (the §5.1 storage-space argument).
func RunBaoComparison(presets []string, baseDir string) ([]BaoResult, error) {
	if baseDir == "" {
		dir, err := os.MkdirTemp("", "dwarfbao-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		baseDir = dir
	}
	var out []BaoResult
	for _, preset := range presets {
		cube, err := DatasetCube(preset)
		if err != nil {
			return nil, err
		}
		// NoSQL-DWARF size for the same cube.
		dir := filepath.Join(baseDir, "nosql-"+preset)
		st, err := mapper.OpenStore(mapper.KindNoSQLDwarf, dir, mapper.Options{}, mapper.EngineOptions{})
		if err != nil {
			return nil, err
		}
		if _, err := st.Save(cube); err != nil {
			st.Close()
			return nil, err
		}
		nosqlBytes, err := st.StoredBytes()
		if err != nil {
			st.Close()
			return nil, err
		}
		st.Close()
		os.RemoveAll(dir)

		for _, layout := range []flatfile.Layout{flatfile.Hierarchical, flatfile.Recursive} {
			path := filepath.Join(baseDir, fmt.Sprintf("%s-%s.dwf", preset, layout))
			start := time.Now()
			size, err := flatfile.Write(path, cube, layout)
			if err != nil {
				return nil, err
			}
			out = append(out, BaoResult{
				Preset: preset, Layout: layout, Bytes: size,
				WriteTime: time.Since(start), NoSQLDwarfB: nosqlBytes,
			})
			os.Remove(path)
		}
	}
	return out, nil
}

// FormatBao renders the §5.1 comparison.
func FormatBao(results []BaoResult) *Table {
	t := NewTable("§5.1 — flat-file DWARF baselines (Bao et al. [1]) vs NoSQL-DWARF",
		"Dataset", "Layout", "Flat file MB", "Write time", "NoSQL-DWARF MB")
	for _, r := range results {
		t.AddRow(r.Preset, r.Layout.String(),
			fmt.Sprintf("%.1f", float64(r.Bytes)/(1<<20)),
			r.WriteTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(r.NoSQLDwarfB)/(1<<20)))
	}
	return t
}
