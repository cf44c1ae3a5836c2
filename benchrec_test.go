package kexbench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"kex/examples/progs"
	"kex/internal/experiments"
	"kex/internal/safext/compile"
	"kex/internal/safext/lang"
	"kex/internal/safext/runtime"
)

// Every benchmark family persists its figures through one table of one row
// type, written by TestMain as BENCH_<family>.json after a run that
// recorded at least one row. Plain `go test` runs record nothing and leave
// no artifact behind. Because every file has the same schema, two runs of
// any family compare config by config and metric by metric.

// row is one line of a BENCH_*.json file: the benchmark configuration, its
// iteration count (absent on derived rows that aggregate several runs),
// and its figures by name. A recorded zero is written like any other
// value.
type row struct {
	Config  string  `json:"config"`
	Iters   int     `json:"benchmark_iters,omitempty"`
	Metrics metrics `json:"metrics"`
	// Verdict is CONC's classification of a corpus program (ShardSafe,
	// ReadOnly or Racy), the one figure that is not a number.
	Verdict string `json:"verdict,omitempty"`
}

// metrics maps a figure's name to its value.
type metrics = map[string]float64

// table is one BENCH_*.json file under construction.
type table struct {
	file string
	// derive, when set, adds the family's derived figures to the recorded
	// rows, as new rows or as metrics added in place to existing ones.
	derive func(rows []row) []row
	mu     sync.Mutex
	rows   map[string]row
}

// tables is every registered table, written in one loop by TestMain.
var tables []*table

func newTable(file string, derive func(rows []row) []row) *table {
	t := &table{file: file, derive: derive, rows: map[string]row{}}
	tables = append(tables, t)
	return t
}

// record stores r under its config with b.N as its iteration count,
// replacing any earlier row (a benchmark re-run at a larger b.N overwrites
// its calibration rounds), and reports each metric, so the figure printed
// and the figure persisted are the same number.
func (t *table) record(b *testing.B, r row) {
	r.Iters = b.N
	for name, v := range r.Metrics {
		b.ReportMetric(v, name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows[r.Config] = r
}

// get returns the row recorded under config.
func (t *table) get(config string) (row, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.rows[config]
	return r, ok
}

// write marshals the table to its file; an empty table writes nothing.
func (t *table) write() error {
	t.mu.Lock()
	rows := make([]row, 0, len(t.rows))
	for _, r := range t.rows {
		rows = append(rows, r)
	}
	t.mu.Unlock()
	if len(rows) == 0 {
		return nil
	}
	if t.derive != nil {
		rows = t.derive(rows)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Config < rows[j].Config })
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: %w", t.file, err)
	}
	return os.WriteFile(t.file, append(data, '\n'), 0o644)
}

// TestMain runs the package, then writes every table the run filled. A
// failed write fails the run: a benchmark whose figures were lost did not
// produce its artifact.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, t := range tables {
		if err := t.write(); err != nil {
			fmt.Fprintln(os.Stderr, "kexbench: writing artifact:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 0 {
		return (s[mid-1] + s[mid]) / 2
	}
	return s[mid]
}

// overheadPct is how much slower x is than base, in percent.
func overheadPct(x, base float64) float64 {
	return (x/base - 1) * 100
}

// loadSLX loads src through experiments.LoadSLX at the given optimization
// tier (0 naive, 1 elided, 2 MIR); the extension is closed when the
// benchmark or test ends.
func loadSLX(tb testing.TB, rt *runtime.Runtime, name, src string, opt int) *runtime.Extension {
	tb.Helper()
	ext, err := experiments.LoadSLX(rt, name, src, opt)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(ext.Close)
	return ext
}

// compileSLX parses, checks and compiles src with opts.
func compileSLX(b *testing.B, name, src string, opts compile.Options) (*compile.Object, []compile.MIRFuncArtifact) {
	f, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		b.Fatal(err)
	}
	obj, arts, err := compile.CompileWithOptions(name, checked, opts)
	if err != nil {
		b.Fatal(err)
	}
	return obj, arts
}

// benchCorpus runs bench once per corpus program, as sub-benchmarks in
// name order.
func benchCorpus(b *testing.B, bench func(b *testing.B, name, src string)) {
	names := make([]string, 0, len(progs.All))
	for name := range progs.All {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := progs.All[name]
		b.Run(name, func(b *testing.B) { bench(b, name, src) })
	}
}

// TestArtifactWrite pins the recorder's promises: a recorded metric is
// both reported and written, zeros included; a write failure is returned
// (TestMain turns it into a failed run); and an empty table writes no
// file, so plain `go test` leaves no BENCH_*.json behind.
func TestArtifactWrite(t *testing.T) {
	dir := t.TempDir()
	tbl := &table{file: filepath.Join(dir, "BENCH_x.json"), rows: map[string]row{}}
	want := metrics{"zero": 0, "half": 0.5}
	res := testing.Benchmark(func(b *testing.B) {
		tbl.record(b, row{Config: "k", Metrics: want})
	})
	if err := tbl.write(); err != nil {
		t.Fatal(err)
	}
	got := readRows(t, tbl.file)
	if len(got) != 1 || got[0].Config != "k" || got[0].Iters != res.N {
		t.Fatalf("written rows = %+v, want one row k at %d iterations", got, res.N)
	}
	for name, w := range want {
		if v, ok := got[0].Metrics[name]; !ok || v != w {
			t.Errorf("written %s = %v (present %v), want %v", name, v, ok, w)
		}
		if v, ok := res.Extra[name]; !ok || v != w {
			t.Errorf("reported %s = %v (present %v), want %v", name, v, ok, w)
		}
	}

	missing := &table{file: filepath.Join(dir, "missing", "BENCH_x.json"), rows: map[string]row{"k": {Config: "k"}}}
	if err := missing.write(); err == nil {
		t.Error("write under a missing directory returned no error")
	}

	empty := &table{file: filepath.Join(dir, "BENCH_empty.json"), rows: map[string]row{}}
	if err := empty.write(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(empty.file); !os.IsNotExist(err) {
		t.Errorf("empty table wrote %s (stat: %v)", empty.file, err)
	}
}

// readRows decodes a BENCH_*.json file strictly: a field outside the row
// schema fails the decode.
func readRows(t *testing.T, file string) []row {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rows []row
	if err := dec.Decode(&rows); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return rows
}

// TestCommittedArtifactsSchema decodes every BENCH_*.json in the package
// directory into the one row schema: each file a non-empty array of rows,
// each row with a config and at least one metric, every metric finite.
func TestCommittedArtifactsSchema(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		rows := readRows(t, file)
		if len(rows) == 0 {
			t.Errorf("%s: no rows", file)
		}
		for i, r := range rows {
			if r.Config == "" || len(r.Metrics) == 0 {
				t.Errorf("%s: row %d (%q) has no config or no metrics", file, i, r.Config)
			}
			for name, v := range r.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s: %s = %v", file, r.Config, name, v)
				}
			}
		}
	}
}
