package kexbench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

// Every benchmark family persists its figures through one artifact table:
// rows keyed by config or program, written by TestMain as BENCH_<family>.json
// after a run that recorded at least one row. Plain `go test` runs record
// nothing and leave no artifact behind.

// artifact is one BENCH_*.json file under construction.
type artifact[R any] struct {
	file string
	mu   sync.Mutex
	rows map[string]R
	// summarize, when set, turns the rows sorted by key into the JSON
	// document; otherwise the document is that sorted row list.
	summarize func(rows []R) any
}

// artifacts is every registered table, written in one loop by TestMain.
var artifacts []interface{ write() error }

func newArtifact[R any](file string, summarize func(rows []R) any) *artifact[R] {
	a := &artifact[R]{file: file, rows: map[string]R{}, summarize: summarize}
	artifacts = append(artifacts, a)
	return a
}

// record stores row under key, replacing any earlier row (a benchmark
// re-run at a larger b.N overwrites its calibration rounds).
func (a *artifact[R]) record(key string, row R) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rows[key] = row
}

// get returns the row recorded under key.
func (a *artifact[R]) get(key string) (R, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r, ok := a.rows[key]
	return r, ok
}

// write marshals the table to its file; an empty table writes nothing.
func (a *artifact[R]) write() error {
	a.mu.Lock()
	keys := make([]string, 0, len(a.rows))
	for k := range a.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]R, len(keys))
	for i, k := range keys {
		rows[i] = a.rows[k]
	}
	a.mu.Unlock()
	if len(rows) == 0 {
		return nil
	}
	var doc any = rows
	if a.summarize != nil {
		doc = a.summarize(rows)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: %w", a.file, err)
	}
	return os.WriteFile(a.file, append(data, '\n'), 0o644)
}

// TestMain runs the package, then writes every artifact the run filled. A
// failed write fails the run: a benchmark whose figures were lost did not
// produce its artifact.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, a := range artifacts {
		if err := a.write(); err != nil {
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

// loadSLX builds src at the given optimization tier (0 naive, 1 elided,
// 2 MIR), signs it with a fresh key, enrols the key in rt and loads the
// extension, which is closed when the benchmark or test ends.
func loadSLX(tb testing.TB, rt *runtime.Runtime, name, src string, opt int) *runtime.Extension {
	tb.Helper()
	signer, err := toolchain.NewSigner()
	if err != nil {
		tb.Fatal(err)
	}
	build := [...]func(name, src string) (*toolchain.SignedObject, error){
		signer.BuildAndSign, signer.BuildAndSignOptimized, signer.BuildAndSignOptimizedMIR,
	}[opt]
	so, err := build(name, src)
	if err != nil {
		tb.Fatal(err)
	}
	rt.AddKey(signer.PublicKey())
	ext, err := rt.Load(so)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(ext.Close)
	return ext
}

// TestArtifactWrite pins the recorder's two promises: a write failure is
// returned (TestMain turns it into a failed run), and an empty table
// writes no file, so plain `go test` leaves no BENCH_*.json behind.
func TestArtifactWrite(t *testing.T) {
	dir := t.TempDir()
	missing := &artifact[execBenchRow]{file: filepath.Join(dir, "missing", "BENCH_x.json"), rows: map[string]execBenchRow{}}
	missing.record("k", execBenchRow{Config: "k"})
	if err := missing.write(); err == nil {
		t.Error("write under a missing directory returned no error")
	}

	empty := &artifact[execBenchRow]{file: filepath.Join(dir, "BENCH_empty.json"), rows: map[string]execBenchRow{}}
	if err := empty.write(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(empty.file); !os.IsNotExist(err) {
		t.Errorf("empty table wrote %s (stat: %v)", empty.file, err)
	}
}
