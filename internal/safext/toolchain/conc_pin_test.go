package toolchain_test

import (
	"encoding/json"
	"testing"

	"kex/examples/progs"
	"kex/internal/analysis/concheck"
	"kex/internal/analysis/concheck/mutants"
	"kex/internal/safext/compile"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
	"kex/internal/safext/toolchain"
)

// TestConcReadsCompilerLowering pins the shard-safety report a build
// carries, computed over the compiler's own lowering, to the report over a
// fresh mir.LowerFunc lowering of the same program: byte for byte as JSON,
// wall time aside, for the example corpus and the concheck kill suite at
// every level. A report taken from a lowering the back end has already
// swept or optimized numbers its sites differently and fails here.
func TestConcReadsCompilerLowering(t *testing.T) {
	corpus := map[string]string{}
	for name, src := range progs.All {
		corpus[name] = src
	}
	for name, src := range mutants.All {
		corpus["mutant/"+name] = src
	}
	builds := []func(name, src string) (*compile.Object, error){
		toolchain.Build, toolchain.BuildOptimized, toolchain.BuildOptimizedMIR,
	}
	for name, src := range corpus {
		want := freshConc(t, name, src)
		for level, build := range builds {
			obj, err := build(name, src)
			if err != nil {
				t.Fatalf("%s at level %d: %v", name, level, err)
			}
			if got := concJSON(t, obj.Conc); got != want {
				t.Errorf("%s at level %d: CONC report\n%s\nwant (fresh lowering)\n%s", name, level, got, want)
			}
		}
	}
}

// freshConc analyzes src over its own lowering, apart from any build.
func freshConc(t *testing.T, name, src string) string {
	t.Helper()
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		t.Fatalf("%s: check: %v", name, err)
	}
	obj, err := compile.Compile(name, checked)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	var funcs []compile.MIRFuncArtifact
	for _, fn := range checked.File.Funcs {
		mf, err := mir.LowerFunc(fn, checked)
		if err != nil {
			t.Fatalf("%s: lower %s: %v", name, fn.Name, err)
		}
		funcs = append(funcs, compile.MIRFuncArtifact{Name: fn.Name, Naive: mf})
	}
	rep, err := concheck.AnalyzeSLX(funcs, obj.Maps)
	if err != nil {
		t.Fatalf("%s: concheck: %v", name, err)
	}
	return concJSON(t, rep)
}

func concJSON(t *testing.T, rep *compile.ConcReport) string {
	t.Helper()
	r := *rep
	r.WallNanos = 0
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
