package kexbench

import (
	"testing"

	"kex/internal/exec"
	"kex/internal/experiments"
)

// The BenchmarkExecCore_* family measures X2's workload — a 1000-iter
// loop calling a clock helper each pass — on every stack×engine pair, all
// through the shared execution core, and persists the per-invocation
// figures to BENCH_exec.json so the overhead comparison is
// machine-readable across commits. The BenchmarkSupervisor_* healthy-path
// legs run the same workload through runCore too.

var execBench = newTable("BENCH_exec.json", nil)

// runCore runs the exec-core workload (experiments.ExecCoreProgram and its
// SLX twin, X2's workload) b.N times on one leg and returns the program's
// counters.
func runCore(b *testing.B, leg experiments.ExecLeg) exec.ProgramStats {
	c, err := experiments.NewExecCore(leg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	err = c.Run(b.N)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	return c.Snapshot().Programs[experiments.ExecCoreName]
}

// benchExec records one exec-core leg's per-invocation figures.
func benchExec(b *testing.B, config string, ps exec.ProgramStats) {
	n := float64(ps.Invocations)
	var helperTotal uint64
	for _, c := range ps.HelperCalls {
		helperTotal += c
	}
	execBench.record(b, row{Config: config, Metrics: metrics{
		"wall_ns_per_op":      float64(ps.WallNs) / n,
		"virtual_ns_per_op":   float64(ps.RuntimeNs) / n,
		"insns_per_op":        float64(ps.Instructions) / n,
		"helper_calls_per_op": float64(helperTotal) / n,
		"map_ops_per_op":      float64(ps.MapOps) / n,
		"fuel_per_op":         float64(ps.FuelUsed) / n,
	}})
}

func BenchmarkExecCore_EBPFInterp(b *testing.B) {
	benchExec(b, "ebpf/interp", runCore(b, experiments.ExecLeg{}))
}
func BenchmarkExecCore_EBPFJIT(b *testing.B) {
	benchExec(b, "ebpf/jit", runCore(b, experiments.ExecLeg{JIT: true}))
}
func BenchmarkExecCore_SafextInterp(b *testing.B) {
	benchExec(b, "safext/interp", runCore(b, experiments.ExecLeg{Safext: true}))
}
func BenchmarkExecCore_SafextJIT(b *testing.B) {
	benchExec(b, "safext/jit", runCore(b, experiments.ExecLeg{Safext: true, JIT: true}))
}

// The -opt legs run the MIR-optimized build of the same workload; the
// safext/jit-opt vs ebpf/jit wall ratio is the instrumentation-gap number
// the paper's argument hangs on (tracked in BENCH_slxopt.json).
func BenchmarkExecCore_SafextInterpOpt(b *testing.B) {
	benchExec(b, "safext/interp-opt", runCore(b, experiments.ExecLeg{Safext: true, Opt: 2}))
}
func BenchmarkExecCore_SafextJITOpt(b *testing.B) {
	benchExec(b, "safext/jit-opt", runCore(b, experiments.ExecLeg{Safext: true, JIT: true, Opt: 2}))
}
