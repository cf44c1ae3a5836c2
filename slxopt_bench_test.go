package kexbench

import (
	stdruntime "runtime"
	"testing"

	"kex/examples/progs"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
)

// The BenchmarkSLXOpt_* family measures what the abstract-interpretation
// pass buys at run time: the same SLX program built naively (every check
// dynamic, fuel metered per instruction) and optimized (proven checks
// elided, fuel coalesced under the static bound), side by side on the
// interpreter. The rows persist to BENCH_slxopt.json so the
// naive-vs-elided delta is machine-readable across commits.

var slxOptBench = newTable("BENCH_slxopt.json", deriveSLXOpt)

func benchSLXOpt(b *testing.B, config, name, src string, opt int) {
	rt := runtime.New(kernel.NewDefault(), runtime.DefaultConfig())
	ext := loadSLX(b, rt, name, src, opt)
	// Settle the collector before timing: at the short iteration counts CI
	// uses, one GC cycle landing inside the loop of exactly one tier is
	// enough to invert a comparison (the committed histogram/elided wall
	// regression reproduced exactly this way).
	stdruntime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := ext.Run(runtime.RunOptions{})
		if err != nil || !v.Completed {
			b.Fatalf("verdict = %+v, %v", v, err)
		}
	}
	b.StopTimer()
	ps := rt.Core.Stats.Snapshot().Programs[name]
	n := float64(ps.Invocations)
	slxOptBench.record(b, row{Config: config, Metrics: metrics{
		"wall_ns_per_op":       float64(ps.WallNs) / n,
		"virtual_ns_per_op":    float64(ps.RuntimeNs) / n,
		"insns_per_op":         float64(ps.Instructions) / n,
		"fuel_per_op":          float64(ps.FuelUsed) / n,
		"dynamic_checks":       float64(ps.DynamicChecks),
		"elided_checks":        float64(ps.ElidedChecks),
		"static_insn_bound":    float64(ext.Checks.StaticInsnBound),
		"fuel_elisions_per_op": float64(ps.FuelElisions) / n,
	}})
}

func BenchmarkSLXOpt_HistogramNaive(b *testing.B) {
	benchSLXOpt(b, "histogram/naive", "hist", progs.Histogram, 0)
}
func BenchmarkSLXOpt_HistogramElided(b *testing.B) {
	benchSLXOpt(b, "histogram/elided", "hist", progs.Histogram, 1)
}
func BenchmarkSLXOpt_HistogramOpt(b *testing.B) {
	benchSLXOpt(b, "histogram/opt", "hist", progs.Histogram, 2)
}
func BenchmarkSLXOpt_PolicyNaive(b *testing.B) {
	benchSLXOpt(b, "policy/naive", "policy", progs.SyscallPolicy, 0)
}
func BenchmarkSLXOpt_PolicyElided(b *testing.B) {
	benchSLXOpt(b, "policy/elided", "policy", progs.SyscallPolicy, 1)
}
func BenchmarkSLXOpt_PolicyOpt(b *testing.B) {
	benchSLXOpt(b, "policy/opt", "policy", progs.SyscallPolicy, 2)
}
func BenchmarkSLXOpt_CounterNaive(b *testing.B) {
	benchSLXOpt(b, "counter/naive", "counter", progs.Counter, 0)
}
func BenchmarkSLXOpt_CounterElided(b *testing.B) {
	benchSLXOpt(b, "counter/elided", "counter", progs.Counter, 1)
}
func BenchmarkSLXOpt_CounterOpt(b *testing.B) {
	benchSLXOpt(b, "counter/opt", "counter", progs.Counter, 2)
}

// deriveSLXOpt adds gap rows that relate the safext JIT legs of the
// exec-core benchmark to ebpf/jit — the instrumentation-vs-verification
// overhead number the paper's §3 argument turns on. ratio_vs_ebpf is the
// safext leg's wall time over ebpf/jit's; the acceptance bar is ratio <= 3
// for the MIR-optimized JIT leg.
func deriveSLXOpt(rows []row) []row {
	ebpfJIT, okE := execBench.get("ebpf/jit")
	for _, leg := range []string{"safext/jit", "safext/jit-opt"} {
		r, ok := execBench.get(leg)
		if !ok || !okE || ebpfJIT.Metrics["wall_ns_per_op"] <= 0 {
			continue
		}
		gap := metrics{"ratio_vs_ebpf": r.Metrics["wall_ns_per_op"] / ebpfJIT.Metrics["wall_ns_per_op"]}
		for _, name := range []string{"wall_ns_per_op", "virtual_ns_per_op", "insns_per_op"} {
			gap[name] = r.Metrics[name]
		}
		rows = append(rows, row{Config: "gap/" + leg, Iters: r.Iters, Metrics: gap})
	}
	return rows
}
