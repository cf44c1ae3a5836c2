package kexbench

import (
	stdruntime "runtime"
	"sort"
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

type slxOptRow struct {
	Config          string  `json:"config"`
	WallNsPerOp     float64 `json:"wall_ns_per_op"`
	VirtNsPerOp     float64 `json:"virtual_ns_per_op"`
	InsnsPerOp      float64 `json:"insns_per_op"`
	FuelPerOp       float64 `json:"fuel_per_op"`
	DynamicChecks   uint64  `json:"dynamic_checks"`
	ElidedChecks    uint64  `json:"elided_checks"`
	StaticInsnBound int64   `json:"static_insn_bound"`
	FuelElisions    uint64  `json:"fuel_elisions"`
	BenchmarkIter   int     `json:"benchmark_iters"`
	// RatioVsEBPFJIT is filled on the gap/* rows: safext wall time over
	// ebpf/jit wall time for the shared exec-core workload. The acceptance
	// bar is ratio <= 3 for the MIR-optimized JIT leg.
	RatioVsEBPFJIT float64 `json:"ratio_vs_ebpf,omitempty"`
}

var slxOptBench = newArtifact[slxOptRow]("BENCH_slxopt.json", summarizeSLXOpt)

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
	row := slxOptRow{
		Config:          config,
		WallNsPerOp:     float64(ps.WallNs) / n,
		VirtNsPerOp:     float64(ps.RuntimeNs) / n,
		InsnsPerOp:      float64(ps.Instructions) / n,
		FuelPerOp:       float64(ps.FuelUsed) / n,
		DynamicChecks:   ps.DynamicChecks,
		ElidedChecks:    ps.ElidedChecks,
		StaticInsnBound: ext.Checks.StaticInsnBound,
		FuelElisions:    ps.FuelElisions,
		BenchmarkIter:   b.N,
	}
	b.ReportMetric(row.VirtNsPerOp, "virtual-ns/op")
	b.ReportMetric(float64(row.ElidedChecks), "elided-checks")
	slxOptBench.record(config, row)
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

// summarizeSLXOpt adds gap rows that relate the safext JIT legs of the
// exec-core benchmark to ebpf/jit — the instrumentation-vs-verification
// overhead number the paper's §3 argument turns on.
func summarizeSLXOpt(rows []slxOptRow) any {
	ebpfJIT, okE := execBench.get("ebpf/jit")
	for _, leg := range []string{"safext/jit", "safext/jit-opt"} {
		if r, ok := execBench.get(leg); ok && okE && ebpfJIT.WallNsPerOp > 0 {
			rows = append(rows, slxOptRow{
				Config:         "gap/" + leg,
				WallNsPerOp:    r.WallNsPerOp,
				VirtNsPerOp:    r.VirtNsPerOp,
				InsnsPerOp:     r.InsnsPerOp,
				BenchmarkIter:  r.BenchmarkIter,
				RatioVsEBPFJIT: r.WallNsPerOp / ebpfJIT.WallNsPerOp,
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Config < rows[j].Config })
	return rows
}
