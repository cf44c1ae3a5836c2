package kexbench

import (
	"testing"

	"kex/internal/ebpf"
	"kex/internal/ebpf/isa"
	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
)

// The BenchmarkExecCore_* family measures the same workload — a 1000-iter
// loop calling a clock helper each pass — on every stack×engine pair, all
// through the shared execution core, and persists the per-invocation
// figures to BENCH_exec.json so the overhead comparison is
// machine-readable across commits. The BenchmarkSupervisor_* healthy-path
// legs run the same workload through the same two bodies.

type execBenchRow struct {
	Config        string  `json:"config"`
	WallNsPerOp   float64 `json:"wall_ns_per_op"`
	VirtNsPerOp   float64 `json:"virtual_ns_per_op"`
	InsnsPerOp    float64 `json:"insns_per_op"`
	HelpersPerOp  float64 `json:"helper_calls_per_op"`
	MapOpsPerOp   float64 `json:"map_ops_per_op"`
	FuelPerOp     float64 `json:"fuel_per_op"`
	BenchmarkIter int     `json:"benchmark_iters"`
}

var execBench = newArtifact[execBenchRow]("BENCH_exec.json", nil)

const execBenchIters = 1000

func execBenchProgram(b *testing.B, s *ebpf.Stack) *isa.Program {
	b.Helper()
	ktime, ok := s.Helpers.ByName("bpf_ktime_get_ns")
	if !ok {
		b.Fatal("bpf_ktime_get_ns not registered")
	}
	return &isa.Program{Name: "core_bench", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R6, 0),
		isa.Mov64Imm(isa.R7, 0),
		isa.Call(int32(ktime.ID)),
		isa.ALU64Imm(isa.OpAdd, isa.R7, 3),
		isa.ALU64Imm(isa.OpAdd, isa.R6, 1),
		isa.JmpImm(isa.OpJlt, isa.R6, execBenchIters, -4),
		isa.Mov64Reg(isa.R0, isa.R7),
		isa.Exit(),
	}}
}

const execBenchSLX = `
fn main() -> i64 {
	let mut x: i64 = 0;
	for i in 0..1000 {
		let t: i64 = kernel::ktime();
		x += t - t + 3;
	}
	return x;
}
`

// coreLeg is one configuration of the exec-core workload.
type coreLeg struct {
	jit        bool
	opt        int // safext build tier: 0 naive, 1 elided, 2 MIR
	supervised bool
}

// runCoreEBPF runs the exec-core workload b.N times on the verified stack
// and returns the program's counters.
func runCoreEBPF(b *testing.B, leg coreLeg) exec.ProgramStats {
	s := ebpf.NewStack(kernel.NewDefault())
	s.UseJIT = leg.jit
	if leg.supervised {
		s.Supervise(exec.DefaultSupervisorConfig())
	}
	l, err := s.Load(execBenchProgram(b, s))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := l.Run(ebpf.RunOptions{})
		if err != nil || rep.R0 != 3*execBenchIters {
			b.Fatalf("R0 = %d, %v", rep.R0, err)
		}
	}
	b.StopTimer()
	return s.Stats.Snapshot().Programs["core_bench"]
}

// runCoreSafext does the same on the safext stack.
func runCoreSafext(b *testing.B, leg coreLeg) exec.ProgramStats {
	cfg := runtime.DefaultConfig()
	cfg.UseJIT = leg.jit
	rt := runtime.New(kernel.NewDefault(), cfg)
	if leg.supervised {
		rt.Supervise(exec.DefaultSupervisorConfig())
	}
	ext := loadSLX(b, rt, "core_bench", execBenchSLX, leg.opt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := ext.Run(runtime.RunOptions{})
		if err != nil || !v.Completed {
			b.Fatalf("verdict = %+v, %v", v, err)
		}
	}
	b.StopTimer()
	return rt.Core.Stats.Snapshot().Programs["core_bench"]
}

// benchExec records one exec-core leg's per-invocation figures.
func benchExec(b *testing.B, config string, ps exec.ProgramStats) {
	n := float64(ps.Invocations)
	var helperTotal uint64
	for _, c := range ps.HelperCalls {
		helperTotal += c
	}
	row := execBenchRow{
		Config:        config,
		WallNsPerOp:   float64(ps.WallNs) / n,
		VirtNsPerOp:   float64(ps.RuntimeNs) / n,
		InsnsPerOp:    float64(ps.Instructions) / n,
		HelpersPerOp:  float64(helperTotal) / n,
		MapOpsPerOp:   float64(ps.MapOps) / n,
		FuelPerOp:     float64(ps.FuelUsed) / n,
		BenchmarkIter: b.N,
	}
	b.ReportMetric(row.VirtNsPerOp, "virtual-ns/op")
	b.ReportMetric(row.HelpersPerOp, "helper-calls/op")
	execBench.record(config, row)
}

func BenchmarkExecCore_EBPFInterp(b *testing.B) {
	benchExec(b, "ebpf/interp", runCoreEBPF(b, coreLeg{}))
}
func BenchmarkExecCore_EBPFJIT(b *testing.B) {
	benchExec(b, "ebpf/jit", runCoreEBPF(b, coreLeg{jit: true}))
}
func BenchmarkExecCore_SafextInterp(b *testing.B) {
	benchExec(b, "safext/interp", runCoreSafext(b, coreLeg{}))
}
func BenchmarkExecCore_SafextJIT(b *testing.B) {
	benchExec(b, "safext/jit", runCoreSafext(b, coreLeg{jit: true}))
}

// The -opt legs run the MIR-optimized build of the same workload; the
// safext/jit-opt vs ebpf/jit wall ratio is the instrumentation-gap number
// the paper's argument hangs on (tracked in BENCH_slxopt.json).
func BenchmarkExecCore_SafextInterpOpt(b *testing.B) {
	benchExec(b, "safext/interp-opt", runCoreSafext(b, coreLeg{opt: 2}))
}
func BenchmarkExecCore_SafextJITOpt(b *testing.B) {
	benchExec(b, "safext/jit-opt", runCoreSafext(b, coreLeg{jit: true, opt: 2}))
}
