package experiments

import (
	"fmt"
	"strings"

	"kex/internal/ebpf"
	"kex/internal/ebpf/isa"
	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
)

// execIters is the loop trip count of the exec-core workload; execRuns how
// many invocations each X2 configuration gets.
const (
	execIters = 1000
	execRuns  = 5
)

// ExecCoreName names the exec-core workload's program on both stacks: the
// key of its row in the core's Stats. A supervisor seeds the program's
// backoff jitter from it, so renaming it moves BenchmarkSupervisor_Recovery's
// time-to-recover.
const ExecCoreName = "core_bench"

// ExecCoreProgram is the bytecode half of the exec-core workload: a bounded
// loop that calls bpf_ktime_get_ns once per iteration and accumulates. X2
// and the root ExecCore, Supervisor and serial Throughput benchmarks run it.
func ExecCoreProgram(s *ebpf.Stack) (*isa.Program, error) {
	ktime, ok := s.Helpers.ByName("bpf_ktime_get_ns")
	if !ok {
		return nil, fmt.Errorf("bpf_ktime_get_ns not registered")
	}
	return &isa.Program{Name: ExecCoreName, Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R6, 0),
		isa.Mov64Imm(isa.R7, 0),
		isa.Call(int32(ktime.ID)),
		isa.ALU64Imm(isa.OpAdd, isa.R7, 3),
		isa.ALU64Imm(isa.OpAdd, isa.R6, 1),
		isa.JmpImm(isa.OpJlt, isa.R6, execIters, -4),
		isa.Mov64Reg(isa.R0, isa.R7),
		isa.Exit(),
	}}, nil
}

// execCoreSLX is the same workload through the safext toolchain.
const execCoreSLX = `
fn main() -> i64 {
	let mut x: i64 = 0;
	for i in 0..1000 {
		let t: i64 = kernel::ktime();
		x += t - t + 3;
	}
	return x;
}
`

// ExecLeg is one stack×engine configuration of the exec-core workload.
type ExecLeg struct {
	Safext     bool
	JIT        bool
	Opt        int // safext build tier: 0 naive, 1 elided, 2 MIR
	Supervised bool
}

// ExecCore is the exec-core workload loaded on one leg's stack. Set-up
// (NewExecCore) is separate from Run so a benchmark times only the runs.
type ExecCore struct {
	core *exec.Core
	// run invokes the workload once and returns its R0.
	run    func() (uint64, error)
	loaded *ebpf.Loaded // the eBPF leg's program; nil on safext
	close  func()
}

// NewExecCore boots a kernel, builds the leg's stack and loads the
// workload on it.
func NewExecCore(leg ExecLeg) (*ExecCore, error) {
	if leg.Safext {
		cfg := runtime.DefaultConfig()
		cfg.UseJIT = leg.JIT
		rt := runtime.New(kernel.NewDefault(), cfg)
		if leg.Supervised {
			rt.Supervise(exec.DefaultSupervisorConfig())
		}
		ext, err := LoadSLX(rt, ExecCoreName, execCoreSLX, leg.Opt)
		if err != nil {
			return nil, fmt.Errorf("load exec-core workload: %w", err)
		}
		return &ExecCore{core: rt.Core, close: ext.Close, run: func() (uint64, error) {
			v, err := ext.Run(runtime.RunOptions{})
			switch {
			case err != nil:
				return 0, err
			case !v.Completed:
				return 0, fmt.Errorf("did not complete: %+v", v)
			}
			return uint64(v.R0), nil
		}}, nil
	}
	s := ebpf.NewStack(kernel.NewDefault())
	s.UseJIT = leg.JIT
	if leg.Supervised {
		s.Supervise(exec.DefaultSupervisorConfig())
	}
	prog, err := ExecCoreProgram(s)
	if err != nil {
		return nil, err
	}
	l, err := s.Load(prog)
	if err != nil {
		return nil, fmt.Errorf("load exec-core workload: %w", err)
	}
	return &ExecCore{core: s.Core, loaded: l, close: l.Close, run: func() (uint64, error) {
		rep, err := l.Run(ebpf.RunOptions{})
		return rep.R0, err
	}}, nil
}

// Run invokes the workload n times, one Core.Run each, and checks every
// result.
func (c *ExecCore) Run(n int) error {
	for i := 0; i < n; i++ {
		if r0, err := c.run(); err != nil || r0 != 3*execIters {
			return fmt.Errorf("R0 = %d, %v", r0, err)
		}
	}
	return nil
}

// RunBatch invokes the eBPF leg's workload n times through Core.RunBatch,
// chunk invocations at a time on CPU 0, and checks every result.
func (c *ExecCore) RunBatch(n, chunk int) error {
	if c.loaded == nil {
		return fmt.Errorf("RunBatch drives the eBPF leg only")
	}
	opts := make([]ebpf.RunOptions, chunk)
	for done := 0; done < n; {
		k := min(chunk, n-done)
		for _, res := range c.loaded.RunBatch(0, opts[:k]) {
			if res.Err != nil || res.Report.R0 != 3*execIters {
				return fmt.Errorf("report = %+v, %v", res.Report, res.Err)
			}
		}
		done += k
	}
	return nil
}

// Snapshot returns the leg's core counters; the workload's row is
// Programs[ExecCoreName].
func (c *ExecCore) Snapshot() exec.Snapshot { return c.core.Stats.Snapshot() }

// Close unloads the workload.
func (c *ExecCore) Close() { c.close() }

// X2ExecCore exercises the shared execution core's instrumentation as a
// Table 2-style overhead comparison: the same loop-plus-helper workload on
// all four stack×engine configurations, with every row derived from one
// exec.Stats snapshot rather than bespoke per-stack measurement.
func X2ExecCore() *Result {
	r := &Result{
		ID:         "X2",
		Title:      "execution-core instrumentation: per-world overhead from one Stats source",
		PaperClaim: "the comparison between verified eBPF and a safe-language framework is meaningful because both run on the same kernel substrate (§3)",
	}

	type row struct {
		label string
		snap  exec.Snapshot
	}
	var rows []row
	holds := true
	for _, leg := range []struct {
		label string
		leg   ExecLeg
	}{
		{"ebpf/interp", ExecLeg{}},
		{"ebpf/jit", ExecLeg{JIT: true}},
		{"safext/interp", ExecLeg{Safext: true}},
		{"safext/jit", ExecLeg{Safext: true, JIT: true}},
	} {
		c, err := NewExecCore(leg.leg)
		if err != nil {
			r.Measured = leg.label + ": " + err.Error()
			return r
		}
		err = c.Run(execRuns)
		c.Close()
		if err != nil {
			r.Measured = leg.label + " run failed: " + err.Error()
			return r
		}
		rows = append(rows, row{label: leg.label, snap: c.Snapshot()})
	}

	r.Lines = append(r.Lines, fmt.Sprintf(
		"%-14s %6s %10s %8s %8s %12s %12s  %s",
		"config", "runs", "insns/run", "helpers", "mapops", "virt-ns/run", "wall-µs/run", "load phases"))
	var interpWall [2]int64 // ebpf, safext — for the overhead summary
	for _, row := range rows {
		ps, ok := row.snap.Programs[ExecCoreName]
		if !ok || ps.Invocations != execRuns {
			holds = false
			r.Lines = append(r.Lines, fmt.Sprintf("%-14s MISSING STATS", row.label))
			continue
		}
		helperTotal := uint64(0)
		for _, n := range ps.HelperCalls {
			helperTotal += n
		}
		// Every configuration must account one helper call per loop
		// iteration — the instrumentation claim being tested.
		if helperTotal != execRuns*execIters {
			holds = false
		}
		r.Lines = append(r.Lines, fmt.Sprintf(
			"%-14s %6d %10d %8d %8d %12d %12.1f  %s",
			row.label, ps.Invocations,
			ps.Instructions/ps.Invocations,
			helperTotal, ps.MapOps,
			ps.RuntimeNs/int64(ps.Invocations),
			float64(ps.WallNs)/float64(ps.Invocations)/1e3,
			row.snap.LoadPhases))
		if strings.HasSuffix(row.label, "/interp") {
			if strings.HasPrefix(row.label, "ebpf") {
				interpWall[0] = ps.WallNs
			} else {
				interpWall[1] = ps.WallNs
			}
		}
	}

	if interpWall[0] > 0 && interpWall[1] > 0 {
		r.Measured = fmt.Sprintf(
			"one Stats source covers both worlds; safext/ebpf interp wall ratio %.2fx (codegen gap, cf. A3), helper accounting exact on all four configs",
			float64(interpWall[1])/float64(interpWall[0]))
	} else {
		r.Measured = "instrumentation rows incomplete"
		holds = false
	}
	r.Holds = holds
	return r
}
