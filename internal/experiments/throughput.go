package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"kex/internal/ebpf"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
)

// X4 is a steady-state traffic generator over the sharded data plane: a
// verified packet filter and a safext syscall-policy extension, each fed a
// fixed volume of invocations spread across 1/2/4/8 simulated CPUs. The
// metric is simulated throughput — completed ops divided by the busiest
// shard's consumed virtual CPU time — which is what per-CPU sharding is
// supposed to scale. Wall-clock throughput is reported alongside but is
// hostage to the harness's real core count. The root BenchmarkThroughput_*
// and BenchmarkConc_Gate* families drive the same planes through Plane.
const (
	x4TotalOps  = 3200
	x4BatchSize = 16
	x4CPUs      = 8
	// planeRing is each shard's submission ring, in batches.
	planeRing = 256
)

// planeKernel boots a kernel wide enough for the full shard sweep.
func planeKernel() *kernel.Kernel {
	cfg := kernel.DefaultConfig()
	cfg.NumCPU = x4CPUs
	return kernel.New(cfg)
}

// pktFilter is the verified-stack flow: classify the packet's protocol
// byte from the context and count every invocation in a per-CPU array —
// the canonical XDP counter shape, no locks anywhere on the data path.
func pktFilter(s *ebpf.Stack) (*isa.Program, error) {
	if _, err := s.CreateMap(maps.Spec{
		Name: "x4_pkt", Type: maps.PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 4,
	}); err != nil {
		return nil, err
	}
	lookup, ok := s.Helpers.ByName("bpf_map_lookup_elem")
	if !ok {
		return nil, fmt.Errorf("bpf_map_lookup_elem not registered")
	}
	return &isa.Program{Name: "x4_pktfilter", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0), // packet word; proto in low byte
		isa.ALU64Imm(isa.OpAnd, isa.R6, 0xff),
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0), // key = 0
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R1, "x4_pkt"),
		isa.Call(int32(lookup.ID)),
		isa.JmpImm(isa.OpJeq, isa.R0, 0, 3), // miss: skip the count
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R7, 1),
		isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R7),
		isa.Mov64Imm(isa.R0, 0), // verdict: drop
		isa.JmpImm(isa.OpJne, isa.R6, 6, 1),
		isa.Mov64Imm(isa.R0, 1), // TCP passes
		isa.Exit(),
	}}, nil
}

// policySLX is the safext flow: per-CPU accounting in a percpu_hash plus a
// policy decision against a read-only shared hash, which starts empty, so
// every invocation is allowed.
const policySLX = `
map denied: hash<u64, u64>(64);
map counts: percpu_hash<u64, u64>(64);

fn main() -> i64 {
	let nr = kernel::cpu() % 8;
	kernel::map_inc(counts, nr, 1);
	if kernel::map_get(denied, nr) != 0 {
		return -1;
	}
	return 0;
}
`

// A Plane is one X4 flow loaded onto its stack's sharded data plane. Set-up
// (NewEBPFPlane, NewSafextPlane) is separate from Drive so a benchmark
// times only the traffic.
type Plane struct {
	sh     *exec.Sharded
	shards int
	// batch assembles n invocations on cpu into one submission whose Done
	// counts failures and decisions.
	batch func(cpu, n int) exec.Batch
	// counted sums the flow's per-CPU counters over every CPU.
	counted         func() uint64
	failed, decided atomic.Uint64
	close           func()
}

// PlaneRun is what one Drive measured.
type PlaneRun struct {
	Wall time.Duration
	// SimOpsPerSec is completed ops over the busiest shard's virtual time.
	SimOpsPerSec float64
	// Decisions counts the flow's verdicts of interest: passed packets on
	// the eBPF plane, denied syscalls on the safext plane.
	Decisions uint64
}

// NewEBPFPlane loads the packet filter on a verified stack and opens a
// sharded plane over it with one TCP context region per shard, so every
// packet passes.
func NewEBPFPlane(cfg exec.ShardedConfig) (*Plane, error) {
	k := planeKernel()
	s := ebpf.NewStack(k)
	prog, err := pktFilter(s)
	if err != nil {
		return nil, err
	}
	l, err := s.Load(prog)
	if err != nil {
		return nil, fmt.Errorf("load packet filter: %w", err)
	}
	m, _ := s.Maps.ByName("x4_pkt")
	pc, ok := maps.Unwrap(m).(maps.PerCPUMap)
	if !ok {
		l.Close()
		return nil, fmt.Errorf("x4_pkt is not a per-CPU map")
	}
	p := newPlane(s.NewSharded, cfg)
	ctxs := make([]uint64, p.shards)
	for cpu := range ctxs {
		r := k.Mem.Map(64, kernel.ProtRW, "x4_ctx")
		r.Data[0] = 6 // TCP
		ctxs[cpu] = r.Base
	}
	done := func(results []exec.BatchResult) {
		for _, res := range results {
			switch {
			case res.Err != nil:
				p.failed.Add(1)
			case res.Report.R0 == 1:
				p.decided.Add(1)
			}
		}
	}
	p.batch = func(cpu, n int) exec.Batch {
		reqs := make([]exec.Request, n)
		for i := range reqs {
			reqs[i] = l.Request(ebpf.RunOptions{CtxAddr: ctxs[cpu]})
		}
		return exec.Batch{Engine: l.Engine(), Reqs: reqs, Done: done}
	}
	p.counted = func() uint64 {
		vals, _ := pc.PerCPUValues([]byte{0, 0, 0, 0})
		return sum(vals)
	}
	p.close = l.Close
	return p, nil
}

// NewSafextPlane builds, signs and loads the syscall policy and opens a
// sharded plane over it. Every invocation is paired Prepare/Finish, so it
// still gets the full verdict treatment (cleanup, termination accounting).
// The policy must carry a CONC certificate: every shard runs it at once.
func NewSafextPlane(cfg exec.ShardedConfig) (*Plane, error) {
	rt := runtime.New(planeKernel(), runtime.DefaultConfig())
	ext, err := LoadSLX(rt, "x4_policy", policySLX, 0)
	if err != nil {
		return nil, fmt.Errorf("load syscall policy: %w", err)
	}
	if ext.Conc == nil || ext.Conc.Racy() {
		ext.Close()
		return nil, fmt.Errorf("x4_policy is not shard-safe: %+v", ext.Conc)
	}
	pc, ok := maps.Unwrap(ext.Map("counts")).(maps.PerCPUMap)
	if !ok {
		ext.Close()
		return nil, fmt.Errorf("counts is not a per-CPU map")
	}
	p := newPlane(rt.NewSharded, cfg)
	p.batch = func(cpu, n int) exec.Batch {
		preps := make([]*runtime.Prepared, n)
		reqs := make([]exec.Request, n)
		for i := range reqs {
			preps[i] = ext.Prepare(runtime.RunOptions{CPU: cpu})
			reqs[i] = preps[i].Request()
		}
		return exec.Batch{Engine: ext.Engine(), Reqs: reqs, Done: func(results []exec.BatchResult) {
			for i, res := range results {
				v, ferr := preps[i].Finish(res.Report, res.Err)
				switch {
				case ferr != nil || !v.Completed:
					p.failed.Add(1)
				case v.R0 == -1:
					p.decided.Add(1)
				}
			}
		}}
	}
	// Shard i increments only key i, in its own percpu_hash cells.
	p.counted = func() uint64 {
		var n uint64
		for cpu := 0; cpu < p.shards; cpu++ {
			key := make([]byte, 8)
			key[0] = byte(cpu)
			vals, _ := pc.PerCPUValues(key)
			n += sum(vals)
		}
		return n
	}
	p.close = ext.Close
	return p, nil
}

// newPlane opens the sharded plane with cfg's shard count and CONC mode;
// the ring size is the workload's own.
func newPlane(open func(exec.ShardedConfig) *exec.Sharded, cfg exec.ShardedConfig) *Plane {
	cfg.RingSize = planeRing
	sh := open(cfg)
	return &Plane{sh: sh, shards: sh.Shards()}
}

func sum(vals []uint64) uint64 {
	var n uint64
	for _, v := range vals {
		n += v
	}
	return n
}

// Drive submits ops invocations in batches of batch, round-robin over the
// plane's shards, and times them until the plane drained. It then checks
// that no invocation failed, that all ops completed and that the per-CPU
// counters sum to ops exactly: nothing was lost to contention. A plane is
// driven once.
func (p *Plane) Drive(ops, batch int) (PlaneRun, error) {
	start := time.Now()
	for cpu, left := 0, ops; left > 0; cpu = (cpu + 1) % p.shards {
		n := min(batch, left)
		if err := p.sh.SubmitWait(cpu, p.batch(cpu, n)); err != nil {
			return PlaneRun{}, err
		}
		left -= n
	}
	p.sh.Flush()
	run := PlaneRun{Wall: time.Since(start), Decisions: p.decided.Load()}

	if n := p.failed.Load(); n > 0 {
		return run, fmt.Errorf("%d invocations failed", n)
	}
	if got := p.sh.Completed(); got != uint64(ops) {
		return run, fmt.Errorf("completed %d of %d", got, ops)
	}
	if got := p.counted(); got != uint64(ops) {
		return run, fmt.Errorf("per-CPU counters sum to %d, want %d", got, ops)
	}
	busy := p.sh.MaxBusyNs()
	if busy <= 0 {
		return run, fmt.Errorf("no virtual CPU time consumed")
	}
	run.SimOpsPerSec = float64(ops) / (float64(busy) / 1e9)
	return run, nil
}

// Close stops the plane's shards and unloads its program.
func (p *Plane) Close() {
	p.sh.Close()
	p.close()
}

// X4Throughput sweeps both flows across shard counts and upholds the
// sharding claim: simulated throughput at 4 shards is at least 2.5x the
// single-shard figure, with exact per-CPU accounting throughout.
func X4Throughput() *Result {
	r := &Result{
		ID:         "X4",
		Title:      "sharded data plane: steady-state throughput vs shard count",
		PaperClaim: "runtime-checked extensions must not serialize the hot path; per-CPU data structures keep the cost per invocation flat as parallelism grows (§4)",
	}
	flows := []struct {
		config, decision string
		open             func(exec.ShardedConfig) (*Plane, error)
	}{
		{"ebpf/jit", "pass", NewEBPFPlane},
		{"safext/jit", "denied", NewSafextPlane},
	}
	rate := map[string]map[int]float64{}
	r.Lines = append(r.Lines, fmt.Sprintf("%-14s %6s %16s %12s", "config", "shards", "sim-ops/sec", "decisions"))
	for _, f := range flows {
		rate[f.config] = map[int]float64{}
		for _, n := range []int{1, 2, 4, 8} {
			run, err := driveOnce(f.open, n)
			if err != nil {
				r.Measured = fmt.Sprintf("%s %d shards: %v", f.config, n, err)
				return r
			}
			rate[f.config][n] = run.SimOpsPerSec
			r.Lines = append(r.Lines, fmt.Sprintf("%-14s %6d %16.0f %12s", f.config, n, run.SimOpsPerSec,
				fmt.Sprintf("%d %s", run.Decisions, f.decision)))
		}
	}

	eScale := rate["ebpf/jit"][4] / rate["ebpf/jit"][1]
	sScale := rate["safext/jit"][4] / rate["safext/jit"][1]
	r.Measured = fmt.Sprintf(
		"simulated throughput scales %.2fx (ebpf/jit) and %.2fx (safext/jit) from 1 to 4 shards; per-CPU counters balanced exactly at every width",
		eScale, sScale)
	r.Holds = eScale >= 2.5 && sScale >= 2.5
	return r
}

// driveOnce runs X4's traffic volume over a fresh plane of the given width.
func driveOnce(open func(exec.ShardedConfig) (*Plane, error), shards int) (PlaneRun, error) {
	p, err := open(exec.ShardedConfig{Shards: shards})
	if err != nil {
		return PlaneRun{}, err
	}
	defer p.Close()
	return p.Drive(x4TotalOps, x4BatchSize)
}
