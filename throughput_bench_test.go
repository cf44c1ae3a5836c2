package kexbench

import (
	"sync/atomic"
	"testing"
	"time"

	"kex/internal/ebpf"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
)

// The BenchmarkThroughput_* family drives steady-state traffic through the
// per-CPU sharded data plane and persists BENCH_throughput.json. Two
// figures matter:
//
//   - ops_per_sec is SIMULATED throughput: completed ops divided by the
//     busiest shard's consumed virtual CPU time. It is what sharding is
//     supposed to scale, and it is independent of the harness's real core
//     count (CI runners may have one core).
//   - wall_ops_per_sec is honest wall-clock throughput on this machine.
//
// The scaling acceptance (>=2.5x from 1 to 4 shards) is judged on the
// simulated figure; the serial rows bound the batched submission path's
// wall overhead against plain Core.Run.

type tputRow struct {
	Config        string  `json:"config"`
	Shards        int     `json:"shards"`
	Batch         int     `json:"batch"`
	Ops           int     `json:"ops"`
	WallNsPerOp   float64 `json:"wall_ns_per_op"`
	SimOpsPerSec  float64 `json:"ops_per_sec"`
	WallOpsPerSec float64 `json:"wall_ops_per_sec"`
	BenchmarkIter int     `json:"benchmark_iters"`
}

var tputBench = newArtifact[tputRow]("BENCH_throughput.json", summarizeThroughput)

// summarizeThroughput adds the two derived acceptance figures: simulated
// 1-to-4-shard scaling per stack, and the single-shard RunBatch-vs-Run
// wall ratio.
func summarizeThroughput(rows []tputRow) any {
	byConfig := make(map[string]tputRow, len(rows))
	for _, r := range rows {
		byConfig[r.Config] = r
	}
	out := struct {
		Rows                   []tputRow          `json:"rows"`
		ScalingSim1To4         map[string]float64 `json:"scaling_sim_ops_1_to_4_shards"`
		RunBatchVsRunWallRatio float64            `json:"runbatch_vs_run_wall_ratio,omitempty"`
	}{Rows: rows, ScalingSim1To4: map[string]float64{}}
	for _, stack := range []string{"ebpf/jit", "safext/jit"} {
		one, ok1 := byConfig[stack+"/shards=1"]
		four, ok4 := byConfig[stack+"/shards=4"]
		if ok1 && ok4 && one.SimOpsPerSec > 0 {
			out.ScalingSim1To4[stack] = four.SimOpsPerSec / one.SimOpsPerSec
		}
	}
	run, ok1 := byConfig["serial/run"]
	rb, ok2 := byConfig["serial/runbatch"]
	if ok1 && ok2 && run.WallNsPerOp > 0 {
		out.RunBatchVsRunWallRatio = rb.WallNsPerOp / run.WallNsPerOp
	}
	return out
}

// tputKernel boots a kernel wide enough for the 8-shard sweep.
func tputKernel() *kernel.Kernel {
	cfg := kernel.DefaultConfig()
	cfg.NumCPU = 8
	return kernel.New(cfg)
}

// tputPktFilter is the traffic-generator workload: classify the context's
// protocol byte and count the invocation in a per-CPU array. Same shape
// as experiment X4.
func tputPktFilter(b *testing.B, s *ebpf.Stack) *isa.Program {
	b.Helper()
	if _, err := s.CreateMap(maps.Spec{
		Name: "tput_pkt", Type: maps.PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 4,
	}); err != nil {
		b.Fatal(err)
	}
	lookup, ok := s.Helpers.ByName("bpf_map_lookup_elem")
	if !ok {
		b.Fatal("bpf_map_lookup_elem not registered")
	}
	return &isa.Program{Name: "tput_pktfilter", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0),
		isa.ALU64Imm(isa.OpAnd, isa.R6, 0xff),
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R1, "tput_pkt"),
		isa.Call(int32(lookup.ID)),
		isa.JmpImm(isa.OpJeq, isa.R0, 0, 3),
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R7, 1),
		isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R7),
		isa.Mov64Imm(isa.R0, 0),
		isa.JmpImm(isa.OpJne, isa.R6, 6, 1),
		isa.Mov64Imm(isa.R0, 1),
		isa.Exit(),
	}}
}

// tputSLX is the safext syscall-policy workload with per-CPU accounting.
const tputSLX = `
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

func benchThroughputEBPF(b *testing.B, shards, batch int, config string) {
	k := tputKernel()
	s := ebpf.NewStack(k)
	l, err := s.Load(tputPktFilter(b, s))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ctxs := make([]*kernel.Region, shards)
	for cpu := range ctxs {
		ctxs[cpu] = k.Mem.Map(64, kernel.ProtRW, "tput_ctx")
		ctxs[cpu].Data[0] = 6
	}
	var failed atomic.Uint64
	done := func(results []exec.BatchResult) {
		for _, res := range results {
			if res.Err != nil {
				failed.Add(1)
			}
		}
	}
	sh := s.NewSharded(exec.ShardedConfig{Shards: shards, RingSize: 256})
	defer sh.Close()

	b.ResetTimer()
	start := time.Now()
	reqs := make([]exec.Request, 0, batch)
	cpu := 0
	for i := 0; i < b.N; i++ {
		reqs = append(reqs, l.Request(ebpf.RunOptions{CtxAddr: ctxs[cpu].Base}))
		if len(reqs) == batch {
			if err := sh.SubmitWait(cpu, exec.Batch{Engine: l.Engine(), Reqs: reqs, Done: done}); err != nil {
				b.Fatal(err)
			}
			reqs = make([]exec.Request, 0, batch)
			cpu = (cpu + 1) % shards
		}
	}
	if len(reqs) > 0 {
		if err := sh.SubmitWait(cpu, exec.Batch{Engine: l.Engine(), Reqs: reqs, Done: done}); err != nil {
			b.Fatal(err)
		}
	}
	sh.Flush()
	wall := time.Since(start)
	b.StopTimer()
	if n := failed.Load(); n > 0 {
		b.Fatalf("%d invocations failed", n)
	}
	recordTput(b, config, shards, batch, wall, sh)
}

func benchThroughputSafext(b *testing.B, shards, batch int, config string) {
	rt := runtime.New(tputKernel(), runtime.DefaultConfig())
	ext := loadSLX(b, rt, "tput_policy", tputSLX, 0)
	sh := rt.NewSharded(exec.ShardedConfig{Shards: shards, RingSize: 256})
	defer sh.Close()
	wall := driveSafextPlane(b, ext, sh, shards, batch)
	recordTput(b, config, shards, batch, wall, sh)
}

// driveSafextPlane submits b.N invocations of ext to the sharded plane in
// batches, round-robin over the first shards CPUs, and returns the wall
// time until the plane drained. Any failed invocation fails the benchmark.
func driveSafextPlane(b *testing.B, ext *runtime.Extension, sh *exec.Sharded, shards, batch int) time.Duration {
	var failed atomic.Uint64
	submit := func(cpu int, preps []*runtime.Prepared) {
		reqs := make([]exec.Request, len(preps))
		for i := range preps {
			reqs[i] = preps[i].Request()
		}
		b2 := exec.Batch{Engine: ext.Engine(), Reqs: reqs, Done: func(results []exec.BatchResult) {
			for i, res := range results {
				if v, ferr := preps[i].Finish(res.Report, res.Err); ferr != nil || !v.Completed {
					failed.Add(1)
				}
			}
		}}
		if err := sh.SubmitWait(cpu, b2); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	start := time.Now()
	preps := make([]*runtime.Prepared, 0, batch)
	cpu := 0
	for i := 0; i < b.N; i++ {
		preps = append(preps, ext.Prepare(runtime.RunOptions{CPU: cpu}))
		if len(preps) == batch {
			submit(cpu, preps)
			preps = make([]*runtime.Prepared, 0, batch)
			cpu = (cpu + 1) % shards
		}
	}
	if len(preps) > 0 {
		submit(cpu, preps)
	}
	sh.Flush()
	wall := time.Since(start)
	b.StopTimer()
	if n := failed.Load(); n > 0 {
		b.Fatalf("%d invocations failed", n)
	}
	return wall
}

func recordTput(b *testing.B, config string, shards, batch int, wall time.Duration, sh *exec.Sharded) {
	b.Helper()
	busy := sh.MaxBusyNs()
	if busy <= 0 {
		b.Fatal("no virtual CPU time consumed")
	}
	sim := float64(b.N) / (float64(busy) / 1e9)
	row := tputRow{
		Config:        config,
		Shards:        shards,
		Batch:         batch,
		Ops:           b.N,
		WallNsPerOp:   float64(wall.Nanoseconds()) / float64(b.N),
		SimOpsPerSec:  sim,
		WallOpsPerSec: float64(b.N) / wall.Seconds(),
		BenchmarkIter: b.N,
	}
	b.ReportMetric(sim, "sim-ops/sec")
	b.ReportMetric(row.WallNsPerOp, "wall-ns/op")
	tputBench.record(config, row)
}

// Shard sweep at a fixed batch size, both stacks on the JIT engine.
func BenchmarkThroughput_EBPFJIT_Shards1(b *testing.B) {
	benchThroughputEBPF(b, 1, 16, "ebpf/jit/shards=1")
}
func BenchmarkThroughput_EBPFJIT_Shards2(b *testing.B) {
	benchThroughputEBPF(b, 2, 16, "ebpf/jit/shards=2")
}
func BenchmarkThroughput_EBPFJIT_Shards4(b *testing.B) {
	benchThroughputEBPF(b, 4, 16, "ebpf/jit/shards=4")
}
func BenchmarkThroughput_EBPFJIT_Shards8(b *testing.B) {
	benchThroughputEBPF(b, 8, 16, "ebpf/jit/shards=8")
}
func BenchmarkThroughput_SafextJIT_Shards1(b *testing.B) {
	benchThroughputSafext(b, 1, 16, "safext/jit/shards=1")
}
func BenchmarkThroughput_SafextJIT_Shards2(b *testing.B) {
	benchThroughputSafext(b, 2, 16, "safext/jit/shards=2")
}
func BenchmarkThroughput_SafextJIT_Shards4(b *testing.B) {
	benchThroughputSafext(b, 4, 16, "safext/jit/shards=4")
}
func BenchmarkThroughput_SafextJIT_Shards8(b *testing.B) {
	benchThroughputSafext(b, 8, 16, "safext/jit/shards=8")
}

// Batch sweep at a fixed shard count, to size the submission ring's unit.
func BenchmarkThroughput_EBPFJIT_Batch1(b *testing.B) {
	benchThroughputEBPF(b, 4, 1, "ebpf/jit/shards=4/batch=1")
}
func BenchmarkThroughput_EBPFJIT_Batch64(b *testing.B) {
	benchThroughputEBPF(b, 4, 64, "ebpf/jit/shards=4/batch=64")
}

// The serial pair bounds the batched path's per-op wall overhead: the
// same core_bench workload as BenchmarkExecCore, dispatched through
// Core.Run one at a time versus Core.RunBatch in chunks of 16 on one CPU.
// The acceptance bar is runbatch <= 110% of run.
func BenchmarkThroughput_SerialRun(b *testing.B) {
	s := ebpf.NewStack(kernel.NewDefault())
	l, err := s.Load(execBenchProgram(b, s))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		rep, err := l.Run(ebpf.RunOptions{})
		if err != nil || rep.R0 != 3*execBenchIters {
			b.Fatalf("R0 = %d, %v", rep.R0, err)
		}
	}
	wall := time.Since(start)
	b.StopTimer()
	tputBench.record("serial/run", tputRow{
		Config: "serial/run", Shards: 1, Batch: 1, Ops: b.N,
		WallNsPerOp:   float64(wall.Nanoseconds()) / float64(b.N),
		WallOpsPerSec: float64(b.N) / wall.Seconds(),
		BenchmarkIter: b.N,
	})
}

func BenchmarkThroughput_SerialRunBatch(b *testing.B) {
	s := ebpf.NewStack(kernel.NewDefault())
	l, err := s.Load(execBenchProgram(b, s))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	const chunk = 16
	opts := make([]ebpf.RunOptions, chunk)
	b.ResetTimer()
	start := time.Now()
	for done := 0; done < b.N; {
		n := chunk
		if n > b.N-done {
			n = b.N - done
		}
		for _, res := range l.RunBatch(0, opts[:n]) {
			if res.Err != nil || res.Report.R0 != 3*execBenchIters {
				b.Fatalf("report = %+v, %v", res.Report, res.Err)
			}
		}
		done += n
	}
	wall := time.Since(start)
	b.StopTimer()
	tputBench.record("serial/runbatch", tputRow{
		Config: "serial/runbatch", Shards: 1, Batch: chunk, Ops: b.N,
		WallNsPerOp:   float64(wall.Nanoseconds()) / float64(b.N),
		WallOpsPerSec: float64(b.N) / wall.Seconds(),
		BenchmarkIter: b.N,
	})
}
