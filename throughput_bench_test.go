package kexbench

import (
	"testing"
	"time"

	"kex/internal/exec"
	"kex/internal/experiments"
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

var tputBench = newTable("BENCH_throughput.json", deriveThroughput)

// deriveThroughput adds the two derived acceptance figures: simulated
// 1-to-4-shard scaling, on each stack's shards=4 row, and the
// single-shard RunBatch-vs-Run wall ratio, on the serial/runbatch row.
func deriveThroughput(rows []row) []row {
	byConfig := make(map[string]row, len(rows))
	for _, r := range rows {
		byConfig[r.Config] = r
	}
	for _, stack := range []string{"ebpf/jit", "safext/jit"} {
		one, ok1 := byConfig[stack+"/shards=1"]
		four, ok4 := byConfig[stack+"/shards=4"]
		if ok1 && ok4 && one.Metrics["ops_per_sec"] > 0 {
			four.Metrics["scaling_sim_ops_1_to_4_shards"] = four.Metrics["ops_per_sec"] / one.Metrics["ops_per_sec"]
		}
	}
	run, ok1 := byConfig["serial/run"]
	rb, ok2 := byConfig["serial/runbatch"]
	if ok1 && ok2 && run.Metrics["wall_ns_per_op"] > 0 {
		rb.Metrics["runbatch_vs_run_wall_ratio"] = rb.Metrics["wall_ns_per_op"] / run.Metrics["wall_ns_per_op"]
	}
	return rows
}

// drivePlane opens one X4 flow's plane and drives b.N invocations through
// it: the same workload, plane set-up and checks as `kexrepro -exp X4`,
// timed around the drive alone.
func drivePlane(b *testing.B, open func(exec.ShardedConfig) (*experiments.Plane, error), cfg exec.ShardedConfig, batch int) experiments.PlaneRun {
	p, err := open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	run, err := p.Drive(b.N, batch)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	return run
}

func benchThroughput(b *testing.B, open func(exec.ShardedConfig) (*experiments.Plane, error), shards, batch int, config string) {
	run := drivePlane(b, open, exec.ShardedConfig{Shards: shards}, batch)
	tputBench.record(b, row{Config: config, Metrics: metrics{
		"shards":           float64(shards),
		"batch":            float64(batch),
		"ops":              float64(b.N),
		"wall_ns_per_op":   float64(run.Wall.Nanoseconds()) / float64(b.N),
		"ops_per_sec":      run.SimOpsPerSec,
		"wall_ops_per_sec": float64(b.N) / run.Wall.Seconds(),
	}})
}

// Shard sweep at a fixed batch size, both stacks on the JIT engine.
func BenchmarkThroughput_EBPFJIT_Shards1(b *testing.B) {
	benchThroughput(b, experiments.NewEBPFPlane, 1, 16, "ebpf/jit/shards=1")
}
func BenchmarkThroughput_EBPFJIT_Shards2(b *testing.B) {
	benchThroughput(b, experiments.NewEBPFPlane, 2, 16, "ebpf/jit/shards=2")
}
func BenchmarkThroughput_EBPFJIT_Shards4(b *testing.B) {
	benchThroughput(b, experiments.NewEBPFPlane, 4, 16, "ebpf/jit/shards=4")
}
func BenchmarkThroughput_EBPFJIT_Shards8(b *testing.B) {
	benchThroughput(b, experiments.NewEBPFPlane, 8, 16, "ebpf/jit/shards=8")
}
func BenchmarkThroughput_SafextJIT_Shards1(b *testing.B) {
	benchThroughput(b, experiments.NewSafextPlane, 1, 16, "safext/jit/shards=1")
}
func BenchmarkThroughput_SafextJIT_Shards2(b *testing.B) {
	benchThroughput(b, experiments.NewSafextPlane, 2, 16, "safext/jit/shards=2")
}
func BenchmarkThroughput_SafextJIT_Shards4(b *testing.B) {
	benchThroughput(b, experiments.NewSafextPlane, 4, 16, "safext/jit/shards=4")
}
func BenchmarkThroughput_SafextJIT_Shards8(b *testing.B) {
	benchThroughput(b, experiments.NewSafextPlane, 8, 16, "safext/jit/shards=8")
}

// Batch sweep at a fixed shard count, to size the submission ring's unit.
func BenchmarkThroughput_EBPFJIT_Batch1(b *testing.B) {
	benchThroughput(b, experiments.NewEBPFPlane, 4, 1, "ebpf/jit/shards=4/batch=1")
}
func BenchmarkThroughput_EBPFJIT_Batch64(b *testing.B) {
	benchThroughput(b, experiments.NewEBPFPlane, 4, 64, "ebpf/jit/shards=4/batch=64")
}

// The serial pair bounds the batched path's per-op wall overhead: the
// same exec-core workload as BenchmarkExecCore, dispatched through
// Core.Run one at a time versus Core.RunBatch in chunks of 16 on one CPU.
// The acceptance bar is runbatch <= 110% of run.
func BenchmarkThroughput_SerialRun(b *testing.B) {
	benchSerial(b, "serial/run", 1, (*experiments.ExecCore).Run)
}

func BenchmarkThroughput_SerialRunBatch(b *testing.B) {
	const chunk = 16
	benchSerial(b, "serial/runbatch", chunk, func(c *experiments.ExecCore, n int) error {
		return c.RunBatch(n, chunk)
	})
}

// benchSerial times b.N invocations of the exec-core workload on the eBPF
// JIT through drive and records the wall figures.
func benchSerial(b *testing.B, config string, batch int, drive func(*experiments.ExecCore, int) error) {
	c, err := experiments.NewExecCore(experiments.ExecLeg{JIT: true})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	start := time.Now()
	err = drive(c, b.N)
	wall := time.Since(start)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	tputBench.record(b, row{Config: config, Metrics: metrics{
		"shards":           1,
		"batch":            float64(batch),
		"ops":              float64(b.N),
		"wall_ns_per_op":   float64(wall.Nanoseconds()) / float64(b.N),
		"wall_ops_per_sec": float64(b.N) / wall.Seconds(),
	}})
}
