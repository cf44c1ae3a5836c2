package exec

import (
	"sync"
	"testing"
	"unsafe"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
)

// frameProbe returns a program that reads two stack slots of each of its
// two frames before dirtying them, calls a helper, and returns the sum of
// what it read: 0 exactly when both frames started zeroed.
func frameProbe(helperID int32) []isa.Instruction {
	return []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R6, isa.R10, -8),
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R10, -512),
		isa.ALU64Reg(isa.OpAdd, isa.R6, isa.R7),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 7),
		isa.StoreImm(isa.SizeDW, isa.R10, -512, 9),
		isa.CallBPF(4),
		isa.ALU64Reg(isa.OpAdd, isa.R6, isa.R0),
		isa.Call(helperID),
		isa.Mov64Reg(isa.R0, isa.R6),
		isa.Exit(),
		// callee, in a second frame:
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.LoadMem(isa.SizeDW, isa.R1, isa.R10, -512),
		isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R1),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 7),
		isa.StoreImm(isa.SizeDW, isa.R10, -512, 9),
		isa.Exit(),
	}
}

// TestSameCPUReadersBesideSharded runs a two-shard plane while several
// goroutines call Core.Run on shard 1's CPU at once, on both engines. Runs
// on one CPU at the same time share its RCU owner slot, its stack-frame
// slot and its run-frame slot, so some take the locked fallbacks: every
// run must still see zeroed frames and pass a clean exit audit, and
// afterwards no reader is left and a grace period completes.
func TestSameCPUReadersBesideSharded(t *testing.T) {
	c := newTestCore()
	ktime, _ := c.Helpers.ByName("bpf_ktime_get_ns")
	prog := &isa.Program{Name: "probe", Type: isa.Tracing, Insns: frameProbe(int32(ktime.ID))}
	const batches, per, callers, runs = 40, 8, 3, 150
	for _, eng := range bothEngines(t, c, prog) {
		name := "probe-" + eng.Name()
		check := func(rep *Report, err error) {
			if err != nil || rep.R0 != 0 || len(rep.ExitOopses) != 0 {
				t.Errorf("%s: err=%v R0=%d exit oopses=%v", name, err, rep.R0, rep.ExitOopses)
			}
		}
		sh := c.NewSharded(ShardedConfig{Shards: 2})
		var wg sync.WaitGroup
		for cpu := 0; cpu < 2; cpu++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					reqs := make([]Request, per)
					for i := range reqs {
						reqs[i] = Request{Program: c.Program(name)}
					}
					done := func(rs []BatchResult) {
						for _, r := range rs {
							check(r.Report, r.Err)
						}
					}
					if err := sh.SubmitWait(cpu, Batch{Engine: eng, Reqs: reqs, Done: done}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < runs; i++ {
					check(c.Run(eng, Request{Program: c.Program(name), CPU: 1}, nil))
				}
			}()
		}
		wg.Wait()
		sh.Flush()
		sh.Close()
		if n := c.Stats.Snapshot().Programs[name].Invocations; n != 2*batches*per+callers*runs {
			t.Fatalf("%s: %d invocations, want %d", name, n, 2*batches*per+callers*runs)
		}
		if n, gp := c.K.RCU().ActiveReaders(), c.K.RCU().Synchronize(); n != 0 || !gp {
			t.Fatalf("%s: %d RCU readers left, grace period completed = %v", name, n, gp)
		}
		if !c.K.Healthy() {
			t.Fatalf("%s: kernel oopsed: %v", name, c.K.LastOops())
		}
	}
}

// TestShardedBatchSlabAllocs pins a warm shard's report storage: a batch
// of 16 eBPF requests submitted with SubmitWait and answered through Done
// allocates nothing, since the shard writes its reports into the slab it
// keeps across batches.
func TestShardedBatchSlabAllocs(t *testing.T) {
	c, eng, ctx := newAllocsFixture(t)
	sh := c.NewSharded(ShardedConfig{Shards: 2})
	defer sh.Close()
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Program: c.Program("allocs"), CtxAddr: ctx}
	}
	bad := 0
	answered := make(chan struct{}, 1)
	done := func(rs []BatchResult) {
		for _, r := range rs {
			if r.Err != nil || r.Report.HelperCalls.Total() != 2 || len(r.Report.ExitOopses) != 0 {
				bad++
			}
		}
		answered <- struct{}{}
	}
	run := func() {
		if err := sh.SubmitWait(1, Batch{Engine: eng, Reqs: reqs, Done: done}); err != nil {
			t.Fatal(err)
		}
		<-answered
	}
	run()
	if got := testing.AllocsPerRun(50, run); got != 0 {
		t.Fatalf("a warm shard's batch of %d allocates %.1f times, want 0", len(reqs), got)
	}
	if got := bytesOfRun(run); got >= uint64(unsafe.Sizeof(reportBox{})) {
		t.Fatalf("a warm shard's batch allocates %d bytes, less than one report box (%d) expected",
			got, unsafe.Sizeof(reportBox{}))
	}
	if bad != 0 {
		t.Fatalf("%d runs failed", bad)
	}
}

// TestShardedBatchSlabReset runs a dirty batch and then a clean one
// through the same shard: the clean batch's reports reuse the dirty
// one's storage and must carry none of its helper counts, trace or exit
// damage.
func TestShardedBatchSlabReset(t *testing.T) {
	c := newTestCore()
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, _ interp.Options) (uint64, error) {
		if env.CtxAddr == 0 {
			return 1, nil
		}
		env.CountHelper("bpf_ktime_get_ns")
		env.Trace = append(env.Trace, "dirty")
		env.Ctx.TrackRef(env.K.Refs().New("leaked", nil))
		return 2, nil
	}}
	sh := c.NewSharded(ShardedConfig{Shards: 1})
	defer sh.Close()
	// A copy of a Report shares its helper counts with the shard's slab,
	// so what Done keeps past its return copies them too.
	var dirty, clean []Report
	keep := func(into *[]Report) func([]BatchResult) {
		return func(rs []BatchResult) {
			for _, r := range rs {
				rep := *r.Report
				rep.HelperCalls = append(helpers.Calls(nil), rep.HelperCalls...)
				*into = append(*into, rep)
			}
		}
	}
	reqs := func(ctx uint64) []Request {
		return []Request{{Program: c.Program("p"), CtxAddr: ctx}, {Program: c.Program("p"), CtxAddr: ctx}}
	}
	for _, b := range []Batch{{Engine: eng, Reqs: reqs(1), Done: keep(&dirty)}, {Engine: eng, Reqs: reqs(0), Done: keep(&clean)}} {
		if err := sh.SubmitWait(0, b); err != nil {
			t.Fatal(err)
		}
		sh.Flush()
	}
	for i, rep := range dirty {
		if rep.R0 != 2 || rep.HelperCalls.Total() != 1 || len(rep.Trace) != 1 || len(rep.ExitOopses) != 1 {
			t.Fatalf("dirty report %d = %+v", i, rep)
		}
	}
	for i, rep := range clean {
		if rep.R0 != 1 || rep.HelperCalls != nil || rep.Trace != nil || rep.ExitOopses != nil {
			t.Fatalf("clean report %d after a dirty batch = %+v, want no helper calls, trace or exit damage", i, rep)
		}
	}
}
