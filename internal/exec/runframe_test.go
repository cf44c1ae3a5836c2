package exec

import (
	"fmt"
	"sync"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
)

// newAllocsFixture loads a JIT program that reads its ctx, writes its
// stack, looks up a map value and adds to it, and reads the clock: two
// helper calls and every kind of memory an invocation touches.
func newAllocsFixture(t *testing.T) (*Core, Engine, uint64) {
	t.Helper()
	c := newTestCore()
	if _, _, err := c.Maps.Create(c.K, maps.Spec{Name: "counts", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 4}); err != nil {
		t.Fatal(err)
	}
	lookup, _ := c.Helpers.ByName("bpf_map_lookup_elem")
	ktime, _ := c.Helpers.ByName("bpf_ktime_get_ns")
	insns := []isa.Instruction{
		isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0), // key from ctx
		isa.StoreMem(isa.SizeW, isa.R10, -4, isa.R6),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R1, "counts"),
		isa.Call(int32(lookup.ID)),
		isa.JmpImm(isa.OpJeq, isa.R0, 0, 3),
		isa.Mov64Imm(isa.R1, 1),
		isa.AtomicAdd64(isa.R0, 0, isa.R1),
		isa.Call(int32(ktime.ID)),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	if err := interp.Relocate(insns, c.Maps); err != nil {
		t.Fatal(err)
	}
	eng := bindEngine(t, c, &isa.Program{Name: "allocs", Type: isa.Tracing, Insns: insns}, true)
	ctx := c.K.Mem.Map(8, kernel.ProtRW, "ctx")
	c.K.Mem.StoreUint(ctx.Base, 4, 2)
	return c, eng, ctx.Base
}

// TestCoreRunAllocs pins the fixed cost of one invocation: the run frame,
// JIT state, RCU bracket, exit audit and stats allocate nothing, leaving
// the caller-owned Report as the only allocation. On a supervised core the
// healthy program's quiet gate adds nothing either.
func TestCoreRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	for _, name := range []string{"core", "supervisor"} {
		c, eng, ctx := newAllocsFixture(t)
		want := ""
		if name == "supervisor" {
			c.Supervise(SupervisorConfig{})
			want = string(StateHealthy)
		}
		req := Request{Program: "allocs", CPU: 1, CtxAddr: ctx}
		run := func() {
			rep, err := c.Run(eng, req, nil)
			if err != nil || rep.HelperCalls.Total() != 2 || len(rep.ExitOopses) != 0 || rep.Supervision != want {
				t.Fatalf("%s run: err=%v report=%+v", name, err, rep)
			}
		}
		run()
		if got := testing.AllocsPerRun(200, run); got > 1 {
			t.Fatalf("%s Core.Run allocs = %.1f, want <= 1", name, got)
		}
	}
}

// TestCoreRunAllocsLateSlot pins the documented limit of the inline helper
// counts: in a process that has already called more than 16 distinct
// helpers, a run calling a helper first called after them costs exactly
// one more allocation, for its report's count array.
func TestCoreRunAllocsLateSlot(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	c, eng, ctx := newAllocsFixture(t)
	// Give the fixture's helpers their slots before the filler names.
	if _, err := c.Run(eng, Request{Program: "allocs", CPU: 1, CtxAddr: ctx}, nil); err != nil {
		t.Fatal(err)
	}
	var filler helpers.Calls
	for i := 0; i < 20; i++ {
		filler = filler.Add(fmt.Sprintf("late_slot_filler_%d", i), 1)
	}
	late := c.Helpers.Register(helpers.Spec{
		Name: "late_slot_probe",
		Impl: func(*helpers.Env, [5]uint64) (uint64, error) { return 0, nil },
	})
	insns := []isa.Instruction{isa.Call(int32(late)), isa.Exit()}
	lateEng := bindEngine(t, c, &isa.Program{Name: "late", Type: isa.Tracing, Insns: insns}, true)
	req := Request{Program: "late", CPU: 1, CtxAddr: ctx}
	run := func() {
		rep, err := c.Run(lateEng, req, nil)
		if err != nil || rep.HelperCalls.Get("late_slot_probe") != 1 || len(rep.HelperCalls) <= 16 {
			t.Fatalf("run: err=%v calls=%d slots=%d", err, rep.HelperCalls.Get("late_slot_probe"), len(rep.HelperCalls))
		}
	}
	run()
	if got := testing.AllocsPerRun(200, run); got != 2 {
		t.Fatalf("Core.Run allocs with a late helper slot = %.1f, want 2", got)
	}
}

// TestRunBatchAllocs pins a batch at two allocations, its results and its
// report slab, whether or not it passes the supervisor gate.
func TestRunBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	for _, name := range []string{"core", "supervisor"} {
		c, eng, ctx := newAllocsFixture(t)
		if name == "supervisor" {
			c.Supervise(SupervisorConfig{})
		}
		reqs := make([]Request, 16)
		for i := range reqs {
			reqs[i] = Request{Program: "allocs", CtxAddr: ctx}
		}
		run := func() {
			for _, res := range c.RunBatch(eng, 1, reqs, nil) {
				if res.Err != nil || res.Report.HelperCalls.Total() != 2 {
					t.Fatalf("%s: err=%v report=%+v", name, res.Err, res.Report)
				}
			}
		}
		run()
		if got := testing.AllocsPerRun(50, run); got > 2 {
			t.Fatalf("%s RunBatch allocs = %.1f per batch of %d, want <= 2", name, got, len(reqs))
		}
	}
}

// frameView is what a run sees of its frame before the core enters the
// RCU read-side section.
type frameView struct {
	rcuDepth    int
	held, refs  int
	trace       int
	helperCalls uint64
	scratch     any
	hooked      bool
	rand        [3]uint32
}

func viewFrame(env *helpers.Env) frameView {
	v := frameView{
		rcuDepth:    env.K.RCU().Depth(env.Ctx),
		held:        len(env.K.LockDep().Held(env.Ctx)),
		refs:        len(env.Ctx.AcquiredRefs()),
		trace:       len(env.Trace),
		helperCalls: env.HelperCalls.Total(),
		scratch:     env.Scratch,
		hooked:      env.CallFunc != nil || env.TailCall != nil,
	}
	for i := range v.rand {
		v.rand[i] = env.Rand()
	}
	return v
}

// TestRunFrameHygiene dirties every piece of a run frame in one run and
// checks that the next run on the same core and CPU starts from a frame
// indistinguishable from a fresh core's.
func TestRunFrameHygiene(t *testing.T) {
	clean := fakeEngine{name: "fake", run: func(*helpers.Env, interp.Options) (uint64, error) { return 0, nil }}
	var fresh frameView
	{
		c := newTestCore()
		if _, err := c.Run(clean, Request{Program: "p", CPU: 1, Setup: func(env *helpers.Env) { fresh = viewFrame(env) }}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if fresh.rcuDepth != 0 || fresh.held != 0 || fresh.refs != 0 || fresh.trace != 0 ||
		fresh.helperCalls != 0 || fresh.scratch != nil || fresh.hooked {
		t.Fatalf("fresh frame is dirty: %+v", fresh)
	}

	for _, panicOnOops := range []bool{false, true} {
		cfg := kernel.DefaultConfig()
		cfg.PanicOnOops = panicOnOops
		k := kernel.New(cfg)
		c := NewCore(k, helpers.NewRegistry(), maps.NewRegistry())
		value := k.Mem.Map(8, kernel.ProtRW, "value")
		dirty := fakeEngine{name: "fake", run: func(env *helpers.Env, _ interp.Options) (uint64, error) {
			env.K.LockDep().Acquire(env.Ctx, env.LockAt(value.Base))
			env.K.RCU().ReadLock(env.Ctx)
			env.K.RCU().ReadLock(env.Ctx)
			env.Ctx.TrackRef(env.K.Refs().New("kept", nil))
			env.Trace = append(env.Trace, "dirty")
			env.CountHelper("bpf_ktime_get_ns")
			env.Scratch = "dirty"
			env.Rand()
			if panicOnOops {
				env.K.Oops(kernel.OopsBug, env.Ctx.CPUID, "dies mid-run")
			}
			return 0, nil
		}}
		rep, err := c.Run(dirty, Request{Program: "p", CPU: 1, Scratch: "req"}, nil)
		if _, died := err.(kernel.KernelPanic); died != panicOnOops {
			t.Fatalf("panicOnOops=%v: run 1 err = %v", panicOnOops, err)
		}
		if len(rep.ExitOopses) == 0 {
			t.Fatalf("panicOnOops=%v: run 1 left no exit damage", panicOnOops)
		}

		var got frameView
		if _, err := c.Run(clean, Request{Program: "p", CPU: 1, Setup: func(env *helpers.Env) { got = viewFrame(env) }}, nil); err != nil {
			t.Fatalf("panicOnOops=%v: run 2: %v", panicOnOops, err)
		}
		if got != fresh {
			t.Fatalf("panicOnOops=%v: run 2 frame = %+v, want a fresh frame %+v", panicOnOops, got, fresh)
		}
	}
}

// TestExitOopsesAfterLongLog checks that a run's ExitOopses are exactly
// the damage of that run however long the kernel's oops log already is.
func TestExitOopsesAfterLongLog(t *testing.T) {
	c := newTestCore()
	for i := 0; i < 10_000; i++ {
		c.K.Oops(kernel.OopsBug, 0, "old oops %d", i)
	}
	leak := fakeEngine{name: "fake", run: func(env *helpers.Env, _ interp.Options) (uint64, error) {
		env.Ctx.TrackRef(env.K.Refs().New("leaked", nil))
		return 0, nil
	}}
	rep, err := c.Run(leak, Request{Program: "p"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ExitOopses) != 1 || rep.ExitOopses[0].Kind != kernel.OopsRefLeak {
		t.Fatalf("ExitOopses = %v, want the one reference leak", rep.ExitOopses)
	}
	clean := fakeEngine{name: "fake", run: func(*helpers.Env, interp.Options) (uint64, error) { return 0, nil }}
	if rep, err := c.Run(clean, Request{Program: "p"}, nil); err != nil || rep.ExitOopses != nil {
		t.Fatalf("clean run: err=%v ExitOopses=%v", err, rep.ExitOopses)
	}
}

// TestCoreRunConcurrentSameCPU runs one core from several goroutines on
// one CPU at once: every run needs its own frame, and the striped stats
// must still add up. Each goroutine counts into its own map value, since
// the JIT's atomic add is a plain load and store.
func TestCoreRunConcurrentSameCPU(t *testing.T) {
	c, eng, _ := newAllocsFixture(t)
	const workers, runs = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ctx := c.K.Mem.Map(8, kernel.ProtRW, "ctx").Base
		c.K.Mem.StoreUint(ctx, 4, uint64(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				rep, err := c.Run(eng, Request{Program: "allocs", CPU: 0, CtxAddr: ctx}, nil)
				if err != nil || rep.HelperCalls.Get("bpf_map_lookup_elem") != 1 || len(rep.ExitOopses) != 0 {
					t.Errorf("run: err=%v report=%+v", err, rep)
					return
				}
			}
		}()
	}
	wg.Wait()
	ps := c.Stats.Snapshot().Programs["allocs"]
	if ps.Invocations != workers*runs || ps.HelperCalls["bpf_ktime_get_ns"] != workers*runs {
		t.Fatalf("stats = %v, want %d invocations", ps, workers*runs)
	}
	if n := c.K.RCU().ActiveReaders(); n != 0 || !c.K.Healthy() {
		t.Fatalf("active RCU readers = %d, kernel healthy = %v", n, c.K.Healthy())
	}
}
