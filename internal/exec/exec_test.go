package exec

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/jit"
	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
)

func newTestCore() *Core {
	k := kernel.NewDefault()
	return NewCore(k, helpers.NewRegistry(), maps.NewRegistry())
}

// fakeEngine lets tests observe the environment the core hands an engine
// and inject arbitrary behaviour into the run window.
type fakeEngine struct {
	name string
	run  func(env *helpers.Env, opts interp.Options) (uint64, error)
}

func (f fakeEngine) Name() string { return f.name }
func (f fakeEngine) Run(env *helpers.Env, opts interp.Options) (uint64, error) {
	return f.run(env, opts)
}

func TestCoreRunLifecycle(t *testing.T) {
	c := newTestCore()
	var sawDepth int
	var sawCtxAddr uint64
	var sawFuel uint64
	var setupRan, finishRan bool
	var finishDepth int
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		// The core must have entered the RCU read-side section before
		// dispatching, and plumbed the request through.
		sawDepth = c.K.RCU().Depth(env.Ctx)
		sawCtxAddr = env.CtxAddr
		sawFuel = opts.Fuel
		env.Ctx.Tick(7)
		return 42, nil
	}}
	rep, err := c.Run(eng, Request{
		Program: c.Program("p"), CPU: 1, CtxAddr: 0xbeef, Fuel: 123,
		Setup: func(env *helpers.Env) { setupRan = true },
		Finish: func(env *helpers.Env, rep *Report, engineErr error) {
			finishRan = true
			finishDepth = c.K.RCU().Depth(env.Ctx)
			if engineErr != nil {
				t.Errorf("Finish got engineErr = %v", engineErr)
			}
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !setupRan || !finishRan {
		t.Fatalf("setup ran = %v, finish ran = %v", setupRan, finishRan)
	}
	if sawDepth != 1 {
		t.Fatalf("RCU depth during run = %d, want 1", sawDepth)
	}
	if finishDepth != 1 {
		t.Fatalf("RCU depth during Finish = %d, want 1 (cleanup window)", finishDepth)
	}
	if sawCtxAddr != 0xbeef || sawFuel != 123 {
		t.Fatalf("ctxAddr = %#x fuel = %d", sawCtxAddr, sawFuel)
	}
	if rep.Program != "p" || rep.Engine != "fake" || rep.R0 != 42 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Instructions != 7 || rep.RuntimeNs != 7 {
		t.Fatalf("insns = %d virtual = %dns, want 7/7", rep.Instructions, rep.RuntimeNs)
	}
	if rep.WallNs <= 0 {
		t.Fatalf("wall latency = %d, want > 0", rep.WallNs)
	}
	if len(rep.ExitOopses) != 0 || !c.K.Healthy() {
		t.Fatalf("clean run damaged kernel: %v", rep.ExitOopses)
	}
}

func TestCoreRunStatsAccumulate(t *testing.T) {
	c := newTestCore()
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.Ctx.Tick(10)
		env.CountHelper("bpf_probe")
		env.MapOps += 2
		env.FuelUsed = 10
		return 0, nil
	}}
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		if _, err := c.Run(eng, Request{Program: c.Program("a"), CPU: 0}, nil); err != nil {
			t.Fatal(err)
		}
	}
	bad := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		return 0, boom
	}}
	if _, err := c.Run(bad, Request{Program: c.Program("a"), CPU: 1}, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	snap := c.Stats.Snapshot()
	ps, ok := snap.Programs["a"]
	if !ok {
		t.Fatal("program a missing from snapshot")
	}
	if ps.Invocations != 4 || ps.Errors != 1 {
		t.Fatalf("invocations = %d errors = %d", ps.Invocations, ps.Errors)
	}
	if ps.Instructions != 30 || ps.FuelUsed != 30 || ps.MapOps != 6 {
		t.Fatalf("insns = %d fuel = %d mapops = %d", ps.Instructions, ps.FuelUsed, ps.MapOps)
	}
	if ps.HelperCalls["bpf_probe"] != 3 {
		t.Fatalf("helper calls = %v", ps.HelperCalls)
	}
	if snap.CPUs[0].Invocations != 3 || snap.CPUs[1].Invocations != 1 {
		t.Fatalf("cpu split = %+v", snap.CPUs)
	}
	if got := snap.Totals(); got.Invocations != 4 || got.HelperCalls["bpf_probe"] != 3 {
		t.Fatalf("totals = %+v", got)
	}
}

// bindEngine binds prog to the JIT or the interpreter.
func bindEngine(t *testing.T, c *Core, prog *isa.Program, useJIT bool) Engine {
	t.Helper()
	eng, err := NewEngine(c.Machine, prog, useJIT, jit.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// bothEngines binds prog to the interpreter and to the JIT.
func bothEngines(t *testing.T, c *Core, prog *isa.Program) []Engine {
	return []Engine{bindEngine(t, c, prog, false), bindEngine(t, c, prog, true)}
}

func TestCoreRunRealEngines(t *testing.T) {
	prog := &isa.Program{Name: "const42", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 42),
		isa.Exit(),
	}}
	c := newTestCore()
	for _, eng := range bothEngines(t, c, prog) {
		rep, err := c.Run(eng, Request{Program: c.Program(prog.Name)}, nil)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if rep.R0 != 42 {
			t.Fatalf("%s: R0 = %d", eng.Name(), rep.R0)
		}
		if rep.Engine != eng.Name() {
			t.Fatalf("report engine = %q, want %q", rep.Engine, eng.Name())
		}
	}
}

func TestCoreHelperCounting(t *testing.T) {
	c := newTestCore()
	ktime, ok := c.Helpers.ByName("bpf_ktime_get_ns")
	if !ok {
		t.Fatal("bpf_ktime_get_ns not registered")
	}
	prog := &isa.Program{Name: "clock", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Call(int32(ktime.ID)),
		isa.Call(int32(ktime.ID)),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}}
	for _, eng := range bothEngines(t, c, prog) {
		rep, err := c.Run(eng, Request{Program: c.Program(prog.Name)}, nil)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if rep.HelperCalls.Get("bpf_ktime_get_ns") != 2 {
			t.Fatalf("%s: helper calls = %v, want bpf_ktime_get_ns×2", eng.Name(), rep.HelperCalls)
		}
		if rep.FuelUsed == 0 {
			t.Fatalf("%s: fuel meter not published", eng.Name())
		}
	}
	snap := c.Stats.Snapshot()
	if snap.Programs["clock"].HelperCalls["bpf_ktime_get_ns"] != 4 {
		t.Fatalf("accumulated helper calls = %v", snap.Programs["clock"].HelperCalls)
	}
}

func TestCoreTailCall(t *testing.T) {
	c := newTestCore()
	tail, _ := c.Helpers.ByName("bpf_tail_call")
	target := &isa.Program{Name: "target", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 99),
		isa.Exit(),
	}}
	caller := &isa.Program{Name: "caller", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R2, 0), // prog-array handle (unused by the simulator)
		isa.Mov64Imm(isa.R3, 0), // index
		isa.Call(int32(tail.ID)),
		isa.Mov64Imm(isa.R0, 1), // only reached if the tail call fails
		isa.Exit(),
	}}
	for _, eng := range bothEngines(t, c, caller) {
		rep, err := c.Run(eng, Request{Program: c.Program(caller.Name), ProgArray: []*isa.Program{target}}, nil)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if rep.R0 != 99 {
			t.Fatalf("%s: R0 = %d, want 99 (tail-call target)", eng.Name(), rep.R0)
		}
	}
}

func TestCoreExitAuditRefLeak(t *testing.T) {
	c := newTestCore()
	sock := c.K.Sockets().Add("tcp", 0x0a000001, 80, 0x0a000002, 1234)
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		// Acquire a reference and "forget" to release it — the exit audit
		// must attribute the leak to this invocation.
		sock.Ref().Get()
		env.Ctx.TrackRef(sock.Ref())
		return 0, nil
	}}
	rep, err := c.Run(eng, Request{Program: c.Program("leaker")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ExitOopses) != 1 {
		t.Fatalf("exit oopses = %v, want one ref leak", rep.ExitOopses)
	}
	if !strings.Contains(rep.ExitOopses[0].Msg, "leaked reference") {
		t.Fatalf("oops = %q", rep.ExitOopses[0].Msg)
	}
	if c.K.Healthy() {
		t.Fatal("kernel still healthy after a detected leak")
	}
}

func TestCoreExitAuditRCUImbalance(t *testing.T) {
	c := newTestCore()
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		c.K.RCU().ReadLock(env.Ctx) // nested lock never released
		return 0, nil
	}}
	rep, err := c.Run(eng, Request{Program: c.Program("nester")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ExitOopses) == 0 {
		t.Fatal("unbalanced RCU nesting escaped the exit audit")
	}
}

func TestPhaseRecorder(t *testing.T) {
	rec := NewPhaseRecorder()
	rec.Mark("parse")
	rec.Mark("compile")
	pt := rec.Phases()
	if len(pt) != 2 || pt[0].Name != "parse" || pt[1].Name != "compile" {
		t.Fatalf("phases = %v", pt)
	}
	for _, p := range pt {
		if p.WallNs < 0 {
			t.Fatalf("negative phase duration: %+v", p)
		}
	}
	if pt.TotalNs() != pt[0].WallNs+pt[1].WallNs {
		t.Fatalf("TotalNs = %d", pt.TotalNs())
	}
	s := pt.String()
	if !strings.Contains(s, "parse") || !strings.Contains(s, "compile") {
		t.Fatalf("String() = %q", s)
	}
}

func TestRecordLoadKeepsPhaseOrder(t *testing.T) {
	var s Stats
	s.RecordLoad(PhaseTimings{{Name: "verify", WallNs: 10}, {Name: "jit-compile", WallNs: 5}})
	s.RecordLoad(PhaseTimings{{Name: "verify", WallNs: 30}, {Name: "jit-compile", WallNs: 7}})
	snap := s.Snapshot()
	if snap.Loads != 2 {
		t.Fatalf("loads = %d", snap.Loads)
	}
	want := PhaseTimings{{Name: "verify", WallNs: 40}, {Name: "jit-compile", WallNs: 12}}
	if len(snap.LoadPhases) != 2 || snap.LoadPhases[0] != want[0] || snap.LoadPhases[1] != want[1] {
		t.Fatalf("load phases = %v, want %v", snap.LoadPhases, want)
	}
}

func TestHelperCallRowsStableOrder(t *testing.T) {
	ps := ProgramStats{HelperCalls: map[string]uint64{"b": 2, "a": 2, "c": 9}}
	got := ps.HelperCallRows()
	want := []string{"c×9", "a×2", "b×2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows = %v, want %v", got, want)
		}
	}
}

// TestStatsConcurrent exercises the accumulator from many goroutines; it is
// the subject of the -race leg in CI. Every goroutine resolves the
// program's record itself, racing its creation; one CPU id in three lies
// past the sized per-CPU cells.
func TestStatsConcurrent(t *testing.T) {
	var s Stats
	s.sizeCPUs(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := s.prog("p")
			for i := 0; i < 200; i++ {
				s.RecordLoad(PhaseTimings{{Name: "verify", WallNs: 1}})
				s.fold(g%3, []reportBox{{Report: Report{
					Program:      "p",
					Instructions: 1,
					HelperCalls:  helpers.Calls(nil).Add("h", 1),
				}, prog: p, ran: true}})
				_ = s.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Loads != 1600 || snap.Programs["p"].Invocations != 1600 {
		t.Fatalf("loads = %d invocations = %d, want 1600/1600", snap.Loads, snap.Programs["p"].Invocations)
	}
	if snap.Programs["p"].HelperCalls["h"] != 1600 {
		t.Fatalf("helper calls = %v", snap.Programs["p"].HelperCalls)
	}
	if len(snap.CPUs) != 3 || snap.CPUs[0].Invocations+snap.CPUs[1].Invocations+snap.CPUs[2].Invocations != 1600 {
		t.Fatalf("CPUs = %+v, want 1600 invocations over CPUs 0-2", snap.CPUs)
	}
}
