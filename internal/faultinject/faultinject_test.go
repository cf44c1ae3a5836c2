package faultinject

import (
	"errors"
	"reflect"
	"testing"

	"kex/internal/ebpf"
	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/exec"
	"kex/internal/kernel"
)

// drive exercises one fixed consultation sequence against an injector and
// returns the resulting event log.
func drive(inj *Injector) []Event {
	k := kernel.NewDefault()
	env := helpers.NewEnv(k, k.NewContext(0), nil)
	p := ebpf.NewStack(k).Core.Program("p")
	for i := 0; i < 200; i++ {
		inj.HelperCall(env, "bpf_ktime_get_ns")
		inj.MapUpdate("m")
		req := exec.Request{Program: p, Fuel: 1000, WatchdogNs: 1000}
		inj.BeforeRun(&req)
	}
	return inj.Events()
}

func testPlan() Plan {
	return Plan{Rules: []Rule{
		{Site: SiteHelperError, Prob: 0.1, Max: 10},
		{Site: SiteMapUpdate, Prob: 0.2, Max: 10},
		{Site: SiteFuel, Prob: 0.3, Max: 10, Scale: 0.5},
		{Site: SiteWatchdog, Prob: 0.3, Max: 10, Scale: 0.5},
	}}
}

func TestSameSeedSameSequence(t *testing.T) {
	a := drive(New(42, testPlan()))
	b := drive(New(42, testPlan()))
	if len(a) == 0 {
		t.Fatal("campaign injected nothing; plan probabilities too low for the test to mean anything")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same (seed, plan) diverged:\n%v\nvs\n%v", a, b)
	}
}

func TestDifferentSeedDifferentSequence(t *testing.T) {
	a := drive(New(42, testPlan()))
	b := drive(New(43, testPlan()))
	if reflect.DeepEqual(a, b) {
		t.Fatalf("different seeds produced identical %d-event sequences", len(a))
	}
}

func TestMaxCountCapsInjections(t *testing.T) {
	inj := New(7, Plan{Rules: []Rule{{Site: SiteMapUpdate, Prob: 1, Max: 3}}})
	fired := 0
	for i := 0; i < 50; i++ {
		if inj.MapUpdate("m") != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("injected %d times, want exactly Max=3", fired)
	}
}

func TestProbabilityEndpoints(t *testing.T) {
	never := New(7, Plan{Rules: []Rule{{Site: SiteMapUpdate, Prob: 0}}})
	always := New(7, Plan{Rules: []Rule{{Site: SiteMapUpdate, Prob: 1}}})
	for i := 0; i < 100; i++ {
		if never.MapUpdate("m") != nil {
			t.Fatal("Prob 0 rule fired")
		}
		if always.MapUpdate("m") == nil {
			t.Fatal("Prob 1 rule did not fire")
		}
	}
}

func TestMatchFilters(t *testing.T) {
	inj := New(7, Plan{Rules: []Rule{{Site: SiteMapUpdate, Match: "target", Prob: 1}}})
	if inj.MapUpdate("other") != nil {
		t.Fatal("rule fired on non-matching name")
	}
	if inj.MapUpdate("target") == nil {
		t.Fatal("rule did not fire on matching name")
	}
}

func TestInjectedMapUpdateErrorIsBareSentinel(t *testing.T) {
	inj := New(7, Plan{Rules: []Rule{{Site: SiteMapUpdate, Prob: 1}}})
	// The helper layer's errno translation switches on identity, so the
	// injected error must be the exact sentinel value.
	if err := inj.MapUpdate("m"); err != maps.ErrNoSpace {
		t.Fatalf("injected error = %v, want the identical maps.ErrNoSpace", err)
	}
}

func TestBudgetJitterScalesRequest(t *testing.T) {
	inj := New(7, Plan{Rules: []Rule{
		{Site: SiteFuel, Prob: 1, Scale: 0.001},
		{Site: SiteWatchdog, Prob: 1, Scale: 0.001},
	}})
	p := ebpf.NewStack(kernel.NewDefault()).Core.Program("p")
	req := exec.Request{Program: p, Fuel: 1_000_000, WatchdogNs: 2_000_000}
	inj.BeforeRun(&req)
	if req.Fuel != 1_000 {
		t.Fatalf("fuel after jitter = %d, want 1000", req.Fuel)
	}
	if req.WatchdogNs != 2_000 {
		t.Fatalf("watchdog after jitter = %d, want 2000", req.WatchdogNs)
	}
	// Zero budgets are nets that do not exist; jitter must not create them.
	req = exec.Request{Program: p}
	inj.BeforeRun(&req)
	if req.Fuel != 0 || req.WatchdogNs != 0 {
		t.Fatalf("jitter invented a budget: %+v", req)
	}
}

func TestMapAllocInjection(t *testing.T) {
	k := kernel.NewDefault()
	s := ebpf.NewStack(k)
	inj := New(7, Plan{Rules: []Rule{{Site: SiteMapAlloc, Prob: 1, Max: 1}}})
	Attach(s.Core, inj)
	if _, err := s.CreateMap(maps.Spec{Name: "doomed", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 4}); !errors.Is(err, maps.ErrNoSpace) {
		t.Fatalf("create under alloc fault = %v, want ErrNoSpace", err)
	}
	// Max=1 is spent; the next creation succeeds and the map is usable.
	m, err := s.CreateMap(maps.Spec{Name: "ok", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err != nil {
		t.Fatalf("create after budget spent: %v", err)
	}
	if err := m.Update(0, []byte{1, 0, 0, 0}, make([]byte, 8), maps.UpdateAny); err != nil {
		t.Fatalf("host-side update on unwrapped map hit the hook: %v", err)
	}
}

// TestStackCampaignReproducible runs a real verified-stack workload under a
// helper-error campaign twice from the same seed and requires the same
// injected-fault sequence and the same per-run results.
func TestStackCampaignReproducible(t *testing.T) {
	campaign := func() ([]Event, []uint64) {
		k := kernel.NewDefault()
		s := ebpf.NewStack(k)
		ktime, _ := s.Helpers.ByName("bpf_ktime_get_ns")
		prog := &isa.Program{Name: "camp", Type: isa.Tracing, Insns: []isa.Instruction{
			isa.Mov64Imm(isa.R6, 0),
			isa.Mov64Imm(isa.R7, 0),
			isa.Call(int32(ktime.ID)),
			isa.ALU64Imm(isa.OpAdd, isa.R7, 1),
			isa.ALU64Imm(isa.OpAdd, isa.R6, 1),
			isa.JmpImm(isa.OpJlt, isa.R6, 32, -4),
			isa.Mov64Reg(isa.R0, isa.R7),
			isa.Exit(),
		}}
		l, err := s.Load(prog)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		inj := New(99, Plan{Rules: []Rule{{Site: SiteHelperError, Prob: 0.05, Max: 20}}})
		Attach(s.Core, inj)
		var r0s []uint64
		for i := 0; i < 50; i++ {
			rep, err := l.Run(ebpf.RunOptions{})
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			r0s = append(r0s, rep.R0)
		}
		return inj.Events(), r0s
	}
	ev1, r1 := campaign()
	ev2, r2 := campaign()
	if len(ev1) == 0 {
		t.Fatal("campaign injected nothing")
	}
	if !reflect.DeepEqual(ev1, ev2) || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same seed diverged: %d vs %d events", len(ev1), len(ev2))
	}
}

func TestDetachRestoresMaps(t *testing.T) {
	k := kernel.NewDefault()
	s := ebpf.NewStack(k)
	m, err := s.CreateMap(maps.Spec{Name: "m", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	h1, ok := s.Maps.Handle(m)
	if !ok {
		t.Fatal("no handle before attach")
	}
	inj := New(7, Plan{Rules: []Rule{{Site: SiteMapUpdate, Prob: 1}}})
	Attach(s.Core, inj)
	h2, ok := s.Maps.Handle(m)
	if !ok || h2 != h1 {
		t.Fatalf("handle changed under fault hook: %#x vs %#x", h2, h1)
	}
	wrapped, _ := s.Maps.ByHandle(h1)
	if err := wrapped.Update(0, []byte{1, 0, 0, 0}, make([]byte, 8), maps.UpdateAny); !errors.Is(err, maps.ErrNoSpace) {
		t.Fatalf("armed update = %v, want injected ErrNoSpace", err)
	}
	Detach(s.Core)
	unwrapped, _ := s.Maps.ByHandle(h1)
	if err := unwrapped.Update(0, []byte{1, 0, 0, 0}, make([]byte, 8), maps.UpdateAny); err != nil {
		t.Fatalf("update after detach = %v, want success", err)
	}
	if s.Core.Inject != nil {
		t.Fatal("core injector still armed after detach")
	}
}
