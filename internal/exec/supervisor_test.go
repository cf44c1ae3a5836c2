package exec

import (
	"errors"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/kernel"
)

// ---- KernelPanic propagation through Core.Run -------------------------------

// TestKernelPanicPropagation runs a program whose helper crashes the kernel
// under oops=panic, on both real engines, and requires the panic to surface
// as the run error with the lifecycle fully settled: read-side section
// released, report assembled, stats recorded.
func TestKernelPanicPropagation(t *testing.T) {
	for _, kind := range []string{"interp", "jit"} {
		t.Run(kind, func(t *testing.T) {
			c := newTestCore()
			c.K.Cfg.PanicOnOops = true
			id := c.Helpers.Register(helpers.Spec{
				Name: "test_crash",
				Impl: func(env *helpers.Env, args [5]uint64) (uint64, error) {
					env.K.Oops(kernel.OopsBadAccess, env.Ctx.CPUID, "test: deliberate helper crash")
					return 0, helpers.ErrKernelCrash
				},
			})
			prog := &isa.Program{Name: "crash", Type: isa.Tracing, Insns: []isa.Instruction{
				isa.Call(int32(id)),
				isa.Exit(),
			}}
			eng := bindEngine(t, c, prog, kind == "jit")

			rep, err := c.Run(eng, Request{Program: c.Program("crash"), CPU: 0}, nil)
			var kp kernel.KernelPanic
			if !errors.As(err, &kp) {
				t.Fatalf("run error = %v, want kernel.KernelPanic", err)
			}
			if kp.Oops == nil || kp.Oops.Kind != kernel.OopsBadAccess {
				t.Fatalf("panic carries oops %+v, want invalid-memory-access", kp.Oops)
			}
			if rep == nil {
				t.Fatal("no report from panicking run")
			}
			if rep.WallNs <= 0 {
				t.Fatalf("wall latency = %d, want > 0 even on the panic path", rep.WallNs)
			}
			if got := c.K.RCU().ActiveReaders(); got != 0 {
				t.Fatalf("panic leaked %d RCU read-side sections", got)
			}
			ps := c.Stats.Snapshot().Programs["crash"]
			if ps.Invocations != 1 || ps.Errors != 1 {
				t.Fatalf("stats after panic: invocations=%d errors=%d, want 1/1", ps.Invocations, ps.Errors)
			}
			// The substrate must remain usable: a clean program still runs.
			ok := &isa.Program{Name: "ok", Type: isa.Tracing, Insns: []isa.Instruction{
				isa.Mov64Imm(isa.R0, 7),
				isa.Exit(),
			}}
			rep2, err2 := c.Run(bindEngine(t, c, ok, false), Request{Program: c.Program("ok")}, nil)
			if err2 != nil || rep2.R0 != 7 {
				t.Fatalf("post-panic run: r0=%d err=%v", rep2.R0, err2)
			}
		})
	}
}

// TestFinishRunsOnPanicPath pins satellite semantics: the Finish hook (the
// trusted-cleanup window) still runs when the engine dies by kernel panic,
// and sees the panic as its engineErr.
func TestFinishRunsOnPanicPath(t *testing.T) {
	c := newTestCore()
	c.K.Cfg.PanicOnOops = true
	var finishRan bool
	var finishErr error
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.K.Oops(kernel.OopsBadAccess, env.Ctx.CPUID, "test: engine dies")
		return 0, nil // unreachable: Oops panics
	}}
	_, err := c.Run(eng, Request{
		Program: c.Program("p"),
		Finish: func(env *helpers.Env, rep *Report, engineErr error) {
			finishRan = true
			finishErr = engineErr
		},
	}, nil)
	var kp kernel.KernelPanic
	if !errors.As(err, &kp) {
		t.Fatalf("run error = %v, want KernelPanic", err)
	}
	if !finishRan {
		t.Fatal("Finish hook skipped on the panic path")
	}
	if !errors.As(finishErr, &kp) {
		t.Fatalf("Finish saw engineErr = %v, want the kernel panic", finishErr)
	}
	if got := c.K.RCU().ActiveReaders(); got != 0 {
		t.Fatalf("leaked %d RCU read-side sections", got)
	}
}

// TestFinishOopsDoesNotMaskRunError: a destructor that itself oopses under
// oops=panic must not replace the original engine error.
func TestFinishOopsDoesNotMaskRunError(t *testing.T) {
	c := newTestCore()
	c.K.Cfg.PanicOnOops = true
	boom := errors.New("engine failed first")
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		return 0, boom
	}}
	rep, err := c.Run(eng, Request{
		Program: c.Program("p"),
		Finish: func(env *helpers.Env, rep *Report, engineErr error) {
			env.K.Oops(kernel.OopsBadAccess, env.Ctx.CPUID, "test: destructor oops")
		},
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("run error = %v, want the original engine error", err)
	}
	if rep == nil {
		t.Fatal("no report")
	}
	if got := c.K.RCU().ActiveReaders(); got != 0 {
		t.Fatalf("leaked %d RCU read-side sections", got)
	}
	// The destructor's damage is still on the kernel record.
	if len(c.K.Oopses()) == 0 {
		t.Fatal("destructor oops vanished")
	}
}

// ---- supervisor state machine -----------------------------------------------

// supCfg is a test config with backoffs far larger than DeniedCostNs so
// quarantines only expire when a test advances the clock deliberately.
func supCfg() SupervisorConfig {
	return SupervisorConfig{
		Window:        8,
		TripThreshold: 3,
		BaseBackoffNs: 1_000_000,
		MaxBackoffNs:  100_000_000,
		JitterSeed:    0xfeed,
		DeniedCostNs:  1_000,
	}
}

// engines for the state machine tests: always fault, or always succeed.
func faultyEngine(calls *int) Engine {
	return fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		*calls++
		return 0, errors.New("injected fault")
	}}
}

func healthyEngine(calls *int) Engine {
	return fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		*calls++
		return 1, nil
	}}
}

func TestSupervisorTripAndDeny(t *testing.T) {
	c := newTestCore()
	s := c.Supervise(supCfg())
	var calls int
	eng := faultyEngine(&calls)
	req := Request{Program: c.Program("p")}

	for i := 0; i < 3; i++ {
		if _, err := c.Run(eng, req, nil); err == nil {
			t.Fatalf("faulty run %d returned no error", i)
		}
	}
	if st := s.State("p"); st != StateQuarantined {
		t.Fatalf("state after 3 faults = %s, want quarantined", st)
	}
	if calls != 3 {
		t.Fatalf("engine ran %d times, want 3", calls)
	}

	// Denied dispatches must not reach the engine and must serve fallback.
	for i := 0; i < 5; i++ {
		rep, err := c.Run(eng, req, nil)
		if err != nil {
			t.Fatalf("fallback deny returned error: %v", err)
		}
		if !rep.Fallback || rep.R0 != 0 || rep.Supervision != "denied" {
			t.Fatalf("denied report = %+v", rep)
		}
	}
	if calls != 3 {
		t.Fatalf("quarantined program reached the engine: %d calls", calls)
	}
	ps := c.Stats.Snapshot().Programs["p"]
	if ps.Denied != 5 || ps.Fallbacks != 5 || ps.Faults != 3 {
		t.Fatalf("stats: denied=%d fallbacks=%d faults=%d", ps.Denied, ps.Fallbacks, ps.Faults)
	}
	if ps.Transitions["degraded->quarantined"] != 1 || ps.Transitions["healthy->degraded"] != 1 {
		t.Fatalf("transitions: %v", ps.Transitions)
	}
}

// TestSupervisorBackoffDeterministic pins the recovery schedule: the same
// (JitterSeed, program) reproduces the same backoff, and a failed probe
// strictly lengthens it.
func TestSupervisorBackoffDeterministic(t *testing.T) {
	tripOnce := func(seed uint64) (*Supervisor, *Core, int64) {
		c := newTestCore()
		cfg := supCfg()
		cfg.JitterSeed = seed
		s := c.Supervise(cfg)
		var calls int
		eng := faultyEngine(&calls)
		for i := 0; i < 3; i++ {
			c.Run(eng, Request{Program: c.Program("p")}, nil)
		}
		return s, c, s.BackoffNs("p")
	}

	_, _, b1 := tripOnce(0xfeed)
	_, _, b2 := tripOnce(0xfeed)
	if b1 <= 0 || b1 != b2 {
		t.Fatalf("same seed gave backoffs %d vs %d", b1, b2)
	}
	_, _, b3 := tripOnce(0xbeef)
	if b3 == b1 {
		t.Fatalf("different seeds gave the same jittered backoff %d", b1)
	}
	// Base 1ms with ±25% jitter stays within [0.75ms, 1.25ms].
	if b1 < 750_000 || b1 > 1_250_000 {
		t.Fatalf("first backoff %d outside the jitter envelope", b1)
	}

	// A failed probe doubles the envelope: min(2b)·0.75 > max(b)·1.25, so
	// the re-quarantine backoff is strictly larger.
	s, c, first := tripOnce(0xfeed)
	c.K.Clock.Advance(first + 1)
	var calls int
	if _, err := c.Run(faultyEngine(&calls), Request{Program: c.Program("p")}, nil); err == nil {
		t.Fatal("failed probe returned no error")
	}
	if calls != 1 {
		t.Fatalf("probe ran engine %d times, want 1", calls)
	}
	second := s.BackoffNs("p")
	if second <= first {
		t.Fatalf("re-quarantine backoff %d not longer than first %d", second, first)
	}
	ps := c.Stats.Snapshot().Programs["p"]
	if ps.Transitions["quarantined->quarantined"] != 1 {
		t.Fatalf("failed probe not visible in transitions: %v", ps.Transitions)
	}
}

func TestSupervisorRecoveryProbe(t *testing.T) {
	c := newTestCore()
	s := c.Supervise(supCfg())
	var faultCalls, okCalls, reloads int
	req := Request{Program: c.Program("p")}
	for i := 0; i < 3; i++ {
		c.Run(faultyEngine(&faultCalls), req, nil)
	}
	backoff := s.BackoffNs("p")
	reload := func() error { reloads++; return nil }

	// Before the deadline the dispatch is denied and reload never runs.
	if rep, _ := c.Run(healthyEngine(&okCalls), req, reload); rep.Supervision != "denied" {
		t.Fatalf("pre-deadline dispatch = %+v", rep)
	}
	if reloads != 0 || okCalls != 0 {
		t.Fatalf("denied dispatch touched reload (%d) or engine (%d)", reloads, okCalls)
	}

	c.K.Clock.Advance(backoff + 1)
	rep, err := c.Run(healthyEngine(&okCalls), req, reload)
	if err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if reloads != 1 || okCalls != 1 {
		t.Fatalf("probe: reloads=%d engine calls=%d, want 1/1", reloads, okCalls)
	}
	if rep.Supervision != string(StateRecovered) {
		t.Fatalf("probe report supervision = %q, want recovered", rep.Supervision)
	}
	// One more clean run promotes back to healthy.
	if _, err := c.Run(healthyEngine(&okCalls), req, reload); err != nil {
		t.Fatal(err)
	}
	if st := s.State("p"); st != StateHealthy {
		t.Fatalf("state after clean post-probe run = %s, want healthy", st)
	}
	ps := c.Stats.Snapshot().Programs["p"]
	if ps.Transitions["quarantined->recovered"] != 1 || ps.Transitions["recovered->healthy"] != 1 {
		t.Fatalf("transitions: %v", ps.Transitions)
	}
}

func TestSupervisorReloadFailureRequarantines(t *testing.T) {
	c := newTestCore()
	s := c.Supervise(supCfg())
	var faultCalls, okCalls int
	req := Request{Program: c.Program("p")}
	for i := 0; i < 3; i++ {
		c.Run(faultyEngine(&faultCalls), req, nil)
	}
	c.K.Clock.Advance(s.BackoffNs("p") + 1)
	bad := errors.New("signature no longer valid")
	rep, err := c.Run(healthyEngine(&okCalls), req, func() error { return bad })
	if !errors.Is(err, bad) {
		t.Fatalf("probe error = %v, want the reload failure", err)
	}
	if okCalls != 0 {
		t.Fatal("engine ran despite reload failure")
	}
	if rep.Supervision != "denied" {
		t.Fatalf("report = %+v", rep)
	}
	if st := s.State("p"); st != StateQuarantined {
		t.Fatalf("state = %s, want quarantined", st)
	}
}

// TestSupervisorDeniedCostExpiresBackoff: denied dispatches advance the
// virtual clock, so even a single-program workload eventually reaches its
// recovery probe without external help.
func TestSupervisorDeniedCostExpiresBackoff(t *testing.T) {
	c := newTestCore()
	cfg := supCfg()
	cfg.BaseBackoffNs = 10_000 // 10 denied dispatches' worth
	cfg.MaxBackoffNs = 20_000
	s := c.Supervise(cfg)
	var faultCalls, okCalls int
	req := Request{Program: c.Program("p")}
	for i := 0; i < 3; i++ {
		c.Run(faultyEngine(&faultCalls), req, nil)
	}
	for i := 0; i < 1000 && s.State("p") == StateQuarantined; i++ {
		c.Run(healthyEngine(&okCalls), req, nil)
	}
	if st := s.State("p"); st != StateRecovered {
		t.Fatalf("state = %s, want recovered via denied-cost clock advance", st)
	}
	if okCalls != 1 {
		t.Fatalf("engine calls while healing = %d, want exactly the probe", okCalls)
	}
}

// TestProgramRecordInspectionIsFree: asking after a program no one loaded
// makes no record and no health, and reads healthy, no backoff and not
// racy. A second supervisor starts every program healthy, whatever the
// first left on its record.
func TestProgramRecordInspectionIsFree(t *testing.T) {
	c := newTestCore()
	s := c.Supervise(supCfg())
	if st, b := s.State("ghost"), s.BackoffNs("ghost"); st != StateHealthy || b != 0 {
		t.Fatalf("unknown program reads state %s backoff %d, want healthy 0", st, b)
	}
	if racy, reason := c.ConcVerdict("ghost"); racy || reason != "" {
		t.Fatalf("unknown program reads racy=%v %q", racy, reason)
	}
	if _, ok := c.Stats.Snapshot().Programs["ghost"]; ok || c.Stats.lookup("ghost") != nil {
		t.Fatal("inspecting an unknown program made its record")
	}
	p := c.Program("p")
	if s.State("p") != StateHealthy || p.health.Load() != nil {
		t.Fatal("inspecting a program the supervisor never gated made its health")
	}

	var faults, runs int
	for i := 0; i < 3; i++ {
		c.Run(faultyEngine(&faults), Request{Program: p}, nil)
	}
	if s.State("p") != StateQuarantined {
		t.Fatalf("state = %s, want quarantined", s.State("p"))
	}
	s2 := c.Supervise(supCfg())
	if st, b := s2.State("p"), s2.BackoffNs("p"); st != StateHealthy || b != 0 {
		t.Fatalf("second supervisor reads state %s backoff %d, want healthy 0", st, b)
	}
	if rep, _ := c.Run(healthyEngine(&runs), Request{Program: p}, nil); runs != 1 || rep.Supervision != string(StateHealthy) {
		t.Fatalf("second supervisor: runs = %d, supervision %q; want one healthy run", runs, rep.Supervision)
	}
}
