package ebpf

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/exec"
	"kex/internal/faultinject"
	"kex/internal/kernel"
)

func ktimeProg(t *testing.T, s *Stack) *isa.Program {
	t.Helper()
	ktime, ok := s.Helpers.ByName("bpf_ktime_get_ns")
	if !ok {
		t.Fatal("bpf_ktime_get_ns missing")
	}
	return &isa.Program{Name: "tick", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Call(int32(ktime.ID)),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}}
}

// TestSupervisedPipeline drives a verified program through the full
// supervised lifecycle: crash faults trip the breaker, quarantined
// dispatches never reach the engine, and once the fault source is gone the
// recovery probe re-verifies the original program and readmits it.
func TestSupervisedPipeline(t *testing.T) {
	k := kernel.NewDefault()
	s := NewStack(k)
	sup := s.Supervise(exec.SupervisorConfig{
		Window:        8,
		TripThreshold: 3,
		BaseBackoffNs: 1_000_000,
		MaxBackoffNs:  10_000_000,
		JitterSeed:    7,
		DeniedCostNs:  1_000,
	})
	l, err := s.Load(ktimeProg(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	inj := faultinject.New(3, faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteHelperCrash, Match: "bpf_ktime_get_ns", Prob: 1, Max: 3},
	}})
	faultinject.Attach(s.Core, inj)
	for i := 0; i < 3; i++ {
		if _, err := l.Run(RunOptions{}); !errors.Is(err, helpers.ErrKernelCrash) {
			t.Fatalf("run %d err = %v, want kernel crash", i, err)
		}
	}
	if st := sup.State("tick"); st != exec.StateQuarantined {
		t.Fatalf("state = %s, want quarantined", st)
	}

	oopses := len(k.Oopses())
	rep, err := l.Run(RunOptions{})
	if err != nil || !rep.Fallback || rep.R0 != 0 || rep.Supervision != "denied" {
		t.Fatalf("denied dispatch: rep=%+v err=%v", rep, err)
	}
	if len(k.Oopses()) != oopses {
		t.Fatal("denied dispatch reached the engine (new oops recorded)")
	}

	// Fault source gone; past the backoff the probe re-verifies and runs.
	faultinject.Detach(s.Core)
	k.Clock.Advance(sup.BackoffNs("tick") + 1)
	rep, err = l.Run(RunOptions{})
	if err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if rep.Supervision != string(exec.StateRecovered) {
		t.Fatalf("probe supervision = %q, want recovered", rep.Supervision)
	}
	ps := s.Core.Stats.Snapshot().Programs["tick"]
	if ps.Transitions["quarantined->recovered"] != 1 {
		t.Fatalf("transitions: %v", ps.Transitions)
	}
}

// TestSupervisedReverifyFailure: the recovery probe re-runs the verifier
// against the current configuration; a program that no longer verifies is
// denied and stays quarantined.
func TestSupervisedReverifyFailure(t *testing.T) {
	k := kernel.NewDefault()
	s := NewStack(k)
	sup := s.Supervise(exec.SupervisorConfig{
		Window:        8,
		TripThreshold: 3,
		BaseBackoffNs: 1_000_000,
		MaxBackoffNs:  10_000_000,
		JitterSeed:    7,
		DeniedCostNs:  1_000,
	})
	l, err := s.Load(ktimeProg(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	inj := faultinject.New(3, faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteHelperCrash, Match: "bpf_ktime_get_ns", Prob: 1, Max: 3},
	}})
	faultinject.Attach(s.Core, inj)
	for i := 0; i < 3; i++ {
		l.Run(RunOptions{})
	}
	faultinject.Detach(s.Core)

	// Policy tightened while quarantined: the program is now oversized.
	s.VerifierConfig.MaxInsns = 1
	k.Clock.Advance(sup.BackoffNs("tick") + 1)
	_, err = l.Run(RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "recovery reload") {
		t.Fatalf("probe err = %v, want recovery reload failure", err)
	}
	if st := sup.State("tick"); st != exec.StateQuarantined {
		t.Fatalf("state = %s, want still quarantined", st)
	}
}

// TestSupervisedReverifyIgnoresCapture: the recovery probe wants the
// verifier's verdict only. A stack whose VerifierConfig captures states and
// logs them still gets them at Load, but the probe's re-verify builds
// neither: its verdict, the probe's outcome and the program's counters are
// those of a stack without them, and so is what a re-verify allocates.
func TestSupervisedReverifyIgnoresCapture(t *testing.T) {
	probe := func(capture bool) (outcome string, allocs float64) {
		k := kernel.NewDefault()
		s := NewStack(k)
		s.VerifierConfig.CaptureState, s.VerifierConfig.LogState = capture, capture
		sup := s.Supervise(exec.SupervisorConfig{
			Window:        8,
			TripThreshold: 3,
			BaseBackoffNs: 1_000_000,
			MaxBackoffNs:  10_000_000,
			JitterSeed:    7,
			DeniedCostNs:  1_000,
		})
		l, err := s.Load(ktimeProg(t, s))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if got := l.Verdict.States != nil && len(l.Verdict.Log) > 0; got != capture {
			t.Fatalf("capture=%v: Load kept a table and a log: %v", capture, got)
		}
		inj := faultinject.New(3, faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteHelperCrash, Match: "bpf_ktime_get_ns", Prob: 1, Max: 3},
		}})
		faultinject.Attach(s.Core, inj)
		for i := 0; i < 3; i++ {
			l.Run(RunOptions{})
		}
		faultinject.Detach(s.Core)
		k.Clock.Advance(sup.BackoffNs("tick") + 1)
		rep, err := l.Run(RunOptions{})
		if err != nil {
			t.Fatalf("capture=%v: recovery probe: %v", capture, err)
		}
		ps := s.Core.Stats.Snapshot().Programs["tick"]
		outcome = fmt.Sprintf("verdict=%v supervision=%s r0=%d state=%s invocations=%d faults=%d denied=%d probe-failures=%d transitions=%v",
			l.reverify(), rep.Supervision, rep.R0, sup.State("tick"), ps.Invocations, ps.Faults, ps.Denied, ps.ProbeFailures, ps.Transitions)
		return outcome, testing.AllocsPerRun(20, func() { _ = l.reverify() })
	}
	plain, plainAllocs := probe(false)
	captured, capturedAllocs := probe(true)
	if captured != plain {
		t.Errorf("with capture and log: %s\nwithout: %s", captured, plain)
	}
	if capturedAllocs != plainAllocs {
		t.Errorf("a re-verify allocates %.0f times with capture and log on, %.0f without", capturedAllocs, plainAllocs)
	}
}
