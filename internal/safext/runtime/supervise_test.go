package runtime

import (
	"errors"
	"testing"

	"kex/internal/exec"
	"kex/internal/faultinject"
)

// TestCleanupRunsOnPanicPath pins the satellite guarantee: when the engine
// dies by kernel panic (oops=panic), the trusted-cleanup destructors still
// run inside the same dispatch, so resources the program held do not leak
// into the next invocation.
func TestCleanupRunsOnPanicPath(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	s := f.k.Sockets().Add("tcp", 10, 80, 20, 9000)
	ext := f.load(t, "paniccleanup", `
fn main() -> i64 {
	let s = kernel::sk_lookup_tcp(10, 80, 20, 9000);
	if kernel::sk_ok(s) {
		let t: i64 = kernel::ktime();
		return t - t;
	}
	return 0;
}
`)
	// Crash the kernel inside the ktime crate call, while the socket
	// reference is held, with oops=panic armed.
	inj := faultinject.New(1, faultinject.Plan{
		PanicOnOops: true,
		Rules: []faultinject.Rule{
			{Site: faultinject.SiteHelperCrash, Match: "slx_ktime", Prob: 1, Max: 1},
		},
	})
	faultinject.Attach(f.rt.Core, inj)

	v, err := ext.Run(RunOptions{})
	if err != nil {
		t.Fatalf("runtime error on panic path: %v", err)
	}
	if !v.Terminated || v.Reason != "panic" {
		t.Fatalf("verdict = %+v, want panic termination", v)
	}
	if v.CleanedSocks != 1 {
		t.Fatalf("cleaned socks = %d, want 1 (destructor skipped on panic path)", v.CleanedSocks)
	}
	if c := s.Ref().Count(); c != 1 {
		t.Fatalf("socket refcount = %d, want 1 (released by trusted cleanup)", c)
	}
	if f.rt.Stats().PanicKills != 1 {
		t.Fatalf("panic kills = %d, want 1", f.rt.Stats().PanicKills)
	}
	if inj.EventCount() != 1 {
		t.Fatalf("injections = %d, want 1", inj.EventCount())
	}
}

// TestSupervisedQuarantineVerdict drives a supervised extension into
// quarantine and requires denied dispatches to stop reaching the engine,
// surfacing as "quarantined" verdicts instead.
func TestSupervisedQuarantineVerdict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fuel = 100 // every run dies by fuel exhaustion
	f := newFixture(t, cfg)
	f.rt.Supervise(exec.SupervisorConfig{
		Window:        8,
		TripThreshold: 3,
		BaseBackoffNs: 1_000_000_000,
		MaxBackoffNs:  2_000_000_000,
		JitterSeed:    1,
		DeniedCostNs:  1_000,
	})
	ext := f.load(t, "hog", `
fn main() -> i64 {
	let mut acc: u64 = 0;
	for i in 0..100000 {
		acc += i;
	}
	return 0;
}
`)
	for i := 0; i < 3; i++ {
		v := f.run(t, ext)
		if !v.Terminated || v.Reason != "fuel" {
			t.Fatalf("run %d verdict = %+v, want fuel kill", i, v)
		}
	}
	if st := f.rt.Supervisor().State("hog"); st != exec.StateQuarantined {
		t.Fatalf("state = %s, want quarantined", st)
	}
	kills := f.rt.Stats().FuelKills
	for i := 0; i < 4; i++ {
		v := f.run(t, ext)
		if !v.Terminated || v.Reason != "quarantined" {
			t.Fatalf("denied run verdict = %+v, want quarantined", v)
		}
	}
	if f.rt.Stats().FuelKills != kills {
		t.Fatal("quarantined extension still reached the engine")
	}
	if n := f.rt.Core.Stats.Snapshot().Programs["hog"].Denied; n != 4 {
		t.Fatalf("denied count = %d, want 4", n)
	}
}

// TestSupervisedRecoveryRevalidatesSignature: the recovery probe re-takes
// the load-time trust decision. With the keyring emptied, the probe's
// revalidation fails, the extension stays quarantined, and the failure
// surfaces as ErrBadSignature.
func TestSupervisedRecoveryRevalidatesSignature(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fuel = 100
	f := newFixture(t, cfg)
	sup := f.rt.Supervise(exec.SupervisorConfig{
		Window:        8,
		TripThreshold: 3,
		BaseBackoffNs: 1_000_000,
		MaxBackoffNs:  2_000_000,
		JitterSeed:    1,
		DeniedCostNs:  1_000,
	})
	ext := f.load(t, "hog", `
fn main() -> i64 {
	let mut acc: u64 = 0;
	for i in 0..100000 {
		acc += i;
	}
	return 0;
}
`)
	for i := 0; i < 3; i++ {
		f.run(t, ext)
	}
	if st := sup.State("hog"); st != exec.StateQuarantined {
		t.Fatalf("state = %s, want quarantined", st)
	}

	// Key rotation while quarantined: the stored object no longer verifies.
	f.rt.keyring = nil
	f.k.Clock.Advance(sup.BackoffNs("hog") + 1)
	v, err := ext.Run(RunOptions{})
	if !errors.Is(err, ErrBadSignature) {
		t.Fatalf("probe after key rotation: v=%+v err=%v, want ErrBadSignature", v, err)
	}
	if st := sup.State("hog"); st != exec.StateQuarantined {
		t.Fatalf("state after failed revalidation = %s, want quarantined", st)
	}
	if f.rt.Stats().SignatureFails != 1 {
		t.Fatalf("signature fails = %d, want 1", f.rt.Stats().SignatureFails)
	}

	// Re-enrol the key: the next probe revalidates, runs, and (still
	// faulting by fuel) re-quarantines rather than recovering.
	f.rt.AddKey(f.signer.PublicKey())
	f.k.Clock.Advance(sup.BackoffNs("hog") + 1)
	v2, err2 := ext.Run(RunOptions{})
	if err2 != nil {
		t.Fatalf("probe after re-enrol: %v", err2)
	}
	if !v2.Terminated || v2.Reason != "fuel" {
		t.Fatalf("probe verdict = %+v, want fuel kill", v2)
	}
	if st := sup.State("hog"); st != exec.StateQuarantined {
		t.Fatalf("state after faulting probe = %s, want quarantined", st)
	}
}
