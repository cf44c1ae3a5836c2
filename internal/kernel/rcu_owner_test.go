package kernel

import "testing"

// TestSameCPUReadersOwnerAndList opens sections of three contexts on one
// CPU: the first claims the CPU's owner slot, a second open at the same
// time goes to the locked list, and the cold readers see both halves.
func TestSameCPUReadersOwnerAndList(t *testing.T) {
	k := NewDefault()
	rcu := k.RCU()
	a, b, c := k.NewContext(0), k.NewContext(0), k.NewContext(0)
	rcu.ReadLock(a)
	rcu.ReadLock(a)
	rcu.ReadLock(b)
	if !a.rcuOwner || b.rcuOwner {
		t.Fatalf("owner slot: a %v, b %v; want a only", a.rcuOwner, b.rcuOwner)
	}
	if n, gp := rcu.ActiveReaders(), rcu.Synchronize(); n != 2 || gp {
		t.Fatalf("two open sections: %d readers, grace period completed = %v", n, gp)
	}
	k.Clock.Advance(k.Cfg.RCUStallTimeout)
	if stalls := rcu.CheckStalls(); len(stalls) != 2 {
		t.Fatalf("CheckStalls found %d stalls, want one per open section", len(stalls))
	}
	rcu.ReadUnlock(a)
	rcu.ReadUnlock(a)
	if n, gp := rcu.ActiveReaders(), rcu.Synchronize(); n != 1 || gp {
		t.Fatalf("list reader left: %d readers, grace period completed = %v", n, gp)
	}
	// The freed slot goes to the next outermost lock on the CPU.
	rcu.ReadLock(c)
	if !c.rcuOwner {
		t.Fatal("a section opened on a free slot did not claim it")
	}
	rcu.ReadUnlock(b)
	rcu.ReadUnlock(c)
	if n, gp := rcu.ActiveReaders(), rcu.Synchronize(); n != 0 || !gp {
		t.Fatalf("after every unlock: %d readers, grace period completed = %v", n, gp)
	}
	if k.Stats.RCUStalls != 2 || k.Stats.Oopses != 2 {
		t.Fatalf("oopses = %d (stalls %d), want the 2 stalls only", k.Stats.Oopses, k.Stats.RCUStalls)
	}
}

// TestStallRuleSelfDetectAtTimeout pins the tick detector to the
// threshold: a section that consumed one nanosecond less than
// RCUStallTimeout is healthy, and the tick that brings it to exactly the
// threshold reports it.
func TestStallRuleSelfDetectAtTimeout(t *testing.T) {
	k := NewDefault()
	timeout := k.Cfg.RCUStallTimeout
	under := k.NewContext(0)
	k.RCU().ReadLock(under)
	under.Tick(uint64(timeout - 1))
	if k.Stats.RCUStalls != 0 {
		t.Fatalf("stall reported at %d ns of a %d ns threshold", timeout-1, timeout)
	}
	at := k.NewContext(1)
	at.Tick(5) // consumed before the section opens does not age it
	k.RCU().ReadLock(at)
	at.Tick(uint64(timeout - detectorGranularity))
	if k.Stats.RCUStalls != 0 {
		t.Fatal("stall reported below the threshold")
	}
	at.Tick(detectorGranularity)
	if k.Stats.RCUStalls != 1 {
		t.Fatalf("stalls = %d at exactly the threshold, want 1", k.Stats.RCUStalls)
	}
	if o := k.LastOops(); o.Kind != OopsRCUStall || o.CPU != 1 {
		t.Fatalf("oops = %v, want an RCU stall on CPU 1", o)
	}
}

// TestStallRuleCountsIdle checks that both detectors age a section by the
// idle time Clock.Advance injects as well as by its own consumed time.
func TestStallRuleCountsIdle(t *testing.T) {
	k := NewDefault()
	timeout := k.Cfg.RCUStallTimeout
	rcu := k.RCU()
	ctx := k.NewContext(0)
	rcu.ReadLock(ctx)
	ctx.Tick(uint64(timeout / 2))
	k.Clock.Advance(timeout - timeout/2 - 1)
	if stalls := rcu.CheckStalls(); len(stalls) != 0 {
		t.Fatalf("premature stall: %v", stalls)
	}
	k.Clock.Advance(1)
	if stalls := rcu.CheckStalls(); len(stalls) != 1 {
		t.Fatalf("CheckStalls at consumed+idle = threshold: %d stalls, want 1", len(stalls))
	}
	rcu.ReadUnlock(ctx)

	// Idle injected before a section opens does not age it; idle injected
	// inside it ages it for the tick detector too.
	other := k.NewContext(1)
	rcu.ReadLock(other)
	k.Clock.Advance(timeout)
	other.Tick(detectorGranularity)
	if k.Stats.RCUStalls != 2 {
		t.Fatalf("tick detector after idle: stalls = %d, want 2", k.Stats.RCUStalls)
	}
}

// TestStallRuleBusyShardNoCrossStall runs one CPU far past the stall
// threshold while a reader sits in a section on another CPU: the global
// clock moves, but neither detector charges that work to the reader.
func TestStallRuleBusyShardNoCrossStall(t *testing.T) {
	k := New(Config{NumCPU: 2})
	timeout := k.Cfg.RCUStallTimeout
	reader, busy := k.NewContext(1), k.NewContext(0)
	k.RCU().ReadLock(reader)
	for i := 0; i < 3; i++ {
		busy.Tick(uint64(timeout))
	}
	reader.Tick(1)
	if stalls := k.RCU().CheckStalls(); len(stalls) != 0 || k.Stats.RCUStalls != 0 {
		t.Fatalf("busy CPU 0 stalled the reader on CPU 1: %v", stalls)
	}
	if got := k.Clock.Now(); got != 3*timeout+1 {
		t.Fatalf("Now = %d, want %d", got, 3*timeout+1)
	}
}

// TestStallRuleNowSumsCPUsAndIdle drives ticks on every CPU, a wrapped CPU
// id and idle advances in turn: after each step Now is the running total of
// all of them, which is what the clock read when Advance wrote CPU 0's
// counter, and Advance returns it.
func TestStallRuleNowSumsCPUsAndIdle(t *testing.T) {
	k := New(Config{NumCPU: 3})
	var want int64
	for step := 0; step < 12; step++ {
		d := int64(step*7 + 1)
		switch step % 4 {
		case 3:
			want += d
			if got := k.Clock.Advance(d); got != want {
				t.Fatalf("step %d: Advance returned %d, want %d", step, got, want)
			}
		default:
			k.NewContext(step%4 + 3*(step/4)).Tick(uint64(d))
			want += d
		}
		if got := k.Clock.Now(); got != want {
			t.Fatalf("step %d: Now = %d, want %d", step, got, want)
		}
	}
	if got := k.Clock.Since(5); got != want-5 {
		t.Fatalf("Since(5) = %d, want %d", got, want-5)
	}
}
