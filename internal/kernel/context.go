package kernel

import "sync/atomic"

// Context is one extension execution context: the kernel-side identity of a
// running extension program. Both execution stacks — the verified-eBPF
// interpreter/JIT and the safext runtime — run programs inside a Context,
// so RCU nesting, held locks, acquired references and CPU time are
// accounted identically for the two worlds the paper compares.
//
// A Context belongs to exactly one shard worker; the only fields that may
// be observed from outside the owning goroutine are the atomic ones.
type Context struct {
	K     *Kernel
	CPUID int
	// clock is the clock counter of this context's CPU, which Tick
	// advances.
	clock *clockCell

	// InstrCost is the virtual time charged per retired instruction. The
	// default, 1ns, makes "a billion instructions" cost one virtual second,
	// which is the right order for a simple interpreter.
	InstrCost int64

	// Instructions counts retired instructions in this context.
	Instructions uint64

	// consumedNs is the virtual CPU time this context itself has burned
	// (Instructions × InstrCost). Under sharded execution the clock's Now
	// carries every shard's work, so per-context deadlines — watchdog,
	// soft lockup, RCU stall — and a run's RuntimeNs are judged against
	// consumed time, the context's own share. Atomic so shard supervisors
	// can peek.
	consumedNs atomic.Int64

	// lastYieldNs is the consumed time at the last scheduling point,
	// feeding the soft-lockup watchdog.
	lastYieldNs int64
	// softLockupHit remembers that the soft-lockup watchdog already fired.
	softLockupHit bool

	// acquired tracks references taken by this program run so exit audits
	// can find leaks without scanning the whole kernel.
	acquired []*Ref

	// lastDetectNs is the consumed time the periodic detectors last ran;
	// they re-run at detectorGranularity to keep Tick cheap.
	lastDetectNs int64

	// held lists the extension spin locks this context holds, in
	// acquisition order (see LockDep).
	held []*SpinLock

	// RCU read-side state. The fields are guarded by the mutex of the RCU
	// shard for this context's CPU, which also lists the context while
	// rcuDepth > 0.
	rcuDepth int
	// rcuSince is the virtual clock time the outermost read lock was
	// taken, used by the harness-driven detector and for reporting.
	rcuSince int64
	// rcuSinceNs is this context's consumed CPU time at the outermost
	// lock; the tick-driven detector judges stalls against it so one
	// shard's progress cannot stall another shard's reader.
	rcuSinceNs int64
	// rcuStalled records that the stall of this critical section was
	// already reported.
	rcuStalled bool
	// rcuIdx is the context's position in its shard's active list.
	rcuIdx int
}

// detectorGranularity is how often (in consumed virtual ns) Tick runs the
// RCU-stall and soft-lockup detectors. 1µs resolution against
// millisecond-scale thresholds keeps detection accurate to 0.1%.
const detectorGranularity = 1000

// NewContext enters a fresh execution context on the given CPU.
func (k *Kernel) NewContext(cpu int) *Context {
	c := &Context{K: k}
	c.Reenter(cpu)
	return c
}

// Reenter resets a context that has exited (its exit audit has run) to the
// state NewContext returns, on the given CPU, keeping only the backing
// storage of its logs. It lets an execution core reuse one Context per
// invocation instead of allocating it. Reentering a context that still
// holds locks, RCU nesting or references panics: that state belongs to the
// exit audit, and carrying it into the next run would misattribute it.
func (c *Context) Reenter(cpu int) {
	if !c.Exited() {
		panic("kernel: Reenter of a context that has not passed its exit audit")
	}
	*c = Context{
		K: c.K, CPUID: cpu, InstrCost: 1,
		clock:    c.K.Clock.cell(cpu),
		acquired: c.acquired[:0],
		held:     c.held[:0],
	}
}

// Exited reports whether the context holds no locks, RCU nesting or
// references: the state a passed exit audit leaves, and the state Reenter
// requires.
func (c *Context) Exited() bool {
	return len(c.acquired) == 0 && len(c.held) == 0 && c.rcuDepth == 0
}

// Tick charges virtual time for n retired instructions and runs the
// periodic detectors (RCU stall, soft lockup). Engines call it in batches.
func (c *Context) Tick(n uint64) {
	c.Instructions += n
	d := int64(n) * c.InstrCost
	c.clock.add(d)
	consumed := c.consumedNs.Add(d)
	if consumed-c.lastDetectNs < detectorGranularity {
		return
	}
	c.lastDetectNs = consumed
	c.K.rcu.checkStalls(c)
	if !c.softLockupHit && consumed-c.lastYieldNs >= c.K.Cfg.SoftLockupTimeout {
		c.softLockupHit = true
		c.K.Oops(OopsSoftLockup, c.CPUID,
			"watchdog: BUG: soft lockup - CPU#%d stuck for %ds", c.CPUID,
			(consumed-c.lastYieldNs)/1_000_000_000)
	}
}

// Yield marks a scheduling point, resetting the soft-lockup watchdog.
func (c *Context) Yield() {
	c.lastYieldNs = c.consumedNs.Load()
	c.softLockupHit = false
}

// Runtime returns the virtual CPU time this context has consumed. Under
// sharded execution this is the per-CPU view of elapsed time — the clock's
// Now also carries every other shard's progress — so watchdog deadlines
// keyed on it stay per-shard correct. In serial execution the two agree.
func (c *Context) Runtime() int64 { return c.consumedNs.Load() }

// ConsumedNs is Runtime under its accounting name; shard workers use it to
// attribute busy time to their ring.
func (c *Context) ConsumedNs() int64 { return c.consumedNs.Load() }

// TrackRef records a reference acquired during this run.
func (c *Context) TrackRef(r *Ref) { c.acquired = append(c.acquired, r) }

// UntrackRef removes a reference from the run's acquisition log (the
// program released it properly).
func (c *Context) UntrackRef(r *Ref) {
	for i, got := range c.acquired {
		if got == r {
			n := copy(c.acquired[i:], c.acquired[i+1:])
			c.acquired[i+n] = nil
			c.acquired = c.acquired[:i+n]
			return
		}
	}
}

// AcquiredRefs returns the references acquired and not yet released.
func (c *Context) AcquiredRefs() []*Ref {
	out := make([]*Ref, len(c.acquired))
	copy(out, c.acquired)
	return out
}

// ExitAudit runs the end-of-program checks a context must pass: no held
// extension locks, no RCU nesting, no unreleased references. Violations
// oops (the damage a real kernel would take) and are returned for the
// harness to inspect. The verified-eBPF stack relies on the verifier to
// make this audit trivially pass; the safext runtime instead guarantees it
// by construction via trusted cleanup.
//
// A clean context returns nil without touching shared kernel state. A
// dirty one reads the oops log's length first and copies only the entries
// added during the audit, so the audit's cost does not grow with the log.
func (c *Context) ExitAudit() []*Oops {
	if c.Exited() {
		return nil
	}
	before := c.K.OopsCount()
	c.K.lockdep.AuditExit(c)
	if d := c.K.rcu.Depth(c); d > 0 {
		c.K.Oops(OopsBug, c.CPUID, "rcu: context exited with read-lock depth %d", d)
		for i := 0; i < d; i++ {
			c.K.rcu.ReadUnlock(c)
		}
	}
	for i, r := range c.acquired {
		c.K.Oops(OopsRefLeak, c.CPUID, "refcount: program leaked reference to %q", r.Name())
		c.acquired[i] = nil
	}
	c.acquired = c.acquired[:0]
	return c.K.oopsSince(before)
}
