package kernel

// Context is one extension execution context: the kernel-side identity of a
// running extension program. Both execution stacks — the verified-eBPF
// interpreter/JIT and the safext runtime — run programs inside a Context,
// so RCU nesting, held locks, acquired references and CPU time are
// accounted identically for the two worlds the paper compares.
//
// A Context is run by one goroutine at a time, and only that goroutine
// reads or writes it, bar its place in its RCU shard's locked list, which
// the shard's mutex guards. Its tick, its RCU section and its detectors
// touch no other CPU's state. Harness calls that inspect contexts from
// outside (RCUState.CheckStalls) run while they are quiescent.
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
	// consumed time, the context's own share. A plain field: only the
	// goroutine running the context reads it on the run path.
	consumedNs int64

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

	// RCU read-side state, owned by the context like the rest of it. While
	// rcuDepth > 0 the context sits in its CPU's RCU shard: in the owner
	// slot, or in the locked list of further readers.
	rcuDepth int
	// rcuSinceNs and rcuSinceIdle are this context's consumed CPU time and
	// the clock's idle time at the outermost lock: the stamps a section's
	// age is measured from (see RCUState), so one shard's progress cannot
	// stall another shard's reader.
	rcuSinceNs   int64
	rcuSinceIdle int64
	// rcuStalled records that the stall of this critical section was
	// already reported.
	rcuStalled bool
	// rcuOwner records that the section holds its shard's owner slot.
	rcuOwner bool
	// rcuIdx is the context's position in its shard's locked list when it
	// does not hold the owner slot; the shard's mutex guards it.
	rcuIdx int

	// tlb caches the address translations of this context's memory
	// accesses. It is allocated on the first access, so a context that
	// never touches memory pays nothing, and kept across Reenter: its
	// entries are tagged with the snapshot they were resolved in, so no
	// run can see another's stale translation.
	tlb *tlb
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
	k, acquired, held, tlb := c.K, c.acquired[:0], c.held[:0], c.tlb
	// Zero first, then set: a literal that reads the old fields would be
	// built in a temporary and copied in.
	*c = Context{}
	c.K, c.CPUID, c.InstrCost = k, cpu, 1
	c.clock = k.Clock.cell(cpu)
	c.acquired, c.held, c.tlb = acquired, held, tlb
}

// The memory accesses below are the kernel address space's, translated
// through the context's TLB: the same values and faults as the
// AddressSpace methods of the same names, without a binary search of the
// region set on a TLB hit.

// LoadUint reads a little-endian unsigned integer of 1, 2, 4 or 8 bytes.
func (c *Context) LoadUint(addr uint64, size int) (uint64, *Fault) {
	return c.K.Mem.loadUint(c.translations(), addr, size)
}

// StoreUint writes a little-endian unsigned integer of 1, 2, 4 or 8 bytes.
func (c *Context) StoreUint(addr uint64, size int, v uint64) *Fault {
	return c.K.Mem.storeUint(c.translations(), addr, size, v)
}

// Read copies size bytes at addr into a fresh slice, or returns a Fault.
func (c *Context) Read(addr, size uint64) ([]byte, *Fault) {
	return c.K.Mem.read(c.translations(), addr, size)
}

// ReadInto copies len(dst) bytes at addr into dst, or returns a Fault.
func (c *Context) ReadInto(addr uint64, dst []byte) *Fault {
	return c.K.Mem.readInto(c.translations(), addr, dst)
}

// Write stores the given bytes at addr, or returns a Fault.
func (c *Context) Write(addr uint64, data []byte) *Fault {
	return c.K.Mem.write(c.translations(), addr, data)
}

// translations returns the context's TLB, allocating it on first use.
func (c *Context) translations() *tlb {
	if c.tlb == nil {
		c.tlb = new(tlb)
	}
	return c.tlb
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
	c.consumedNs += d
	consumed := c.consumedNs
	if consumed-c.lastDetectNs < detectorGranularity {
		return
	}
	c.lastDetectNs = consumed
	c.K.rcu.checkStall(c)
	if !c.softLockupHit && consumed-c.lastYieldNs >= c.K.Cfg.SoftLockupTimeout {
		c.softLockupHit = true
		c.K.Oops(OopsSoftLockup, c.CPUID,
			"watchdog: BUG: soft lockup - CPU#%d stuck for %ds", c.CPUID,
			(consumed-c.lastYieldNs)/1_000_000_000)
	}
}

// Yield marks a scheduling point, resetting the soft-lockup watchdog.
func (c *Context) Yield() {
	c.lastYieldNs = c.consumedNs
	c.softLockupHit = false
}

// Runtime returns the virtual CPU time this context has consumed. Under
// sharded execution this is the per-CPU view of elapsed time — the clock's
// Now also carries every other shard's progress — so watchdog deadlines
// keyed on it stay per-shard correct. In serial execution the two agree.
func (c *Context) Runtime() int64 { return c.consumedNs }

// ConsumedNs is Runtime under its accounting name; shard workers use it to
// attribute busy time to their ring.
func (c *Context) ConsumedNs() int64 { return c.consumedNs }

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
