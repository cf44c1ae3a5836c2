package kernel

import (
	"sync"
	"sync/atomic"
)

// RCUState implements the read-side bookkeeping of RCU for the simulator.
//
// Only the properties the paper's termination exploit depends on are
// modelled: nested read-side critical sections per context, grace periods
// that cannot complete while any reader is active, and a stall detector
// that fires when a single critical section outlives the configured
// virtual-time threshold. The §2.2 exploit — an effectively-infinite
// verified eBPF program running under rcu_read_lock — shows up here as an
// RCU-stall oops, exactly as it shows up as a console stall splat on Linux.
//
// Reader bookkeeping is sharded by the context's CPU, and a section's state
// lives on its Context, so entering and leaving one writes only the
// running CPU's state — the reason the real kernel keeps rcu_data per-CPU.
//
// A section's age is the virtual CPU time its own context consumed since
// the outermost ReadLock plus the idle time Clock.Advance injected since
// then. Other CPUs' work never ages it. Both detectors judge that one age:
// the scheduler tick judges the context that is ticking (the kernel's
// self-detected stall), and CheckStalls every open section.
type RCUState struct {
	k      *Kernel
	shards []rcuShard

	gpmu sync.Mutex
	// completedGPs counts finished grace periods, for tests.
	completedGPs int64
}

// rcuShard is one CPU's reader registry. The cold readers — Synchronize,
// ActiveReaders, CheckStalls — read both of its halves.
type rcuShard struct {
	// owner is the context whose outermost ReadLock claimed the CPU's
	// slot: the one reader a CPU has while one goroutine at a time runs on
	// it, entered and left with one atomic operation each and no lock.
	owner atomic.Pointer[Context]
	mu    sync.Mutex
	// active lists the CPU's other readers: a second section open on the
	// CPU at the same time as the owner's (a run on a pooled frame).
	active []*Context
	_      CacheLinePad
}

func newRCUState(k *Kernel) *RCUState {
	n := k.Cfg.NumCPU
	if n < 1 {
		n = 1
	}
	return &RCUState{k: k, shards: make([]rcuShard, n)}
}

// shard returns the reader shard for a context.
func (r *RCUState) shard(ctx *Context) *rcuShard {
	return &r.shards[cpuSlot(ctx.CPUID, len(r.shards))]
}

// ReadLock enters an RCU read-side critical section in the given context.
// Sections nest, as in the kernel. The outermost lock stamps the
// context's consumed time and the clock's idle time, the two halves of
// the section's age.
func (r *RCUState) ReadLock(ctx *Context) {
	if ctx.rcuDepth == 0 {
		ctx.rcuSinceNs = ctx.consumedNs
		ctx.rcuSinceIdle = r.k.Clock.idleNs()
		ctx.rcuStalled = false
		s := r.shard(ctx)
		ctx.rcuOwner = s.owner.CompareAndSwap(nil, ctx)
		if !ctx.rcuOwner {
			s.mu.Lock()
			ctx.rcuIdx = len(s.active)
			s.active = append(s.active, ctx)
			s.mu.Unlock()
		}
	}
	ctx.rcuDepth++
}

// ReadUnlock leaves a read-side critical section. Unbalanced unlocks oops.
func (r *RCUState) ReadUnlock(ctx *Context) {
	if ctx.rcuDepth == 0 {
		r.k.Oops(OopsBug, ctx.CPUID, "rcu: unbalanced rcu_read_unlock")
		return
	}
	ctx.rcuDepth--
	if ctx.rcuDepth > 0 {
		return
	}
	s := r.shard(ctx)
	if ctx.rcuOwner {
		ctx.rcuOwner = false
		s.owner.Store(nil)
		return
	}
	s.mu.Lock()
	// Swap-remove: the last active context takes this one's slot.
	last := len(s.active) - 1
	moved := s.active[last]
	s.active[ctx.rcuIdx] = moved
	moved.rcuIdx = ctx.rcuIdx
	s.active[last] = nil
	s.active = s.active[:last]
	s.mu.Unlock()
}

// Depth returns the read-lock nesting depth of the context. Like every
// read of a context's own state, it is made on the goroutine running the
// context.
func (r *RCUState) Depth(ctx *Context) int { return ctx.rcuDepth }

// ActiveReaders returns the number of contexts currently inside read-side
// critical sections.
func (r *RCUState) ActiveReaders() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		if s.owner.Load() != nil {
			n++
		}
		s.mu.Lock()
		n += len(s.active)
		s.mu.Unlock()
	}
	return n
}

// CheckStalls runs the stall detector over every open critical section:
// any section whose age (see RCUState) reached the configured threshold
// produces one rcu-stall oops. It is a harness call, made while the
// contexts it judges are quiescent — between their runs, or parked inside
// a section a test opened — since it reads and marks their state from the
// calling goroutine.
func (r *RCUState) CheckStalls() []*Oops {
	now := r.k.Clock.Now()
	var stalled []*Context
	for i := range r.shards {
		s := &r.shards[i]
		if ctx := s.owner.Load(); ctx != nil && r.stallDue(ctx) {
			stalled = append(stalled, ctx)
		}
		s.mu.Lock()
		for _, ctx := range s.active {
			if r.stallDue(ctx) {
				stalled = append(stalled, ctx)
			}
		}
		s.mu.Unlock()
	}
	return r.reportStalls(stalled, now)
}

// checkStall is the tick-driven detector: the ticking context judges its
// own open section, as the kernel's scheduler tick self-detects a stall.
// It reads no other context and no other CPU's state.
func (r *RCUState) checkStall(ctx *Context) {
	if ctx.rcuDepth > 0 && r.stallDue(ctx) {
		r.reportStalls([]*Context{ctx}, r.k.Clock.Now())
	}
}

// stallDue reports whether a context's open section has reached the stall
// threshold and not yet been reported, and marks it reported.
func (r *RCUState) stallDue(ctx *Context) bool {
	age := ctx.consumedNs - ctx.rcuSinceNs + r.k.Clock.idleNs() - ctx.rcuSinceIdle
	if ctx.rcuStalled || age < r.k.Cfg.RCUStallTimeout {
		return false
	}
	ctx.rcuStalled = true
	return true
}

func (r *RCUState) reportStalls(stalled []*Context, now int64) []*Oops {
	var oopses []*Oops
	for _, ctx := range stalled {
		oopses = append(oopses, r.k.Oops(OopsRCUStall, ctx.CPUID,
			"rcu: INFO: rcu_sched self-detected stall on CPU %d (t=%d ns, threshold=%d ns)",
			ctx.CPUID, now, r.k.Cfg.RCUStallTimeout))
	}
	return oopses
}

// Synchronize waits for a grace period: it completes only when no reader is
// active. Rather than blocking (the simulator is single-threaded per
// experiment), it reports whether the grace period could complete now; the
// caller advances the clock and retries, and a caller that cannot make
// progress has reproduced an RCU hang.
//
// Owner slots are entered without a lock, so against readers entering at
// the same moment the answer is per-CPU, not one global snapshot: a
// section that opens while the scan runs may be missed, exactly as a
// reader that starts after a grace period begins need not delay it.
func (r *RCUState) Synchronize() bool {
	for i := range r.shards {
		s := &r.shards[i]
		if s.owner.Load() != nil {
			return false
		}
		s.mu.Lock()
		busy := len(s.active) != 0
		s.mu.Unlock()
		if busy {
			return false
		}
	}
	r.gpmu.Lock()
	r.completedGPs++
	r.gpmu.Unlock()
	return true
}

// CompletedGracePeriods returns the number of grace periods that have
// completed since boot.
func (r *RCUState) CompletedGracePeriods() int64 {
	r.gpmu.Lock()
	defer r.gpmu.Unlock()
	return r.completedGPs
}
