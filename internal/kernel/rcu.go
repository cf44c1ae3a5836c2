package kernel

import "sync"

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
// Reader bookkeeping is sharded by the context's CPU so that per-CPU shard
// workers entering and leaving read-side critical sections do not contend
// on one global lock — the same reason the real kernel keeps rcu_data
// per-CPU.
type RCUState struct {
	k      *Kernel
	shards []rcuShard

	gpmu sync.Mutex
	// completedGPs counts finished grace periods, for tests.
	completedGPs int64
}

type rcuShard struct {
	mu sync.Mutex
	// active lists the contexts of this shard inside a read-side critical
	// section. The reader state itself lives on each Context, so entering
	// and leaving a section allocates and hashes nothing.
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
// Sections nest, as in the kernel.
func (r *RCUState) ReadLock(ctx *Context) {
	s := r.shard(ctx)
	s.mu.Lock()
	if ctx.rcuDepth == 0 {
		// The one read of global time on the run path: CheckStalls judges
		// sections against the clock a harness advances, so the stamp
		// must be on that clock.
		ctx.rcuSince = r.k.Clock.Now()
		ctx.rcuSinceNs = ctx.ConsumedNs()
		ctx.rcuStalled = false
		ctx.rcuIdx = len(s.active)
		s.active = append(s.active, ctx)
	}
	ctx.rcuDepth++
	s.mu.Unlock()
}

// ReadUnlock leaves a read-side critical section. Unbalanced unlocks oops.
func (r *RCUState) ReadUnlock(ctx *Context) {
	s := r.shard(ctx)
	s.mu.Lock()
	if ctx.rcuDepth == 0 {
		s.mu.Unlock()
		r.k.Oops(OopsBug, ctx.CPUID, "rcu: unbalanced rcu_read_unlock")
		return
	}
	ctx.rcuDepth--
	if ctx.rcuDepth == 0 {
		// Swap-remove: the last active context takes this one's slot.
		last := len(s.active) - 1
		moved := s.active[last]
		s.active[ctx.rcuIdx] = moved
		moved.rcuIdx = ctx.rcuIdx
		s.active[last] = nil
		s.active = s.active[:last]
	}
	s.mu.Unlock()
}

// Depth returns the read-lock nesting depth of the context.
func (r *RCUState) Depth(ctx *Context) int {
	s := r.shard(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	return ctx.rcuDepth
}

// ActiveReaders returns the number of contexts currently inside read-side
// critical sections.
func (r *RCUState) ActiveReaders() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.active)
		s.mu.Unlock()
	}
	return n
}

// CheckStalls runs the stall detector against the global clock: any
// critical section older than the configured threshold produces one
// rcu-stall oops. This is the harness-facing detector; it treats clock
// time that passed while the lock was held — including idle time a test
// injects with Clock.Advance — as time the reader stalled.
func (r *RCUState) CheckStalls() []*Oops {
	now := r.k.Clock.Now()
	timeout := r.k.Cfg.RCUStallTimeout
	var stalled []*Context
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for _, ctx := range s.active {
			if !ctx.rcuStalled && now-ctx.rcuSince >= timeout {
				ctx.rcuStalled = true
				stalled = append(stalled, ctx)
			}
		}
		s.mu.Unlock()
	}
	return r.reportStalls(stalled, now, timeout)
}

// checkStalls is the tick-driven detector: it scans only the calling
// context's shard and judges each reader by its own consumed CPU time, so
// a busy shard cannot manufacture a stall on a reader that has not run.
// This is the self-detected-stall path of the real kernel's scheduler tick.
func (r *RCUState) checkStalls(ctx *Context) []*Oops {
	timeout := r.k.Cfg.RCUStallTimeout
	s := r.shard(ctx)
	var stalled []*Context
	s.mu.Lock()
	for _, rctx := range s.active {
		if !rctx.rcuStalled && rctx.ConsumedNs()-rctx.rcuSinceNs >= timeout {
			rctx.rcuStalled = true
			stalled = append(stalled, rctx)
		}
	}
	s.mu.Unlock()
	if stalled == nil {
		return nil
	}
	return r.reportStalls(stalled, r.k.Clock.Now(), timeout)
}

func (r *RCUState) reportStalls(stalled []*Context, now, timeout int64) []*Oops {
	var oopses []*Oops
	for _, ctx := range stalled {
		oopses = append(oopses, r.k.Oops(OopsRCUStall, ctx.CPUID,
			"rcu: INFO: rcu_sched self-detected stall on CPU %d (t=%d ns, threshold=%d ns)",
			ctx.CPUID, now, timeout))
	}
	return oopses
}

// Synchronize waits for a grace period: it completes only when no reader is
// active. Rather than blocking (the simulator is single-threaded per
// experiment), it reports whether the grace period could complete now; the
// caller advances the clock and retries, and a caller that cannot make
// progress has reproduced an RCU hang.
func (r *RCUState) Synchronize() bool {
	// Take every shard lock, in order, so the no-readers observation is a
	// consistent global snapshot.
	for i := range r.shards {
		r.shards[i].mu.Lock()
	}
	ok := true
	for i := range r.shards {
		if len(r.shards[i].active) != 0 {
			ok = false
			break
		}
	}
	if ok {
		r.gpmu.Lock()
		r.completedGPs++
		r.gpmu.Unlock()
	}
	for i := len(r.shards) - 1; i >= 0; i-- {
		r.shards[i].mu.Unlock()
	}
	return ok
}

// CompletedGracePeriods returns the number of grace periods that have
// completed since boot.
func (r *RCUState) CompletedGracePeriods() int64 {
	r.gpmu.Lock()
	defer r.gpmu.Unlock()
	return r.completedGPs
}
