package kernel

import (
	"fmt"
	"sync/atomic"
	"time"
)

// CacheLinePad is one cache line of padding. A per-CPU cell that ends in
// one never shares a line with the next cell's hot fields, whatever the
// alignment of the array that holds them.
type CacheLinePad struct{ _ [64]byte }

// Clock is the simulator's virtual time source. All kernel-side timing —
// RCU stall detection, watchdog expiry, grace periods — is driven by this
// clock rather than wall time, which keeps every experiment deterministic.
//
// The execution engines advance the clock as they retire instructions
// (a fixed virtual cost per instruction), and test harnesses may advance it
// directly to model the passage of idle time.
//
// Time is kept in one counter per simulated CPU, each on its own cache
// line, so shard workers retiring instructions on different CPUs never
// write the same line, and one more counter for the idle time Advance
// injects. Now is the sum of the counters: in a serial run it is exactly
// the single-counter time, and every reader still sees it monotone, since
// each counter only grows. The run path never calls Now: a reader's RCU
// stamp reads its own context and the idle counter, which only harnesses
// and denied dispatches write.
type Clock struct {
	cpus []clockCell
	idle clockCell
}

// clockCell is one CPU's share of virtual time.
type clockCell struct {
	ns atomic.Int64
	_  CacheLinePad
}

// NewClock returns a clock at virtual time zero ("boot") with one counter
// per CPU; fewer than one CPU means one.
func NewClock(numCPU int) *Clock {
	if numCPU < 1 {
		numCPU = 1
	}
	return &Clock{cpus: make([]clockCell, numCPU)}
}

// Now returns the current virtual time in nanoseconds since boot.
func (c *Clock) Now() int64 {
	now := c.idle.ns.Load()
	for i := range c.cpus {
		now += c.cpus[i].ns.Load()
	}
	return now
}

// Advance moves virtual time forward by d nanoseconds of idle time and
// returns the new time. Idle time ages every open RCU read-side section
// (see RCUState). Advancing by a negative duration panics: simulated time,
// like real kernel time, is monotonic.
func (c *Clock) Advance(d int64) int64 {
	c.idle.add(d)
	return c.Now()
}

// idleNs returns the idle time Advance has injected since boot.
func (c *Clock) idleNs() int64 { return c.idle.ns.Load() }

// AdvanceDuration is Advance for a time.Duration.
func (c *Clock) AdvanceDuration(d time.Duration) int64 { return c.Advance(int64(d)) }

// Since returns the virtual nanoseconds elapsed since the given mark.
func (c *Clock) Since(mark int64) int64 { return c.Now() - mark }

// cell returns the counter that work retired on the given CPU advances.
func (c *Clock) cell(cpu int) *clockCell { return &c.cpus[cpuSlot(cpu, len(c.cpus))] }

func (cc *clockCell) add(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("kernel: clock advanced by negative duration %d", d))
	}
	cc.ns.Add(d)
}

// cpuSlot maps a CPU id onto one of n per-CPU cells; ids past n wrap.
func cpuSlot(cpu, n int) int {
	if uint(cpu) < uint(n) {
		return cpu
	}
	i := cpu % n
	if i < 0 {
		i += n
	}
	return i
}
