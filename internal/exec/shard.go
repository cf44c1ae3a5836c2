package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kex/internal/kernel"
)

// Errors returned by the sharded submission path.
var (
	// ErrRingFull reports a non-blocking Submit against a shard whose
	// submission ring is at capacity — the caller's backpressure signal.
	ErrRingFull = errors.New("exec: shard submission ring full")
	// ErrShardedClosed reports a submission after Close.
	ErrShardedClosed = errors.New("exec: sharded executor closed")
	// ErrDeadline reports a SubmitWaitCtx or FlushCtx whose context expired
	// before the operation completed — the caller's signal that a shard is
	// wedged (a full ring that never drains) rather than merely busy.
	ErrDeadline = errors.New("exec: sharded operation deadline expired")
)

// ShardedConfig sizes the sharded data plane.
type ShardedConfig struct {
	// Shards is the number of worker goroutines, one pinned per simulated
	// CPU (worker i runs everything on CPU i). Zero or negative defaults
	// to the kernel's CPU count; values above it are clamped, since a
	// shard must own a real simulated CPU for per-CPU maps to resolve.
	Shards int
	// RingSize is the capacity, in batches, of each shard's submission
	// ring. Zero defaults to 64.
	RingSize int
	// Conc selects shard-safety enforcement for programs whose signed CONC
	// verdict is Racy: ConcOff (default) ignores verdicts, ConcWarn
	// serializes convicted programs onto shard 0, ConcStrict refuses them
	// with ErrShardUnsafe. See conc.go.
	Conc ConcMode
}

// Batch is one unit of submission to a shard's ring: a set of requests to
// run back-to-back on the shard's CPU.
type Batch struct {
	// Engine executes the batch's requests.
	Engine Engine
	// Reqs are the invocations; each request's CPU is forced to the shard's.
	Reqs []Request
	// Reload is the recovery-probe reload hook the supervisor's gate calls
	// (see Core.Run). Ignored while the core is unsupervised.
	Reload Reload
	// Done, when set, receives the batch's results on the shard worker
	// goroutine after the batch completes. It must not block the worker
	// for long — it is the per-CPU completion context, like a NAPI poll
	// callback, not a place to do synchronous downstream work. Like the
	// buffers a NAPI poll hands up, the results and their Reports belong
	// to the shard: they are valid until Done returns, and their storage
	// then serves the shard's next batch. The core's Stats count the batch
	// before Done is called.
	Done func([]BatchResult)
}

// Sharded is the per-CPU sharded data plane over one Core: a fixed-size
// submission ring per simulated CPU, drained by one worker goroutine
// pinned to that CPU. Producers submit batches to a shard and either poll
// results via Batch.Done or rendezvous with Flush. Per-invocation safety
// machinery (fuel, watchdog, RCU bracketing, exit audit) is untouched —
// each request still runs the full Core.Run lifecycle on its shard.
//
// Every layer a request crosses below here — stats cells, the map
// registry view, map shards, the address-space snapshot, RCU reader
// shards — is lock-free or sharded per CPU, so N workers make progress
// without queueing on shared locks.
type Sharded struct {
	core *Core
	conc ConcMode

	rings []chan Batch
	// cells holds each shard's counters, written only by its worker.
	cells []shardCell

	// pending counts submitted batches not yet completed, across every
	// shard: Flush waits for it to reach zero, which one count answers
	// and per-shard counts could not without a consistent scan.
	pending atomic.Int64
	flushMu sync.Mutex
	// flushCh, made by the first Flush that has to wait, is closed and
	// dropped when pending drains to zero — a broadcast Flush waiters can
	// select against a deadline. A plane nobody flushes makes none.
	flushCh chan struct{}

	wg sync.WaitGroup
	// closeMu makes Close safe against in-flight submissions: senders hold
	// the read side across their send, so the rings are only closed once no
	// sender can be parked on them (closing a channel with a live sender
	// panics). Submissions after Close fail with ErrShardedClosed.
	closeMu sync.RWMutex
	closed  bool
}

// shardCell is one shard's counters, on its own cache line.
type shardCell struct {
	// busy accumulates the shard's consumed virtual CPU time; aggregate
	// simulated throughput is total ops over max shard busy time.
	busy atomic.Int64
	// completed counts the requests the shard has fully executed.
	completed atomic.Uint64
	_         kernel.CacheLinePad
}

// NewSharded starts the shard workers over the core. Every batch runs
// through Core.RunBatch, so once the core is supervised its circuit
// breaker is the shared admission control of all shards. Close must be
// called to stop the workers.
func (c *Core) NewSharded(cfg ShardedConfig) *Sharded {
	ncpu := len(c.K.CPUs())
	if cfg.Shards <= 0 || cfg.Shards > ncpu {
		cfg.Shards = ncpu
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 64
	}
	s := &Sharded{
		core:  c,
		conc:  cfg.Conc,
		rings: make([]chan Batch, cfg.Shards),
		cells: make([]shardCell, cfg.Shards),
	}
	for cpu := range s.rings {
		s.rings[cpu] = make(chan Batch, cfg.RingSize)
		s.wg.Add(1)
		go s.worker(cpu)
	}
	return s
}

// worker drains one shard's ring. It is the only goroutine that ever runs
// requests on its CPU, which is what makes per-CPU map cells and frame
// caches contention-free, and it writes every batch's reports into its
// own slab.
func (s *Sharded) worker(cpu int) {
	defer s.wg.Done()
	cell := &s.cells[cpu]
	var slab batchSlab
	for b := range s.rings[cpu] {
		results, consumed := slab.run(s.core, b.Engine, cpu, b.Reqs, b.Reload)
		cell.busy.Add(consumed)
		cell.completed.Add(uint64(len(results)))
		if b.Done != nil {
			b.Done(results)
		}
		s.decPending()
	}
}

// decPending retires one pending batch and wakes Flush waiters when the
// count reaches zero.
func (s *Sharded) decPending() {
	if s.pending.Add(-1) == 0 {
		s.flushMu.Lock()
		if s.flushCh != nil {
			close(s.flushCh)
			s.flushCh = nil
		}
		s.flushMu.Unlock()
	}
}

// Shards returns the number of shard workers.
func (s *Sharded) Shards() int { return len(s.rings) }

// Submit enqueues a batch on a shard's ring without blocking. It returns
// ErrRingFull when the ring is at capacity — callers under backpressure
// either retry, spill to another shard, or shed load, exactly the choices
// a NIC driver has at a full descriptor ring.
func (s *Sharded) Submit(cpu int, b Batch) error {
	return s.submit(context.Background(), cpu, b, false)
}

// SubmitWait enqueues a batch, blocking while the shard's ring is full.
func (s *Sharded) SubmitWait(cpu int, b Batch) error {
	return s.SubmitWaitCtx(context.Background(), cpu, b)
}

// SubmitWaitCtx enqueues a batch, blocking while the shard's ring is full
// but giving up when ctx expires: a wedged shard (a worker parked in a
// Done hook, say) can then no longer park its producers forever. Expiry
// returns an error wrapping ErrDeadline and leaves the batch unsubmitted.
func (s *Sharded) SubmitWaitCtx(ctx context.Context, cpu int, b Batch) error {
	return s.submit(ctx, cpu, b, true)
}

// submit enqueues a batch on a shard's ring if it has room, else, when
// wait is set, blocks until it has or ctx expires.
func (s *Sharded) submit(ctx context.Context, cpu int, b Batch, wait bool) error {
	if cpu < 0 || cpu >= len(s.rings) {
		return fmt.Errorf("exec: submit to invalid shard %d of %d", cpu, len(s.rings))
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrShardedClosed
	}
	cpu, err := s.gateConc(cpu, &b)
	if err != nil {
		return err
	}
	s.pending.Add(1)
	select {
	case s.rings[cpu] <- b:
		return nil
	default:
	}
	err = ErrRingFull
	if wait {
		// Blocking send under the read lock: Close's writer acquisition
		// waits for this sender, and the workers keep draining until the
		// rings close, so the send completes unless the deadline strikes
		// first.
		select {
		case s.rings[cpu] <- b:
			return nil
		case <-ctx.Done():
			err = fmt.Errorf("%w: shard %d submit: %v", ErrDeadline, cpu, ctx.Err())
		}
	}
	// The transient pending increment may have been observed by a
	// concurrent Flush; retire it through the same wakeup path the worker
	// uses so that Flush cannot block forever.
	s.decPending()
	return err
}

// Flush blocks until every submitted batch has completed.
func (s *Sharded) Flush() {
	_ = s.FlushCtx(context.Background())
}

// FlushCtx blocks until every submitted batch has completed or ctx
// expires; expiry returns an error wrapping ErrDeadline with batches still
// in flight.
func (s *Sharded) FlushCtx(ctx context.Context) error {
	for {
		s.flushMu.Lock()
		if s.pending.Load() == 0 {
			s.flushMu.Unlock()
			return nil
		}
		if s.flushCh == nil {
			s.flushCh = make(chan struct{})
		}
		ch := s.flushCh
		s.flushMu.Unlock()
		select {
		case <-ch:
			// Pending drained to zero at broadcast time; re-check, since a
			// new submission may already have landed.
		case <-ctx.Done():
			return fmt.Errorf("%w: flush with %d batches in flight: %v",
				ErrDeadline, s.pending.Load(), ctx.Err())
		}
	}
}

// Close drains the rings, stops the workers, and waits for them to exit.
// Batches already submitted still complete; later submissions fail with
// ErrShardedClosed.
func (s *Sharded) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	for _, ring := range s.rings {
		close(ring)
	}
	s.closeMu.Unlock()
	s.wg.Wait()
}

// BusyNs returns the virtual CPU time shard cpu has consumed so far.
func (s *Sharded) BusyNs(cpu int) int64 { return s.cells[cpu].busy.Load() }

// MaxBusyNs returns the busiest shard's consumed virtual CPU time — the
// simulated makespan of the work so far. Aggregate simulated throughput
// is completed ops divided by this figure: with perfect sharding the work
// spreads evenly and the makespan stops growing with total ops.
func (s *Sharded) MaxBusyNs() int64 {
	var max int64
	for i := range s.cells {
		if b := s.cells[i].busy.Load(); b > max {
			max = b
		}
	}
	return max
}

// TotalBusyNs returns the summed consumed virtual CPU time of all shards.
func (s *Sharded) TotalBusyNs() int64 {
	var total int64
	for i := range s.cells {
		total += s.cells[i].busy.Load()
	}
	return total
}

// Completed returns the number of requests fully executed so far.
func (s *Sharded) Completed() uint64 {
	var n uint64
	for i := range s.cells {
		n += s.cells[i].completed.Load()
	}
	return n
}
