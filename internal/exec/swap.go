package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSwapInProgress rejects a Swap while another swap's soak window is
// still open — version cutover is serialized per slot.
var ErrSwapInProgress = errors.New("exec: hot-swap already in progress")

// Version is one attachable implementation of a program slot on the
// sharded data plane: an engine plus everything the plane needs to build
// and complete invocations against it. Two versions of the same logical
// program carry distinct Program records (conventionally named
// name@digest), and Make sets its version's record on every request, so
// the supervisor's breaker and the stats rows track each version's runs
// and health independently — that separation is what lets a rollback
// leave the bad version quarantined while the old one keeps serving.
type Version struct {
	// Digest is the content address of the artifact this version was
	// loaded from, carried through to swap reports.
	Digest string
	// Program is the per-version record, for supervision and stats.
	Program *Program
	// Engine executes this version's requests.
	Engine Engine
	// Reload is the supervised recovery-probe reload hook (may be nil).
	Reload Reload
	// Make assembles a batch of n requests against this version plus an
	// optional completion hook, called with the batch's results on the
	// shard worker. Stack-specific plumbing (safext Prepare/Finish
	// pairing, ebpf request building) lives in this closure.
	Make func(n int) ([]Request, func([]BatchResult))
}

// attached is one live version on the plane, with its in-flight batch
// accounting — the drain barrier's bookkeeping.
type attached struct {
	v        Version
	inflight atomic.Int64
	wake     chan struct{} // signalled on every drain-to-zero
}

func newAttached(v Version) *attached {
	return &attached{v: v, wake: make(chan struct{}, 1)}
}

// retire completes one batch and wakes a drainer when the version goes idle.
func (a *attached) retire() {
	if a.inflight.Add(-1) == 0 {
		select {
		case a.wake <- struct{}{}:
		default:
		}
	}
}

// drain blocks until every batch submitted against this version has
// completed, or ctx expires (an error wrapping ErrDeadline), or abort is
// closed (errAborted — the caller has a better plan than waiting).
func (a *attached) drain(ctx context.Context, abort <-chan struct{}) error {
	for a.inflight.Load() != 0 {
		select {
		case <-a.wake:
		case <-abort:
			return errAborted
		case <-ctx.Done():
			return fmt.Errorf("%w: drain of %q with %d batches in flight: %v",
				ErrDeadline, a.v.Program.name, a.inflight.Load(), ctx.Err())
		}
	}
	return nil
}

// errAborted is drain's internal abort signal, never returned from Swap.
var errAborted = errors.New("exec: drain aborted")

// SoakConfig shapes the post-swap observation window.
type SoakConfig struct {
	// Runs is how many completed invocations of the new version end the
	// soak cleanly. Zero skips soaking: the swap commits at drain.
	Runs int
}

// SwapReport describes one hot-swap: the cutover, the drain of the old
// version, and — when the supervisor tripped the new version inside the
// soak window — the automatic rollback.
type SwapReport struct {
	From, To string // digests

	// SwapWallNs and SwapVirtNs measure initiate -> old version fully
	// drained (the atomic-replacement latency: from this point no in-flight
	// work on the old image remains).
	SwapWallNs int64
	SwapVirtNs int64

	// SoakRuns is how many new-version invocations completed during soak.
	SoakRuns int64

	// RolledBack reports that the supervisor tripped the new version
	// during the soak window and the plane cut back to the previous
	// version. RollbackWallNs/RollbackVirtNs measure trip -> bad version
	// fully drained (the previous version is already serving new
	// submissions the moment the trip fires). TripTo is the state the bad
	// version landed in (quarantined or detached).
	RolledBack     bool
	RollbackWallNs int64
	RollbackVirtNs int64
	TripTo         State
}

// soakState tracks one in-flight swap's observation window.
type soakState struct {
	target *attached
	prev   *attached
	cfg    SoakConfig

	completed atomic.Int64
	notify    chan struct{} // buffered; poked on each target completion
	trip      chan struct{} // closed when the supervisor trips the target

	// Under HotSwap.mu:
	finished bool
	tripped  bool
	tripTo   State
	tripAt   time.Time
	tripVirt int64
}

// HotSwap is the live-replacement layer over one Sharded plane: an atomic
// current-version pointer every submission reads, a drain barrier per
// version, and a supervisor-driven rollback for swaps that trip during
// their soak window. The swap protocol is the userspace analogue of the
// kernel's atomic program replacement: attach the new version alongside
// the old, cut new submissions over with one pointer store, drain the old
// version's in-flight batches, then soak — and if the supervisor trips the
// new version before the soak ends, cut back to the previous version
// immediately (inside the trip notification, before another batch is
// built) and drain the bad one.
//
// Swap must not be called from a shard worker goroutine (a Batch.Done
// hook): it blocks on drains that need the workers to make progress.
type HotSwap struct {
	sh *Sharded

	cur atomic.Pointer[attached]

	mu   sync.Mutex
	soak *soakState
}

// NewHotSwap attaches the initial version to the plane.
func NewHotSwap(sh *Sharded, initial Version) *HotSwap {
	h := &HotSwap{sh: sh}
	h.cur.Store(newAttached(initial))
	return h
}

// Current returns the version new submissions are built against.
func (h *HotSwap) Current() Version { return h.cur.Load().v }

// Submit builds a batch of n requests against the current version and
// enqueues it on the shard's ring, blocking while the ring is full but
// giving up when ctx expires (an error wrapping ErrDeadline). The batch's
// completion retires it from its version's in-flight count, which is what
// Swap's drain barrier waits on.
func (h *HotSwap) Submit(ctx context.Context, cpu, n int) error {
	a := h.cur.Load()
	reqs, fin := a.v.Make(n)
	a.inflight.Add(1)
	b := Batch{
		Engine: a.v.Engine,
		Reqs:   reqs,
		Reload: a.v.Reload,
		Done: func(results []BatchResult) {
			if fin != nil {
				fin(results)
			}
			h.observe(a, len(results))
			a.retire()
		},
	}
	if err := h.sh.SubmitWaitCtx(ctx, cpu, b); err != nil {
		a.retire()
		return err
	}
	return nil
}

// observe accounts completed invocations against the soak window.
func (h *HotSwap) observe(a *attached, n int) {
	h.mu.Lock()
	sk := h.soak
	h.mu.Unlock()
	if sk == nil || sk.target != a {
		return
	}
	sk.completed.Add(int64(n))
	select {
	case sk.notify <- struct{}{}:
	default:
	}
}

// onTrip is the supervisor hook: the moment the in-soak version trips, new
// submissions cut back to the previous version. The drain of the bad
// version happens on the Swap caller's goroutine — this hook runs on a
// shard worker and must not block.
func (h *HotSwap) onTrip(p *Program, to State) {
	h.mu.Lock()
	sk := h.soak
	if sk == nil || sk.finished || sk.target.v.Program != p {
		h.mu.Unlock()
		return
	}
	sk.finished = true
	sk.tripped = true
	sk.tripTo = to
	sk.tripAt = time.Now()
	sk.tripVirt = h.sh.core.K.Clock.Now()
	h.cur.Store(sk.prev)
	h.mu.Unlock()
	close(sk.trip)
}

// endSoak closes the observation window if the trip hook hasn't already.
// It reports whether this call ended it (false: a trip won the race).
func (h *HotSwap) endSoak(sk *soakState) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sk.finished {
		return false
	}
	sk.finished = true
	return true
}

// Swap replaces the current version: publish next so all new submissions
// build against it, drain the old version's in-flight batches, then watch
// the supervisor through the soak window. A trip inside the window rolls
// back automatically — the report says so; rollback is a resolution, not
// an error. A ctx expiry mid-drain returns an error wrapping ErrDeadline
// with the cutover already done. Soak monitoring and rollback need the
// plane's core to be supervised; Swap claims the supervisor's OnTrip hook.
func (h *HotSwap) Swap(ctx context.Context, next Version, soak SoakConfig) (*SwapReport, error) {
	na := newAttached(next)
	sup := h.sh.core.Supervisor()
	if sup != nil {
		sup.OnTrip(h.onTrip)
	}
	h.mu.Lock()
	if h.soak != nil && !h.soak.finished {
		h.mu.Unlock()
		return nil, ErrSwapInProgress
	}
	old := h.cur.Load()
	sk := &soakState{
		target: na,
		prev:   old,
		cfg:    soak,
		notify: make(chan struct{}, 1),
		trip:   make(chan struct{}),
	}
	h.soak = sk
	wallStart := time.Now()
	virtStart := h.sh.core.K.Clock.Now()
	h.cur.Store(na) // cutover: one pointer store
	h.mu.Unlock()

	rep := &SwapReport{From: old.v.Digest, To: next.Digest}
	// Drain the old version, but bail to rollback the moment a trip fires:
	// after the cutback the old version is live again and receiving
	// traffic, so waiting for it to go idle would be waiting on a lull.
	if err := old.drain(ctx, sk.trip); err != nil {
		if errors.Is(err, errAborted) {
			return h.rollback(ctx, sk, rep)
		}
		h.endSoak(sk)
		return rep, err
	}
	rep.SwapWallNs = time.Since(wallStart).Nanoseconds()
	rep.SwapVirtNs = h.sh.core.K.Clock.Now() - virtStart

	for {
		if soak.Runs <= 0 || sup == nil || sk.completed.Load() >= int64(soak.Runs) {
			if !h.endSoak(sk) {
				return h.rollback(ctx, sk, rep)
			}
			rep.SoakRuns = sk.completed.Load()
			return rep, nil
		}
		select {
		case <-sk.notify:
		case <-sk.trip:
			return h.rollback(ctx, sk, rep)
		case <-ctx.Done():
			if !h.endSoak(sk) {
				return h.rollback(ctx, sk, rep)
			}
			rep.SoakRuns = sk.completed.Load()
			return rep, fmt.Errorf("%w: soak of %q after %d of %d runs: %v",
				ErrDeadline, next.Program.name, rep.SoakRuns, soak.Runs, ctx.Err())
		}
	}
}

// rollback finishes a tripped swap: the trip hook already cut submissions
// back to the previous version, so all that remains is draining the bad
// version and timing how long the fleet was exposed to it.
func (h *HotSwap) rollback(ctx context.Context, sk *soakState, rep *SwapReport) (*SwapReport, error) {
	rep.RolledBack = true
	rep.TripTo = sk.tripTo
	rep.SoakRuns = sk.completed.Load()
	if err := sk.target.drain(ctx, nil); err != nil {
		return rep, err
	}
	rep.RollbackWallNs = time.Since(sk.tripAt).Nanoseconds()
	rep.RollbackVirtNs = h.sh.core.K.Clock.Now() - sk.tripVirt
	return rep, nil
}
