package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSwapInProgress rejects a Swap while another swap is still open —
// draining, soaking or rolling back: version cutover is serialized per
// slot.
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
	// before the soak window ended, and the plane cut back to the previous
	// version. RollbackWallNs/RollbackVirtNs measure trip -> bad version
	// fully drained (the previous version is already serving new
	// submissions the moment the trip fires).
	RolledBack     bool
	RollbackWallNs int64
	RollbackVirtNs int64
}

// swapPhase is where a slot's hot-swap lifecycle stands.
type swapPhase uint8

const (
	swapIdle     swapPhase = iota // no swap open: Swap may begin one
	swapDrain                     // cut over; the old version drains
	swapSoak                      // the old version drained; the new one soaks
	swapRollback                  // the new version tripped and was cut back; it drains
)

// swapState is a slot's hot-swap lifecycle as a value. Its step method is
// the lifecycle's only decision: it takes no lock, reads no clock and
// blocks on nothing, but returns the effects HotSwap applies.
type swapState struct {
	phase      swapPhase
	cur        *attached // the version new submissions build against
	prev, next *attached // the last swap's old and new versions
	runs       int64     // its soak length in completed runs of next
}

// swapKind names a hot-swap event.
type swapKind uint8

const (
	swapBegin swapKind = iota // Swap installs v to soak for n runs
	swapTrip                  // the supervisor tripped program
	// swapWoke: the Swap caller, waiting in phase at with n runs of next
	// completed, saw the version it drained go idle, the soak fill, or
	// (expired) its ctx expire.
	swapWoke
)

// swapEvent is one input to swapState.step.
type swapEvent struct {
	kind    swapKind
	v       *attached
	program *Program
	at      swapPhase
	n       int64
	expired bool
}

// swapEffects is what one step asks of HotSwap.
type swapEffects struct {
	reject  bool // swapBegin: another swap is open (ErrSwapInProgress)
	tripped bool // cut back: stamp the trip time, wake the Swap caller
	drained bool // the old version drained: stamp the swap latency
	// done ends the Swap call, rolled back or not, with an ErrDeadline
	// when expired.
	done, rolledBack, expired bool
}

// step folds one event into the lifecycle. A trip of the new version while
// the old one drains or the new one soaks cuts back at once, and the swap
// then ends only once the new version has drained too, or the caller's
// deadline expires on that drain: a deadline that raced the trip still
// ends in the rollback. A wake seen in a phase the swap has since left is
// stale and changes nothing.
func (s swapState) step(ev swapEvent) (swapState, swapEffects) {
	var fx swapEffects
	switch {
	case ev.kind == swapBegin:
		if s.phase != swapIdle {
			fx.reject = true
			break
		}
		s = swapState{phase: swapDrain, cur: ev.v, prev: s.cur, next: ev.v, runs: ev.n}
	case ev.kind == swapTrip:
		if (s.phase == swapDrain || s.phase == swapSoak) && s.next.v.Program == ev.program {
			s.phase, s.cur, fx.tripped = swapRollback, s.prev, true
		}
	case ev.at != s.phase:
		// Stale.
	case ev.expired || s.phase == swapRollback:
		fx.done, fx.rolledBack, fx.expired = true, s.phase == swapRollback, ev.expired
		s.phase = swapIdle
	case s.phase == swapDrain:
		fx.drained, s.phase = true, swapSoak
	case ev.n >= s.runs:
		fx.done, s.phase = true, swapIdle
	}
	return s, fx
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
// built) and drain the bad one. The lifecycle's decisions are
// swapState.step; HotSwap applies their effects under its lock.
//
// Swap must not be called from a shard worker goroutine (a Batch.Done
// hook): it blocks on drains that need the workers to make progress.
type HotSwap struct {
	sh *Sharded

	cur atomic.Pointer[attached] // st.cur, for Submit without the lock
	// wake is poked on every completed batch and every cutback, so a Swap
	// caller waiting on a drain or the soak looks at the lifecycle again.
	wake chan struct{}

	// Under mu: the lifecycle, the open swap's completed runs of st.next
	// and the time stamps of its trip.
	mu       sync.Mutex
	st       swapState
	soaked   int64
	tripAt   time.Time
	tripVirt int64
}

// NewHotSwap attaches the initial version to the plane.
func NewHotSwap(sh *Sharded, initial Version) *HotSwap {
	h := &HotSwap{sh: sh, wake: make(chan struct{}, 1)}
	h.st.cur = newAttached(initial)
	h.cur.Store(h.st.cur)
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
	a := h.pin()
	reqs, fin := a.v.Make(n)
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

// pin counts one batch in flight on the current version. It counts before
// it confirms the version is still current, so a drain that starts after
// a cutover either sees the batch or the batch moves to the new version.
func (h *HotSwap) pin() *attached {
	for {
		a := h.cur.Load()
		a.inflight.Add(1)
		if h.cur.Load() == a {
			return a
		}
		a.retire()
	}
}

// observe accounts completed invocations against the soak window.
func (h *HotSwap) observe(a *attached, n int) {
	h.mu.Lock()
	if h.st.next == a {
		h.soaked += int64(n)
	}
	h.mu.Unlock()
	h.poke()
}

func (h *HotSwap) poke() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// apply steps the lifecycle and publishes its current version. Caller
// holds mu.
func (h *HotSwap) apply(ev swapEvent) swapEffects {
	var fx swapEffects
	h.st, fx = h.st.step(ev)
	h.cur.Store(h.st.cur)
	return fx
}

// onTrip is the supervisor hook: the moment the in-soak version trips, new
// submissions cut back to the previous version. The drain of the bad
// version happens on the Swap caller's goroutine — this hook runs on a
// shard worker and must not block.
func (h *HotSwap) onTrip(p *Program) {
	h.mu.Lock()
	if h.apply(swapEvent{kind: swapTrip, program: p}).tripped {
		h.tripAt, h.tripVirt = time.Now(), h.sh.core.K.Clock.Now()
	}
	h.mu.Unlock()
	h.poke()
}

// Swap replaces the current version: publish next so all new submissions
// build against it, drain the old version's in-flight batches, then watch
// the supervisor until soakRuns invocations of next have completed. A trip
// before then rolls back automatically — the report says so; rollback is a
// resolution, not an error. A ctx expiry mid-drain or mid-soak returns an
// error wrapping ErrDeadline with the cutover already done. Soak
// monitoring and rollback need the plane's core to be supervised; Swap
// claims the supervisor's OnTrip hook, and without a supervisor it commits
// at drain, unsoaked.
func (h *HotSwap) Swap(ctx context.Context, next Version, soakRuns int) (*SwapReport, error) {
	if sup := h.sh.core.Supervisor(); sup != nil {
		sup.OnTrip(h.onTrip)
	} else {
		soakRuns = 0
	}
	na := newAttached(next)
	h.mu.Lock()
	old := h.st.cur
	wallStart, virtStart := time.Now(), h.sh.core.K.Clock.Now()
	if h.apply(swapEvent{kind: swapBegin, v: na, n: int64(soakRuns)}).reject {
		h.mu.Unlock()
		return nil, ErrSwapInProgress
	}
	h.soaked = 0
	h.mu.Unlock()

	rep := &SwapReport{From: old.v.Digest, To: next.Digest}
	for {
		h.mu.Lock()
		ev := swapEvent{kind: swapWoke, at: h.st.phase, n: h.soaked}
		h.mu.Unlock()
		var err error
		switch {
		case ev.at == swapDrain:
			// Look again on every wake: after a cutback the old version is
			// live again, so waiting for it to go idle would be waiting on
			// a lull.
			err = old.drain(ctx, h.wake)
		case ev.at == swapRollback:
			err = na.drain(ctx, nil)
		case ev.n < int64(soakRuns):
			select {
			case <-h.wake:
				continue
			case <-ctx.Done():
				err = fmt.Errorf("%w: soak of %q after %d of %d runs: %v",
					ErrDeadline, next.Program.name, ev.n, soakRuns, ctx.Err())
			}
		}
		if errors.Is(err, errAborted) {
			continue
		}
		ev.expired = err != nil
		h.mu.Lock()
		fx := h.apply(ev)
		rep.SoakRuns, rep.RolledBack = h.soaked, fx.rolledBack
		tripAt, tripVirt := h.tripAt, h.tripVirt
		h.mu.Unlock()
		if fx.drained {
			rep.SwapWallNs = time.Since(wallStart).Nanoseconds()
			rep.SwapVirtNs = h.sh.core.K.Clock.Now() - virtStart
		}
		if fx.done && !fx.expired && fx.rolledBack {
			rep.RollbackWallNs = time.Since(tripAt).Nanoseconds()
			rep.RollbackVirtNs = h.sh.core.K.Clock.Now() - tripVirt
		}
		if fx.done {
			return rep, err
		}
	}
}
