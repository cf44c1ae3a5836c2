package exec

import (
	"fmt"
	"testing"

	"kex/internal/rng"
)

// The explorers below enumerate every order of the events that reach the
// breaker (breaker.step) and the hot-swap lifecycle (swapState.step) up to
// a stated depth, modelling the shells — Supervisor and HotSwap — around
// them, and check the control plane's invariants in every reached state.
// They take the step function as a parameter so a seeded mutant, written
// here as a wrapper around the real step, can be shown to be caught.

type breakerStep func(breaker, *SupervisorConfig, brEvent) (breaker, brEffects)

// brShard is one shard's dispatch of the explored program.
type brShard struct {
	busy  bool   // admitted and not yet completed
	quiet bool   // admitted through the quiet gate, without a step
	probe bool   // holds the recovery probe's claim
	epoch uint32 // the admission's epoch
}

// brWorld is one explored state: the breaker, the gate token the
// Supervisor last published, the virtual clock and the shards.
type brWorld struct {
	b      breaker
	gate   uint32
	now    int64
	shards [3]brShard
}

// exploreBreaker runs a breadth-first search over brWorld from a fresh
// program, to depth events, over the given number of shards. Each event is
// one of: a dispatch arrives on an idle shard (quiet or stepped); a busy
// shard's run completes clean or with a fault, or its probe's reload is
// refused; the clock jumps to the quarantine deadline. Denials charge
// DeniedCostNs to the clock as the Supervisor does.
func exploreBreaker(step breakerStep, cfg SupervisorConfig, shards, depth int) (explored, error) {
	init := brWorld{b: breaker{state: StateHealthy, jitter: rng.Star(jitterSeed(cfg.JitterSeed, "p"))}, gate: 1}
	return explore(init, depth, func(w brWorld, visit func(brWorld)) error {
		return w.successors(step, &cfg, shards, visit)
	})
}

// explored is what a search reached: its distinct states, and the depth of
// the deepest new one (below the bound when the space was exhausted).
type explored struct{ states, depth int }

// explore runs a breadth-first search from init to depth events, and
// returns what it reached and the first invariant successors reported
// broken.
func explore[W comparable](init W, depth int, successors func(W, func(W)) error) (explored, error) {
	seen := map[W]bool{init: true}
	frontier := []W{init}
	d := 0
	for ; d < depth && len(frontier) > 0; d++ {
		var next []W
		for _, w := range frontier {
			err := successors(w, func(w2 W) {
				if !seen[w2] {
					seen[w2] = true
					next = append(next, w2)
				}
			})
			if err != nil {
				return explored{len(seen), d + 1}, fmt.Errorf("depth %d, from %+v: %w", d+1, w, err)
			}
		}
		frontier = next
	}
	if len(frontier) == 0 {
		d--
	}
	return explored{len(seen), d}, nil
}

// apply applies one step's effects to a copy of w, as Supervisor.step does.
func (w brWorld) apply(nb breaker, fx brEffects, cfg *SupervisorConfig) brWorld {
	w.b, w.gate = nb, fx.quiet
	if fx.deny {
		w.now += cfg.DeniedCostNs
	}
	return w
}

// check is the invariants every state must hold.
func (w brWorld) check(shards int) error {
	probes := 0
	for _, sh := range w.shards[:shards] {
		if sh.busy && sh.probe {
			probes++
		}
	}
	if probes > 1 {
		return fmt.Errorf("%d probes in flight", probes)
	}
	if w.b.probing != (probes == 1) {
		return fmt.Errorf("probe claim %v with %d probes in flight", w.b.probing, probes)
	}
	return nil
}

func (w brWorld) successors(step breakerStep, cfg *SupervisorConfig, shards int, visit func(brWorld)) error {
	emit := func(w2 brWorld, fx brEffects) error {
		if fx.to == StateQuarantined && w2.b.until <= w.now {
			return fmt.Errorf("trip with a quarantine that has already expired")
		}
		if err := w2.check(shards); err != nil {
			return err
		}
		visit(w2)
		return nil
	}
	for i := 0; i < shards; i++ {
		sh := w.shards[i]
		if !sh.busy {
			if w.gate != 0 {
				// The quiet gate admits without a step and skips the clean
				// run's step: both must be steps that change nothing.
				epoch := w.gate - 1
				nb, fx := step(w.b, cfg, brEvent{kind: brAdmit, now: w.now})
				if !fx.run || fx.probe || fx.epoch != epoch || nb != w.b {
					return fmt.Errorf("shard %d: quiet admission at epoch %d, but the step gives %+v", i, epoch, fx)
				}
				if nb, fx = step(w.b, cfg, brEvent{kind: brDone, now: w.now, epoch: epoch}); nb != w.b || fx.to != "" {
					return fmt.Errorf("shard %d: a quiet clean run would change the breaker (%+v -> %+v)", i, w.b, nb)
				}
				w2 := w
				w2.shards[i] = brShard{busy: true, quiet: true, epoch: epoch}
				if err := emit(w2, brEffects{}); err != nil {
					return err
				}
				continue
			}
			nb, fx := step(w.b, cfg, brEvent{kind: brAdmit, now: w.now})
			if fx.run == fx.deny {
				return fmt.Errorf("shard %d: admission neither runs nor is denied exactly once: %+v", i, fx)
			}
			if w.b.state == StateQuarantined && fx.run && !fx.probe {
				return fmt.Errorf("shard %d: quarantined program admitted a run that is not its probe", i)
			}
			w2 := w.apply(nb, fx, cfg)
			if fx.run {
				w2.shards[i] = brShard{busy: true, probe: fx.probe, epoch: fx.epoch}
			}
			if err := emit(w2, fx); err != nil {
				return err
			}
			continue
		}
		for _, fault := range []bool{false, true} {
			w2 := w
			w2.shards[i] = brShard{}
			if sh.quiet && !fault {
				if err := emit(w2, brEffects{}); err != nil {
					return err
				}
				continue
			}
			nb, fx := step(w.b, cfg, brEvent{kind: brDone, now: w.now, fault: fault, probe: sh.probe, epoch: sh.epoch})
			if fx.fault != fault || fx.deny {
				return fmt.Errorf("shard %d: completion (fault %v) accounted as %+v", i, fault, fx)
			}
			if !sh.probe && sh.epoch != w.b.trips && nb != w.b {
				return fmt.Errorf("shard %d: late completion (epoch %d of %d, fault %v) changed the breaker %+v -> %+v",
					i, sh.epoch, w.b.trips, fault, w.b, nb)
			}
			if err := emit(w2.apply(nb, fx, cfg), fx); err != nil {
				return err
			}
		}
		if sh.probe {
			nb, fx := step(w.b, cfg, brEvent{kind: brRefused, now: w.now})
			if !fx.deny || fx.to != StateQuarantined {
				return fmt.Errorf("shard %d: refused reload accounted as %+v", i, fx)
			}
			w2 := w.apply(nb, fx, cfg)
			w2.shards[i] = brShard{}
			if err := emit(w2, fx); err != nil {
				return err
			}
		}
	}
	if w.b.state == StateQuarantined && w.now < w.b.until {
		w2 := w
		w2.now = w.b.until
		return emit(w2, brEffects{})
	}
	return nil
}

// exploreCfg is small enough that every state is a few events from a trip:
// a two-run window, two faults to trip, backoffs of two to four denials.
var exploreCfg = SupervisorConfig{Window: 2, TripThreshold: 2, BaseBackoffNs: 2, MaxBackoffNs: 4, JitterSeed: 1, DeniedCostNs: 1}

// breakerExplorations are the explored configurations: two shards deep
// enough for a late run to straddle a trip and a recovery, three shards
// shallower, and a one-fault trip with a longer window.
var breakerExplorations = []struct {
	name          string
	cfg           SupervisorConfig
	shards, depth int
}{
	{"2 shards", exploreCfg, 2, 40},
	{"3 shards", exploreCfg, 3, 28},
	{"trip on 1 fault", SupervisorConfig{Window: 3, TripThreshold: 1, BaseBackoffNs: 2, MaxBackoffNs: 4, JitterSeed: 2, DeniedCostNs: 1}, 3, 26},
}

func TestBreakerExplore(t *testing.T) {
	for _, e := range breakerExplorations {
		r, err := exploreBreaker(breaker.step, e.cfg, e.shards, e.depth)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		t.Logf("breaker, %s: %d states, depth %d of %d", e.name, r.states, r.depth, e.depth)
	}
}

// TestBreakerExploreCatchesMutants seeds known breaker bugs into the step
// and requires the exploration to reject each.
func TestBreakerExploreCatchesMutants(t *testing.T) {
	mutants := map[string]breakerStep{
		// A late completion taken as the probe's verdict (the bug the
		// probe claim was introduced for).
		"late completion decides the quarantine": func(b breaker, cfg *SupervisorConfig, ev brEvent) (breaker, brEffects) {
			if ev.kind == brDone && b.state == StateQuarantined {
				ev.probe = true
			}
			return b.step(cfg, ev)
		},
		"probe claim never released": func(b breaker, cfg *SupervisorConfig, ev brEvent) (breaker, brEffects) {
			nb, fx := b.step(cfg, ev)
			if ev.kind == brDone && ev.probe {
				nb.probing = true
			}
			return nb, fx
		},
		"quiet left set while degraded": func(b breaker, cfg *SupervisorConfig, ev brEvent) (breaker, brEffects) {
			nb, fx := b.step(cfg, ev)
			if nb.state == StateDegraded {
				fx.quiet = nb.trips + 1
			}
			return nb, fx
		},
		// Late runs ignored only while quarantined: one admitted before a
		// trip and completed after the recovery moves the program.
		"late completion ignored only in quarantine": func(b breaker, cfg *SupervisorConfig, ev brEvent) (breaker, brEffects) {
			if ev.kind == brDone && !ev.probe && b.state != StateQuarantined {
				ev.epoch = b.trips
			}
			return b.step(cfg, ev)
		},
	}
	for name, m := range mutants {
		e := breakerExplorations[0]
		if _, err := exploreBreaker(m, e.cfg, e.shards, e.depth); err == nil {
			t.Errorf("mutant %q survived the exploration", name)
		} else {
			t.Logf("mutant %q caught: %v", name, err)
		}
	}
}

type swapStep func(swapState, swapEvent) (swapState, swapEffects)

// The Swap caller's position in its loop.
type swCaller uint8

const (
	callerIdle swCaller = iota // no Swap call open
	callerLook                 // about to read the phase
	callerWait                 // blocked in a drain or the soak of phase at
	callerPend                 // woken, about to apply pend
)

// swWorld is one explored hot-swap state over three versions: the
// lifecycle, the one Swap caller, the versions' batches in flight and the
// open swap's soaked runs.
type swWorld struct {
	st          swapState
	caller      swCaller
	at          swapPhase
	pend        swapEvent
	old, target int8 // the open swap's versions
	inflight    [3]int8
	soaked      int64
	expired     bool // the open Swap's ctx expired
	tripped     bool // the open swap's trip was taken
	submits     int8
	swaps       int8
}

// swapModel is what the explored worlds share: the versions and the bounds.
type swapModel struct {
	step                 swapStep
	vs                   [3]*attached
	runs                 int64
	maxSubmits, maxSwaps int8
}

func (m *swapModel) idx(a *attached) int8 {
	for i, v := range m.vs {
		if v == a {
			return int8(i)
		}
	}
	return -1
}

// exploreSwap runs a breadth-first search over swWorld: every order of
// Swap calls, their loop's reads, wakes and deadline, submissions to the
// current version, batch completions and supervisor trips of any version.
func exploreSwap(step swapStep, runs int64, depth int) (explored, error) {
	m := &swapModel{step: step, runs: runs, maxSubmits: 4, maxSwaps: 2}
	for i := range m.vs {
		m.vs[i] = newAttached(Version{Program: &Program{name: fmt.Sprintf("v%d", i)}})
	}
	return explore(swWorld{st: swapState{cur: m.vs[0]}}, depth, m.successors)
}

// check is the invariants every state must hold.
func (m *swapModel) check(w swWorld) error {
	if (w.caller == callerIdle) != (w.st.phase == swapIdle) {
		return fmt.Errorf("phase %d with the Swap call in state %d", w.st.phase, w.caller)
	}
	switch w.st.phase {
	case swapDrain, swapSoak:
		if w.st.cur != w.st.next {
			return fmt.Errorf("phase %d serves v%d, not the new v%d", w.st.phase, m.idx(w.st.cur), m.idx(w.st.next))
		}
	case swapRollback:
		if w.st.cur != w.st.prev {
			return fmt.Errorf("rollback serves v%d, not the previous v%d", m.idx(w.st.cur), m.idx(w.st.prev))
		}
	}
	return nil
}

// done checks how an applied event that ended the Swap call left the slot.
func (m *swapModel) done(w swWorld, fx swapEffects) error {
	switch {
	case w.tripped && !fx.rolledBack:
		return fmt.Errorf("the new version tripped, but the swap ended without a rollback (%+v)", fx)
	case fx.rolledBack && w.st.cur != m.vs[w.old]:
		return fmt.Errorf("rollback left v%d serving", m.idx(w.st.cur))
	case fx.rolledBack && !fx.expired && w.inflight[w.target] != 0:
		return fmt.Errorf("rollback ended with %d batches of the bad version in flight", w.inflight[w.target])
	case !fx.rolledBack && w.st.cur != m.vs[w.target]:
		return fmt.Errorf("swap ended with v%d serving, not the new v%d", m.idx(w.st.cur), w.target)
	case !fx.rolledBack && !fx.expired && w.inflight[w.old] != 0:
		return fmt.Errorf("swap committed with %d batches of the old version in flight", w.inflight[w.old])
	case !fx.rolledBack && !fx.expired && w.soaked < m.runs:
		return fmt.Errorf("swap committed after %d of %d soak runs", w.soaked, m.runs)
	}
	return nil
}

func (m *swapModel) successors(w swWorld, visit func(swWorld)) error {
	emit := func(w2 swWorld) error {
		if err := m.check(w2); err != nil {
			return err
		}
		visit(w2)
		return nil
	}
	switch w.caller {
	case callerIdle:
		if w.swaps < m.maxSwaps {
			v := m.vs[w.swaps+1]
			st, fx := m.step(w.st, swapEvent{kind: swapBegin, v: v, n: m.runs})
			if fx.reject {
				return fmt.Errorf("swap rejected on an idle slot")
			}
			w2 := w
			w2.st, w2.caller, w2.old, w2.target = st, callerLook, m.idx(w.st.cur), m.idx(v)
			w2.soaked, w2.expired, w2.tripped = 0, false, false
			w2.swaps++
			if err := emit(w2); err != nil {
				return err
			}
		}
	default:
		// A second Swap while this one is open is turned away untouched.
		if st, fx := m.step(w.st, swapEvent{kind: swapBegin, v: m.vs[2], n: m.runs}); !fx.reject || st != w.st {
			return fmt.Errorf("second swap accepted while phase %d is open", w.st.phase)
		}
		if !w.expired {
			w2 := w
			w2.expired = true
			if err := emit(w2); err != nil {
				return err
			}
		}
	}

	switch w.caller {
	case callerLook:
		w2 := w
		w2.at, w2.caller = w.st.phase, callerWait
		if w.st.phase == swapSoak && w.soaked >= m.runs {
			w2.caller, w2.pend = callerPend, swapEvent{kind: swapWoke, at: swapSoak, n: w.soaked}
		}
		if err := emit(w2); err != nil {
			return err
		}
	case callerWait:
		pend := func(expired bool) error {
			w2 := w
			w2.caller, w2.pend = callerPend, swapEvent{kind: swapWoke, at: w.at, n: w.soaked, expired: expired}
			return emit(w2)
		}
		draining := w.old
		if w.at == swapRollback {
			draining = w.target
		}
		switch {
		case w.at != swapSoak && w.inflight[draining] == 0:
			if err := pend(false); err != nil {
				return err
			}
		case w.expired:
			if err := pend(true); err != nil {
				return err
			}
		}
		if w.at != swapRollback {
			// A wake: a completion or a cutback.
			w2 := w
			w2.caller = callerLook
			if err := emit(w2); err != nil {
				return err
			}
		}
	case callerPend:
		st, fx := m.step(w.st, w.pend)
		w2 := w
		w2.st, w2.caller = st, callerLook
		if fx.done {
			if err := m.done(w2, fx); err != nil {
				return err
			}
			w2.caller = callerIdle
		}
		if err := emit(w2); err != nil {
			return err
		}
	}

	if w.submits < m.maxSubmits {
		w2 := w
		w2.inflight[m.idx(w.st.cur)]++
		w2.submits++
		if err := emit(w2); err != nil {
			return err
		}
	}
	for v := range m.vs {
		if w.inflight[v] > 0 {
			w2 := w
			w2.inflight[v]--
			if w.st.next == m.vs[v] {
				w2.soaked = min(w.soaked+1, m.runs)
			}
			if err := emit(w2); err != nil {
				return err
			}
		}
		st, fx := m.step(w.st, swapEvent{kind: swapTrip, program: m.vs[v].v.Program})
		if st == w.st {
			continue
		}
		if !fx.tripped || w.caller == callerIdle || v != int(w.target) {
			return fmt.Errorf("trip of v%d moved the lifecycle (%+v)", v, fx)
		}
		w2 := w
		w2.st, w2.tripped = st, true
		if err := emit(w2); err != nil {
			return err
		}
	}
	return nil
}

// swapExplorations are the explored soak lengths: none (commit at drain)
// and two runs.
var swapExplorations = []struct {
	runs  int64
	depth int
}{
	{0, 40},
	{2, 40},
}

func TestHotSwapExplore(t *testing.T) {
	for _, e := range swapExplorations {
		r, err := exploreSwap(swapState.step, e.runs, e.depth)
		if err != nil {
			t.Fatalf("soak %d: %v", e.runs, err)
		}
		if r.depth == e.depth {
			t.Fatalf("soak %d: %d states, not exhausted by depth %d", e.runs, r.states, e.depth)
		}
		t.Logf("hot-swap, soak of %d runs: %d states, exhausted at depth %d", e.runs, r.states, r.depth)
	}
}

// TestHotSwapExploreCatchesMutants seeds known lifecycle bugs into the
// step and requires the exploration to reject each.
func TestHotSwapExploreCatchesMutants(t *testing.T) {
	mutants := map[string]swapStep{
		"cutover skips the old version's drain": func(s swapState, ev swapEvent) (swapState, swapEffects) {
			s2, fx := s.step(ev)
			if ev.kind == swapBegin && !fx.reject {
				s2.phase = swapSoak
			}
			return s2, fx
		},
		"rollback skips the bad version's drain": func(s swapState, ev swapEvent) (swapState, swapEffects) {
			if ev.kind == swapWoke && s.phase == swapRollback {
				ev.at = swapRollback
			}
			return s.step(ev)
		},
		// A deadline taken in the phase the caller saw, not the one the
		// lifecycle is in: a trip that beat it is reported as a plain
		// deadline.
		"deadline beats a trip": func(s swapState, ev swapEvent) (swapState, swapEffects) {
			if ev.kind == swapWoke && ev.expired {
				s.phase = ev.at
			}
			return s.step(ev)
		},
	}
	for name, m := range mutants {
		e := swapExplorations[1]
		if _, err := exploreSwap(m, e.runs, e.depth); err == nil {
			t.Errorf("mutant %q survived the exploration", name)
		} else {
			t.Logf("mutant %q caught: %v", name, err)
		}
	}
}
