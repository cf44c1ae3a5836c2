package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kex/internal/rng"
)

// ErrQuarantined is returned for dispatches refused at the supervisor gate
// when the degradation policy is DegradeDetach; with DegradeFallback the
// caller instead receives the configured fallback R0 and no error.
var ErrQuarantined = errors.New("exec: program quarantined")

// State is one supervisor health state of a program.
type State string

const (
	// StateHealthy: no fault in the current observation window.
	StateHealthy State = "healthy"
	// StateDegraded: at least one recent fault, breaker not yet tripped.
	StateDegraded State = "degraded"
	// StateQuarantined: breaker tripped; dispatches are denied until the
	// backoff deadline, then a recovery probe (reload + one run) decides.
	StateQuarantined State = "quarantined"
	// StateRecovered: the probe after a quarantine succeeded; one more
	// clean run promotes back to healthy.
	StateRecovered State = "recovered"
	// StateDetached: the trip budget is exhausted; the program is
	// permanently denied (graceful degradation's terminal state).
	StateDetached State = "detached"
)

// DegradePolicy selects what a denied dispatch returns.
type DegradePolicy int

const (
	// DegradeFallback serves the configured FallbackR0 with no error —
	// the caller keeps getting answers while the program heals.
	DegradeFallback DegradePolicy = iota
	// DegradeDetach fails the dispatch with ErrQuarantined.
	DegradeDetach
)

// SupervisorConfig tunes the circuit breaker and recovery schedule.
type SupervisorConfig struct {
	// Window is the number of most-recent runs the breaker looks at.
	Window int
	// TripThreshold is the fault count within Window that trips the
	// breaker into quarantine.
	TripThreshold int
	// BaseBackoffNs is the first quarantine duration on the virtual
	// clock; each further trip doubles it up to MaxBackoffNs.
	BaseBackoffNs int64
	MaxBackoffNs  int64
	// JitterSeed drives the deterministic ±25% backoff jitter. The
	// per-program jitter stream is seeded from JitterSeed and the
	// program name, so a fixed seed reproduces the exact schedule.
	JitterSeed uint64
	// MaxTrips, when positive, permanently detaches a program after that
	// many trips. Zero means quarantine forever retries.
	MaxTrips int
	// Policy selects fallback-R0 or detach semantics for denied
	// dispatches; FallbackR0 is the value served under DegradeFallback.
	Policy     DegradePolicy
	FallbackR0 uint64
	// DeniedCostNs is charged to the virtual clock per denied dispatch —
	// a denied invocation still consumes time at the attach point, and
	// it is what lets a single-program workload's backoff expire.
	DeniedCostNs int64
}

// DefaultSupervisorConfig mirrors sensible production settings: trip on 3
// faults in the last 16 runs, back off from 1ms to 1s, never permanently
// detach, serve R0=0 while quarantined.
func DefaultSupervisorConfig() SupervisorConfig {
	return SupervisorConfig{
		Window:        16,
		TripThreshold: 3,
		BaseBackoffNs: 1_000_000,
		MaxBackoffNs:  1_000_000_000,
		JitterSeed:    0x5eed,
		Policy:        DegradeFallback,
		DeniedCostNs:  1_000,
	}
}

// Reload re-prepares a program before a recovery probe: the verified stack
// re-verifies, the safext runtime re-validates the signature. A reload
// error re-quarantines immediately.
type Reload func() error

// Supervisor is the core's gate, installed by Core.Supervise: per-program
// fault containment on every dispatch through the core, with a circuit
// breaker (TripThreshold faults in the last Window runs → quarantine),
// deterministic exponential backoff with jittered recovery probes, and
// graceful degradation for dispatches that arrive while a program is
// quarantined or detached. A fault is a run that returns an error or leaves
// exit-audit damage. All transitions and denials are accounted in the
// core's Stats and stamped on each Report. A program's health hangs off its
// record (Program.health), so a dispatch finds it without a lookup.
type Supervisor struct {
	core *Core
	cfg  SupervisorConfig

	// mu guards every program's health this supervisor made.
	mu sync.Mutex
	// notify queues trip notifications recorded under mu; gate flushes them
	// to the OnTrip hook after releasing the lock. queued mirrors
	// len(notify), so a dispatch with nothing queued skips the lock.
	notify []tripNote
	queued atomic.Int32

	// onTrip, when armed, is invoked (outside mu, on the dispatching
	// goroutine) whenever a program transitions into StateQuarantined or
	// StateDetached — the seam a hot-swap layer uses to trigger rollback
	// the moment a freshly attached version trips. The hook must not block
	// for long and must not dispatch through the supervised core.
	onTrip atomic.Pointer[func(p *Program, to State)]
}

// tripNote is one pending OnTrip notification.
type tripNote struct {
	program *Program
	to      State
}

// OnTrip arms (or, with nil, disarms) the supervisor's trip hook.
func (s *Supervisor) OnTrip(fn func(p *Program, to State)) {
	if fn == nil {
		s.onTrip.Store(nil)
		return
	}
	s.onTrip.Store(&fn)
}

// flushTrips delivers queued trip notifications outside the lock. Every
// dispatch that queues a note flushes after it, so a dispatch that sees
// nothing queued has nothing of its own to deliver.
func (s *Supervisor) flushTrips() {
	if s.queued.Load() == 0 {
		return
	}
	s.mu.Lock()
	notes := s.notify
	s.notify = nil
	s.queued.Store(0)
	s.mu.Unlock()
	fn := s.onTrip.Load()
	if fn == nil {
		return
	}
	for _, n := range notes {
		(*fn)(n.program, n.to)
	}
}

// progHealth is one program's breaker state under one supervisor. Its
// fields but quiet are guarded by that supervisor's mu.
type progHealth struct {
	// sup is the supervisor that made it: a later supervisor starts the
	// program healthy rather than use it.
	sup *Supervisor
	// quiet is true while the program is healthy with no fault in its
	// window and no probe in flight: the state in which a clean run
	// changes nothing any later decision reads (see gate). It is the one
	// field read without mu; unlock refreshes it after every locked
	// section.
	quiet atomic.Bool

	state   State
	window  []bool // ring buffer of recent outcomes, true = fault
	widx    int
	filled  int
	faults  int // faults among the filled window slots
	trips   int
	until   int64 // virtual deadline of the current quarantine
	backoff int64 // current (jittered) backoff duration
	jitter  rng.Star
	// probing single-flights the recovery probe: when several shards hit
	// an expired backoff together, exactly one dispatch becomes the probe
	// and the rest stay denied until its outcome is observed.
	probing bool
}

// newSupervisor builds a supervisor over the core. Zero-value config fields
// fall back to DefaultSupervisorConfig.
func newSupervisor(core *Core, cfg SupervisorConfig) *Supervisor {
	def := DefaultSupervisorConfig()
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	if cfg.TripThreshold <= 0 {
		cfg.TripThreshold = def.TripThreshold
	}
	if cfg.BaseBackoffNs <= 0 {
		cfg.BaseBackoffNs = def.BaseBackoffNs
	}
	if cfg.MaxBackoffNs <= 0 {
		cfg.MaxBackoffNs = def.MaxBackoffNs
	}
	if cfg.DeniedCostNs <= 0 {
		cfg.DeniedCostNs = def.DeniedCostNs
	}
	return &Supervisor{core: core, cfg: cfg}
}

// State reports the named program's current health state.
func (s *Supervisor) State(program string) State {
	state, _ := s.inspect(program)
	return state
}

// BackoffNs reports the named program's current quarantine duration, zero
// when not quarantined — exposed so tests can pin the schedule's
// determinism.
func (s *Supervisor) BackoffNs(program string) int64 {
	if state, backoff := s.inspect(program); state == StateQuarantined {
		return backoff
	}
	return 0
}

// inspect reads the named program's state and backoff: healthy and zero
// when this supervisor has not gated it. It makes neither a record nor a
// health.
func (s *Supervisor) inspect(program string) (State, int64) {
	if p := s.core.Stats.lookup(program); p != nil {
		if st := p.health.Load(); st != nil && st.sup == s {
			s.mu.Lock()
			defer s.mu.Unlock()
			return st.state, st.backoff
		}
	}
	return StateHealthy, 0
}

// health returns (making on first use) this supervisor's health of the
// program. Caller holds mu. A supervisor the core no longer runs under
// keeps what it makes off the record, so a dispatch still in flight on it
// cannot replace its successor's.
func (s *Supervisor) health(p *Program) *progHealth {
	if st := p.health.Load(); st != nil && st.sup == s {
		return st
	}
	st := &progHealth{
		sup:    s,
		state:  StateHealthy,
		window: make([]bool, s.cfg.Window),
		jitter: rng.Star(jitterSeed(s.cfg.JitterSeed, p.name)),
	}
	st.quiet.Store(true)
	if s.core.sup.Load() == s {
		p.health.Store(st)
	}
	return st
}

// unlock refreshes the program's quiet flag from the state the locked
// section left, then releases mu.
func (s *Supervisor) unlock(st *progHealth) {
	st.quiet.Store(st.state == StateHealthy && st.faults == 0 && !st.probing)
	s.mu.Unlock()
}

// jitterSeed mixes the campaign seed with the program name (FNV-1a) so
// every program gets its own deterministic jitter stream.
func jitterSeed(seed uint64, program string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(program); i++ {
		h ^= uint64(program[i])
		h *= 1099511628211
	}
	h ^= seed
	if h == 0 {
		h = 0x9E3779B97F4A7C15
	}
	return h
}

// gate dispatches one invocation through the supervisor. Quarantined and
// detached programs never reach the lifecycle: the dispatch is denied,
// accounted, and answered per the degradation policy. When a quarantine's
// backoff has expired the dispatch becomes a recovery probe — reload first
// (re-verify / re-validate), then one real run whose outcome decides
// between recovery and a longer quarantine. An admitted dispatch runs on
// the batch's run frame fr (see Core.run).
//
// A quiet program (see progHealth.quiet) is admitted without the lock,
// and its clean run is not observed at all. That is equivalent to sliding
// a clean result into the window: the window holds no fault, so the slide
// changes only the ring position and fill count, and a later fault is
// still evicted after exactly Window more observations. A fault goes
// through observe under mu as ever. A quiet run that overlaps a fault on
// another shard is thereby ordered before that fault; concurrent runs had
// no defined order before either.
func (s *Supervisor) gate(eng Engine, fr **runFrame, req *Request, reload Reload, box *reportBox) error {
	// Trip notifications queue under mu on every path below; deliver them
	// once all locks are released, whatever way the dispatch returns.
	defer s.flushTrips()
	st := req.Program.health.Load()
	quiet := st != nil && st.sup == s && st.quiet.Load()
	probe := false
	if !quiet {
		var err error
		if st, probe, err = s.admit(eng, req, reload, box); st == nil {
			return err
		}
	}

	err := s.core.run(eng, fr, req, box)
	rep := &box.Report
	fault := err != nil || len(rep.ExitOopses) > 0
	if quiet && !fault {
		rep.Supervision = string(StateHealthy)
		return nil
	}
	s.mu.Lock()
	s.observe(st, req.Program, fault, probe)
	rep.Supervision = string(st.state)
	s.unlock(st)
	return err
}

// admit decides under mu whether a dispatch runs. It returns the
// program's health and whether this dispatch claimed the recovery probe,
// or a nil health when the dispatch was answered without running, with
// err its result.
//
// The probe claim matters because under sharded execution a run admitted
// while healthy on another shard can complete after a trip; only the
// claim holder may decide the quarantine's outcome in observe.
func (s *Supervisor) admit(eng Engine, req *Request, reload Reload, box *reportBox) (*progHealth, bool, error) {
	p := req.Program
	s.mu.Lock()
	st := s.health(p)
	switch st.state {
	case StateDetached:
		s.unlock(st)
		return nil, false, s.deny(eng, p, box)
	case StateQuarantined:
		if s.core.K.Clock.Now() < st.until || st.probing {
			// Still backing off — or another shard's dispatch already
			// claimed the recovery probe and hasn't been observed yet.
			s.unlock(st)
			return nil, false, s.deny(eng, p, box)
		}
		// Backoff expired: this dispatch is the recovery probe.
		st.probing = true
		s.unlock(st)
		if reload != nil {
			if err := reload(); err != nil {
				p.recordProbeFailure(err)
				s.mu.Lock()
				st.probing = false
				s.trip(st, p)
				s.unlock(st)
				s.deny(eng, p, box)
				return nil, false, fmt.Errorf("exec: recovery reload of %q failed: %w", p.name, err)
			}
		}
		return st, true, nil
	default:
		s.unlock(st)
		return st, false, nil
	}
}

// deny answers a dispatch without running the program.
func (s *Supervisor) deny(eng Engine, p *Program, box *reportBox) error {
	s.core.K.Clock.Advance(s.cfg.DeniedCostNs)
	fallback := s.cfg.Policy == DegradeFallback
	p.recordDenied(fallback)
	rep := &box.Report
	rep.Program = p.name
	rep.Engine = eng.Name()
	rep.Supervision = "denied"
	if fallback {
		rep.R0 = s.cfg.FallbackR0
		rep.Fallback = true
		return nil
	}
	return ErrQuarantined
}

// observe folds one run outcome into the breaker state. Caller holds mu.
// probe is true only for the dispatch that claimed the recovery probe in
// gate — a late completion of a run admitted before the trip must not be
// mistaken for the probe's verdict.
func (s *Supervisor) observe(st *progHealth, p *Program, fault, probe bool) {
	if fault {
		p.at(pFaults).Add(1)
	}
	if probe {
		// This run was the recovery probe; its outcome releases the
		// single-flight claim.
		st.probing = false
		if fault {
			p.recordProbeFailure(nil)
			s.trip(st, p)
			return
		}
		s.transition(st, p, StateRecovered)
		s.resetWindow(st)
		return
	}
	if st.state == StateQuarantined || st.state == StateDetached {
		// A run admitted on another shard while the program was still
		// healthy completed after the trip. Its fault is accounted above,
		// but it must not decide recovery, extend backoff, or resurrect a
		// detached program — the breaker's verdict belongs to the probe.
		return
	}

	// Slide the window.
	if st.filled == len(st.window) {
		if st.window[st.widx] {
			st.faults--
		}
	} else {
		st.filled++
	}
	st.window[st.widx] = fault
	if fault {
		st.faults++
	}
	st.widx = (st.widx + 1) % len(st.window)

	switch {
	case fault && st.faults >= s.cfg.TripThreshold:
		s.trip(st, p)
	case fault:
		if st.state == StateHealthy || st.state == StateRecovered {
			s.transition(st, p, StateDegraded)
		}
	default:
		if st.state == StateRecovered || (st.state == StateDegraded && st.faults == 0) {
			s.transition(st, p, StateHealthy)
		}
	}
}

// trip opens the breaker: detach permanently when the trip budget is
// spent, else quarantine with exponentially longer, jittered backoff. A
// failed recovery probe (or reload) trips again from quarantine, so its
// "quarantined->quarantined" transition row makes failed probes visible
// in stats.
func (s *Supervisor) trip(st *progHealth, p *Program) {
	st.trips++
	if s.cfg.MaxTrips > 0 && st.trips >= s.cfg.MaxTrips {
		s.transition(st, p, StateDetached)
		return
	}
	st.backoff = s.backoffFor(st)
	st.until = s.core.K.Clock.Now() + st.backoff
	s.transition(st, p, StateQuarantined)
}

// backoffFor computes min(base << (trips-1), max) with deterministic ±25%
// jitter from the program's stream.
func (s *Supervisor) backoffFor(st *progHealth) int64 {
	b := s.cfg.BaseBackoffNs
	for i := 1; i < st.trips && b < s.cfg.MaxBackoffNs; i++ {
		b <<= 1
	}
	if b > s.cfg.MaxBackoffNs {
		b = s.cfg.MaxBackoffNs
	}
	if half := b / 2; half > 0 {
		b = b - b/4 + int64(st.jitter.Next()%uint64(half+1))
	}
	return b
}

func (s *Supervisor) resetWindow(st *progHealth) {
	clear(st.window)
	st.widx, st.filled, st.faults = 0, 0, 0
}

// transition moves the program to a new state and accounts it. Caller
// holds mu; entries into quarantine or detachment queue a trip
// notification for delivery once the lock is released.
func (s *Supervisor) transition(st *progHealth, p *Program, to State) {
	from := st.state
	st.state = to
	p.recordTransition(from, to)
	if to == StateQuarantined || to == StateDetached {
		s.notify = append(s.notify, tripNote{program: p, to: to})
		s.queued.Store(int32(len(s.notify)))
	}
}
