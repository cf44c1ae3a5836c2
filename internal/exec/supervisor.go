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

// Supervisor wraps Core.Run with per-program fault containment: a circuit
// breaker (TripThreshold faults in the last Window runs → quarantine),
// deterministic exponential backoff with jittered recovery probes, and
// graceful degradation for dispatches that arrive while a program is
// quarantined or detached. A fault is a run that returns an error or leaves
// exit-audit damage. All transitions and denials are accounted in the
// core's Stats and stamped on each Report.
type Supervisor struct {
	core *Core
	cfg  SupervisorConfig

	mu    sync.Mutex
	progs map[string]*progHealth
	// notify queues trip notifications recorded under mu; Run flushes them
	// to the OnTrip hook after releasing the lock. queued mirrors
	// len(notify), so a dispatch with nothing queued skips the lock.
	notify []tripNote
	queued atomic.Int32

	// onTrip, when armed, is invoked (outside mu, on the dispatching
	// goroutine) whenever a program transitions into StateQuarantined or
	// StateDetached — the seam a hot-swap layer uses to trigger rollback
	// the moment a freshly attached version trips. The hook must not block
	// for long and must not dispatch through this supervisor.
	onTrip atomic.Pointer[func(program string, to State)]
}

// tripNote is one pending OnTrip notification.
type tripNote struct {
	program string
	to      State
}

// OnTrip arms (or, with nil, disarms) the supervisor's trip hook.
func (s *Supervisor) OnTrip(fn func(program string, to State)) {
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

type progHealth struct {
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

// NewSupervisor builds a supervisor over the core. Zero-value config fields
// fall back to DefaultSupervisorConfig.
func NewSupervisor(core *Core, cfg SupervisorConfig) *Supervisor {
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
	return &Supervisor{core: core, cfg: cfg, progs: make(map[string]*progHealth)}
}

// State reports the program's current health state.
func (s *Supervisor) State(program string) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.health(program).state
}

// BackoffNs reports the program's current quarantine duration, zero when
// not quarantined — exposed so tests can pin the schedule's determinism.
func (s *Supervisor) BackoffNs(program string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.health(program)
	if st.state != StateQuarantined {
		return 0
	}
	return st.backoff
}

func (s *Supervisor) health(program string) *progHealth {
	st := s.progs[program]
	if st == nil {
		st = &progHealth{
			state:  StateHealthy,
			window: make([]bool, s.cfg.Window),
			jitter: rng.Star(jitterSeed(s.cfg.JitterSeed, program)),
		}
		s.progs[program] = st
	}
	return st
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

// Run dispatches one invocation through the supervisor gate. Quarantined
// and detached programs never reach Core.Run: the dispatch is denied,
// accounted, and answered per the degradation policy. When a quarantine's
// backoff has expired the dispatch becomes a recovery probe — reload first
// (re-verify / re-validate), then one real run whose outcome decides
// between recovery and a longer quarantine. The caller owns the returned
// Report.
func (s *Supervisor) Run(eng Engine, req Request, reload Reload) (*Report, error) {
	box := new(reportBox)
	err := s.run(eng, req, reload, box)
	return &box.Report, err
}

// run is Run writing its report into box.
func (s *Supervisor) run(eng Engine, req Request, reload Reload, box *reportBox) error {
	// Trip notifications queue under mu on every path below; deliver them
	// once all locks are released, whatever way the dispatch returns.
	defer s.flushTrips()
	// probe records whether THIS dispatch claimed the recovery probe. Under
	// sharded execution a run admitted while healthy on another shard can
	// complete after a trip; only the claim holder may decide the
	// quarantine's outcome in observe.
	probe := false
	s.mu.Lock()
	st := s.health(req.Program)
	switch st.state {
	case StateDetached:
		s.mu.Unlock()
		return s.deny(eng, req.Program, box)
	case StateQuarantined:
		if s.core.K.Clock.Now() < st.until || st.probing {
			// Still backing off — or another shard's dispatch already
			// claimed the recovery probe and hasn't been observed yet.
			s.mu.Unlock()
			return s.deny(eng, req.Program, box)
		}
		// Backoff expired: this dispatch is the recovery probe.
		st.probing = true
		probe = true
		s.mu.Unlock()
		if reload != nil {
			if err := reload(); err != nil {
				s.core.Stats.recordProbeFailure(req.Program, err)
				s.mu.Lock()
				st.probing = false
				s.requarantine(st, req.Program)
				s.mu.Unlock()
				s.deny(eng, req.Program, box)
				return fmt.Errorf("exec: recovery reload of %q failed: %w", req.Program, err)
			}
		}
	default:
		s.mu.Unlock()
	}

	program := req.Program
	err := s.core.run(eng, req, box)
	rep := &box.Report
	fault := err != nil || len(rep.ExitOopses) > 0
	s.mu.Lock()
	s.observe(st, program, fault, probe)
	rep.Supervision = string(st.state)
	s.mu.Unlock()
	return err
}

// RunBatch dispatches a batch through the supervisor gate on one CPU.
// Every request passes the gate individually, so a trip mid-batch denies
// the remainder of the batch exactly as it would deny fresh dispatches.
// Like Core.RunBatch it allocates the batch's reports in one slab; the
// caller owns every returned Report.
func (s *Supervisor) RunBatch(eng Engine, cpu int, reqs []Request, reload Reload) []BatchResult {
	out := make([]BatchResult, len(reqs))
	boxes := make([]reportBox, len(reqs))
	for i := range reqs {
		reqs[i].CPU = cpu
		err := s.run(eng, reqs[i], reload, &boxes[i])
		out[i] = BatchResult{Report: &boxes[i].Report, Err: err}
	}
	return out
}

// deny answers a dispatch without running the program.
func (s *Supervisor) deny(eng Engine, program string, box *reportBox) error {
	s.core.K.Clock.Advance(s.cfg.DeniedCostNs)
	fallback := s.cfg.Policy == DegradeFallback
	s.core.Stats.recordDenied(program, fallback)
	rep := &box.Report
	rep.Program = program
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
// Run — a late completion of a run admitted before the trip must not be
// mistaken for the probe's verdict.
func (s *Supervisor) observe(st *progHealth, program string, fault, probe bool) {
	if fault {
		s.core.Stats.recordFault(program)
	}
	if probe {
		// This run was the recovery probe; its outcome releases the
		// single-flight claim.
		st.probing = false
		if fault {
			s.core.Stats.recordProbeFailure(program, nil)
			s.requarantine(st, program)
			return
		}
		s.transition(st, program, StateRecovered)
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
		s.trip(st, program)
	case fault:
		if st.state == StateHealthy || st.state == StateRecovered {
			s.transition(st, program, StateDegraded)
		}
	default:
		if st.state == StateRecovered || (st.state == StateDegraded && st.faults == 0) {
			s.transition(st, program, StateHealthy)
		}
	}
}

// trip opens the breaker: detach permanently when the trip budget is
// spent, else quarantine with exponentially longer, jittered backoff.
func (s *Supervisor) trip(st *progHealth, program string) {
	st.trips++
	if s.cfg.MaxTrips > 0 && st.trips >= s.cfg.MaxTrips {
		s.transition(st, program, StateDetached)
		return
	}
	st.backoff = s.backoffFor(st)
	st.until = s.core.K.Clock.Now() + st.backoff
	s.transition(st, program, StateQuarantined)
}

// requarantine handles a failed recovery probe (or reload): one more trip,
// doubled backoff. The "quarantined->quarantined" transition row makes
// failed probes visible in stats.
func (s *Supervisor) requarantine(st *progHealth, program string) {
	st.trips++
	if s.cfg.MaxTrips > 0 && st.trips >= s.cfg.MaxTrips {
		s.transition(st, program, StateDetached)
		return
	}
	st.backoff = s.backoffFor(st)
	st.until = s.core.K.Clock.Now() + st.backoff
	s.transition(st, program, StateQuarantined)
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
	for i := range st.window {
		st.window[i] = false
	}
	st.widx, st.filled, st.faults = 0, 0, 0
}

// transition moves the program to a new state and accounts it. Caller
// holds mu; entries into quarantine or detachment queue a trip
// notification for delivery once the lock is released.
func (s *Supervisor) transition(st *progHealth, program string, to State) {
	from := st.state
	st.state = to
	s.core.Stats.recordTransition(program, from, to)
	if to == StateQuarantined || to == StateDetached {
		s.notify = append(s.notify, tripNote{program: program, to: to})
		s.queued.Store(int32(len(s.notify)))
	}
}
