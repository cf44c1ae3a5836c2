package exec

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"kex/internal/rng"
)

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
)

// SupervisorConfig tunes the circuit breaker and recovery schedule.
type SupervisorConfig struct {
	// Window is the number of most-recent runs the breaker looks at, at
	// most 64 (a larger value is clamped).
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
	// DeniedCostNs is charged to the virtual clock per denied dispatch —
	// a denied invocation still consumes time at the attach point, and
	// it is what lets a single-program workload's backoff expire.
	DeniedCostNs int64
}

// DefaultSupervisorConfig mirrors sensible production settings: trip on 3
// faults in the last 16 runs, back off from 1ms to 1s.
func DefaultSupervisorConfig() SupervisorConfig {
	return SupervisorConfig{
		Window:        16,
		TripThreshold: 3,
		BaseBackoffNs: 1_000_000,
		MaxBackoffNs:  1_000_000_000,
		JitterSeed:    0x5eed,
		DeniedCostNs:  1_000,
	}
}

// Reload re-prepares a program before a recovery probe: the verified stack
// re-verifies, the safext runtime re-validates the signature. A reload
// error re-quarantines immediately.
type Reload func() error

// breaker is one program's circuit breaker as a value. Its step method is
// the breaker's only decision: it takes no lock, reads no clock and writes
// no stats, but returns the effects the Supervisor applies under its lock.
type breaker struct {
	state  State
	window uint64 // the last Window outcomes, newest in bit 0; 1 = fault
	// trips counts quarantines entered. It is the epoch each admission is
	// stamped with: a run admitted before a later trip completes late.
	trips uint32
	// probing single-flights the recovery probe: when several shards hit
	// an expired backoff together, exactly one dispatch becomes the probe
	// and the rest stay denied until its outcome is observed.
	probing bool
	until   int64 // virtual deadline of the current quarantine
	backoff int64 // current (jittered) backoff duration
	jitter  rng.Star
}

// brKind names a breaker event.
type brKind uint8

const (
	brAdmit   brKind = iota // a dispatch arrives
	brRefused               // the probe's reload was refused
	brDone                  // an admitted run completed
)

// brEvent is one input to breaker.step, at virtual time now.
type brEvent struct {
	kind  brKind
	now   int64
	fault bool   // brDone: the run faulted or left exit-audit damage
	probe bool   // brDone: the run held the recovery probe's claim
	epoch uint32 // brDone: the epoch its admission was stamped with
}

// brEffects is what one step asks of the Supervisor.
type brEffects struct {
	run   bool   // brAdmit: the dispatch runs,
	probe bool   // holding the probe claim,
	epoch uint32 // stamped with this epoch
	deny  bool   // answer with the fallback, count a denial, charge DeniedCostNs
	fault bool   // count a fault
	// probeFailed counts a failed probe.
	probeFailed bool
	// to, when set, is a transition from from to record; one into
	// quarantine is also delivered to the OnTrip hook.
	from, to State
	// quiet is the token the gate publishes for lock-free admission.
	quiet uint32
}

// step folds one event into the breaker. A quarantined program admits only
// its probe, once the backoff has expired. The probe's outcome decides the
// quarantine; any other run completing after a trip that followed its
// admission (a late run, from another shard) counts its fault and decides
// nothing.
func (b breaker) step(cfg *SupervisorConfig, ev brEvent) (breaker, brEffects) {
	var fx brEffects
	switch ev.kind {
	case brAdmit:
		fx.epoch = b.trips
		switch {
		case b.state != StateQuarantined:
			fx.run = true
		case ev.now >= b.until && !b.probing:
			b.probing, fx.run, fx.probe = true, true, true
		default:
			fx.deny = true
		}
	case brRefused:
		b.probing, fx.deny, fx.probeFailed = false, true, true
		b.trip(cfg, ev.now, &fx)
	case brDone:
		fx.fault = ev.fault
		switch {
		case ev.probe:
			b.probing = false
			if ev.fault {
				fx.probeFailed = true
				b.trip(cfg, ev.now, &fx)
			} else {
				b.window = 0
				b.to(StateRecovered, &fx)
			}
		case ev.epoch != b.trips:
			// A late run: its fault is counted, and it decides nothing.
		default:
			b.window <<= 1
			if ev.fault {
				b.window |= 1
			}
			b.window &= 1<<cfg.Window - 1
			switch {
			case ev.fault && bits.OnesCount64(b.window) >= cfg.TripThreshold:
				b.trip(cfg, ev.now, &fx)
			case ev.fault && (b.state == StateHealthy || b.state == StateRecovered):
				b.to(StateDegraded, &fx)
			case !ev.fault && (b.state == StateRecovered || (b.state == StateDegraded && b.window == 0)):
				b.to(StateHealthy, &fx)
			}
		}
	}
	if b.state == StateHealthy && b.window == 0 && !b.probing {
		fx.quiet = b.trips + 1
	}
	return b, fx
}

// trip opens the breaker at virtual time now: quarantine for
// min(base << (trips-1), max) with deterministic ±25% jitter from the
// program's stream. A failed probe (or reload) trips again from
// quarantine, so its "quarantined->quarantined" row makes failed probes
// visible in stats.
func (b *breaker) trip(cfg *SupervisorConfig, now int64, fx *brEffects) {
	b.trips++
	d := cfg.BaseBackoffNs
	for i := uint32(1); i < b.trips && d < cfg.MaxBackoffNs; i++ {
		d <<= 1
	}
	d = min(d, cfg.MaxBackoffNs)
	if half := d / 2; half > 0 {
		d = d - d/4 + int64(b.jitter.Next()%uint64(half+1))
	}
	b.backoff, b.until = d, now+d
	b.to(StateQuarantined, fx)
}

func (b *breaker) to(s State, fx *brEffects) {
	fx.from, fx.to, b.state = b.state, s, s
}

// Supervisor is the core's gate, installed by Core.Supervise: per-program
// fault containment on every dispatch through the core, with a circuit
// breaker (TripThreshold faults in the last Window runs → quarantine),
// deterministic exponential backoff with jittered recovery probes, and
// graceful degradation: a dispatch that arrives while its program is
// quarantined is denied and served R0 = 0 without running. A fault is a
// run that returns an error or leaves exit-audit damage. The breaker's
// decisions are breaker.step; the Supervisor applies their effects under
// its lock, so all transitions and denials are accounted in the core's
// Stats and stamped on each Report. A program's health hangs off its
// record (Program.health), so a dispatch finds it without a lookup.
type Supervisor struct {
	core *Core
	cfg  SupervisorConfig

	// mu guards every program's health this supervisor made.
	mu sync.Mutex
	// onTrip, when armed, is invoked (outside mu, on the dispatching
	// goroutine) whenever a program enters quarantine — the seam a
	// hot-swap layer uses to trigger rollback the moment a freshly
	// attached version trips. The hook must not block for long and must
	// not dispatch through the supervised core.
	onTrip atomic.Pointer[func(p *Program)]
}

// OnTrip arms (or, with nil, disarms) the supervisor's trip hook.
func (s *Supervisor) OnTrip(fn func(p *Program)) { s.onTrip.Store(&fn) }

// progHealth is one program's breaker under one supervisor.
type progHealth struct {
	// sup is the supervisor that made it: a later supervisor starts the
	// program healthy rather than use it.
	sup *Supervisor
	// quiet holds the breaker's last published token (brEffects.quiet):
	// nonzero while a clean run changes nothing any later decision reads,
	// and then the admission epoch plus one (see gate). It is the one
	// field read without mu.
	quiet atomic.Uint32
	b     breaker // guarded by sup.mu
}

// newSupervisor builds a supervisor over the core. Zero-value config fields
// fall back to DefaultSupervisorConfig.
func newSupervisor(core *Core, cfg SupervisorConfig) *Supervisor {
	def := DefaultSupervisorConfig()
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	cfg.Window = min(cfg.Window, 64)
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
			return st.b.state, st.b.backoff
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
	st := &progHealth{sup: s, b: breaker{
		state:  StateHealthy,
		jitter: rng.Star(jitterSeed(s.cfg.JitterSeed, p.name)),
	}}
	st.quiet.Store(1)
	if s.core.sup.Load() == s {
		p.health.Store(st)
	}
	return st
}

// step advances the program's breaker by one event at the current virtual
// time and applies the effects under mu, then delivers a trip to the
// OnTrip hook. It returns the effects and the state stepped to.
func (s *Supervisor) step(p *Program, ev brEvent, reloadErr error) (brEffects, State) {
	var fx brEffects
	s.mu.Lock()
	st := s.health(p)
	ev.now = s.core.K.Clock.Now()
	st.b, fx = st.b.step(&s.cfg, ev)
	state := st.b.state
	st.quiet.Store(fx.quiet)
	if fx.fault {
		p.at(pFaults).Add(1)
	}
	if fx.deny {
		s.core.K.Clock.Advance(s.cfg.DeniedCostNs)
		p.recordDenied()
	}
	if fx.probeFailed {
		p.recordProbeFailure(reloadErr)
	}
	if fx.to != "" {
		p.recordTransition(fx.from, fx.to)
	}
	s.mu.Unlock()
	if fn := s.onTrip.Load(); fn != nil && *fn != nil && fx.to == StateQuarantined {
		(*fn)(p)
	}
	return fx, state
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

// gate dispatches one invocation through the supervisor. A quarantined
// program never reaches the lifecycle: the dispatch is denied, accounted,
// and served the fallback. When a quarantine's backoff has expired the
// dispatch becomes a recovery probe — reload first (re-verify /
// re-validate), then one real run whose outcome decides between recovery
// and a longer quarantine. An admitted dispatch runs on the batch's run
// frame fr (see Core.run).
//
// A quiet program (see progHealth.quiet) is admitted without the lock, at
// the epoch its token carries, and its clean run is not observed at all.
// That is what the breaker's step would do: admitting a healthy program
// changes nothing, and sliding a clean result into a window that holds no
// fault changes nothing either. A fault goes through step under mu as
// ever. A quiet run that overlaps a fault on another shard is thereby
// ordered before that fault; concurrent runs had no defined order before
// either.
func (s *Supervisor) gate(eng Engine, fr **runFrame, req *Request, reload Reload, box *reportBox) error {
	var quiet uint32
	if st := req.Program.health.Load(); st != nil && st.sup == s {
		quiet = st.quiet.Load()
	}
	adm := brEffects{run: true, epoch: quiet - 1}
	if quiet == 0 {
		var err error
		if adm, err = s.admit(eng, req, reload, box); !adm.run {
			return err
		}
	}

	err := s.core.run(eng, fr, req, box)
	rep := &box.Report
	fault := err != nil || len(rep.ExitOopses) > 0
	if quiet != 0 && !fault {
		rep.Supervision = string(StateHealthy)
		return nil
	}
	_, state := s.step(req.Program, brEvent{kind: brDone, fault: fault, probe: adm.probe, epoch: adm.epoch}, nil)
	rep.Supervision = string(state)
	return err
}

// admit steps a dispatch's admission and runs the probe's reload. A
// dispatch it answers without running (run unset) is denied and served
// R0 = 0, or refused at reload with err the reload's failure.
func (s *Supervisor) admit(eng Engine, req *Request, reload Reload, box *reportBox) (brEffects, error) {
	p := req.Program
	fx, _ := s.step(p, brEvent{kind: brAdmit}, nil)
	var err error
	if fx.probe && reload != nil {
		if err = reload(); err != nil {
			s.step(p, brEvent{kind: brRefused}, err)
			fx.run, err = false, fmt.Errorf("exec: recovery reload of %q failed: %w", p.name, err)
		}
	}
	if !fx.run {
		rep := &box.Report
		rep.Program, rep.Engine, rep.Supervision = p.name, eng.Name(), "denied"
		rep.R0, rep.Fallback = 0, true
	}
	return fx, err
}
