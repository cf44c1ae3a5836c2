package exec

import (
	"maps"
	"sync/atomic"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/rng"
)

// refBreaker is the supervisor's circuit breaker as specified, for a
// serial dispatcher, without the quiet shortcut: every admitted run,
// clean or not, slides the window.
type refBreaker struct {
	cfg         SupervisorConfig
	state       State
	window      []bool
	widx        int
	faults      int
	trips       int
	until       int64
	backoff     int64
	jitter      rng.Star
	transitions map[string]uint64
}

func newRefBreaker(cfg SupervisorConfig, program string) *refBreaker {
	return &refBreaker{
		cfg:         cfg,
		state:       StateHealthy,
		window:      make([]bool, cfg.Window),
		jitter:      rng.Star(jitterSeed(cfg.JitterSeed, program)),
		transitions: map[string]uint64{},
	}
}

// admit reports whether a dispatch at virtual time now runs, and whether
// it is the recovery probe.
func (r *refBreaker) admit(now int64) (run, probe bool) {
	if r.state == StateQuarantined {
		return now >= r.until, now >= r.until
	}
	return true, false
}

// observe folds an admitted run's outcome in, at virtual time now.
func (r *refBreaker) observe(fault, probe bool, now int64) {
	if probe {
		if fault {
			r.trip(now)
			return
		}
		r.to(StateRecovered)
		clear(r.window)
		r.widx, r.faults = 0, 0
		return
	}
	if r.window[r.widx] {
		r.faults--
	}
	r.window[r.widx] = fault
	if fault {
		r.faults++
	}
	r.widx = (r.widx + 1) % len(r.window)
	switch {
	case fault && r.faults >= r.cfg.TripThreshold:
		r.trip(now)
	case fault && (r.state == StateHealthy || r.state == StateRecovered):
		r.to(StateDegraded)
	case !fault && (r.state == StateRecovered || (r.state == StateDegraded && r.faults == 0)):
		r.to(StateHealthy)
	}
}

func (r *refBreaker) trip(now int64) {
	r.trips++
	b := r.cfg.BaseBackoffNs
	for i := 1; i < r.trips && b < r.cfg.MaxBackoffNs; i++ {
		b <<= 1
	}
	b = min(b, r.cfg.MaxBackoffNs)
	if half := b / 2; half > 0 {
		b = b - b/4 + int64(r.jitter.Next()%uint64(half+1))
	}
	r.backoff, r.until = b, now+b
	r.to(StateQuarantined)
}

func (r *refBreaker) to(s State) {
	r.transitions[string(r.state)+"->"+string(s)]++
	r.state = s
}

// faultSchedule draws a run's outcomes in phases that alternate between
// faulty (one fault in six, or two in three) and clean, so a program keeps
// falling into quarantine and climbing back out.
func faultSchedule(seed uint64, runs int) []bool {
	g := rng.Star(seed*0x9E3779B97F4A7C15 | 1)
	out := make([]bool, 0, runs)
	for phase := 0; len(out) < runs; phase++ {
		odds := []uint64{1, 4}[g.Next()%2]
		if phase%2 == 1 {
			odds = 0
		}
		for n := 10 + int(g.Next()%41); n > 0 && len(out) < runs; n-- {
			out = append(out, g.Next()%6 < odds)
		}
	}
	return out
}

// TestSupervisorQuietMatchesReference drives a supervised core serially
// through seeded fault schedules and requires every run's Supervision,
// the state, the backoff and the transition counters to match a
// reference breaker that slides its window on every run: skipping a clean
// run's observation while the program is quiet changes no decision.
func TestSupervisorQuietMatchesReference(t *testing.T) {
	const seeds, runs = 32, 300
	walk := []string{"healthy->degraded", "degraded->quarantined", "quarantined->recovered", "recovered->healthy"}
	seen := map[string]uint64{}
	for seed := uint64(1); seed <= seeds; seed++ {
		cfg := SupervisorConfig{
			Window:        8,
			TripThreshold: 3,
			BaseBackoffNs: 3_000,
			MaxBackoffNs:  24_000,
			JitterSeed:    seed,
			DeniedCostNs:  1_000,
		}
		c := newTestCore()
		s := c.Supervise(cfg)
		ref := newRefBreaker(cfg, "p")
		var fault, leak bool
		eng := fakeEngine{name: "fake", run: func(env *helpers.Env, _ interp.Options) (uint64, error) {
			env.Ctx.Tick(100)
			switch {
			case fault && leak:
				// Exit-audit damage: an unbalanced RCU read lock.
				c.K.RCU().ReadLock(env.Ctx)
			case fault:
				return 0, errBoom
			}
			return 1, nil
		}}
		var ranFaults, denied uint64
		for i, f := range faultSchedule(seed, runs) {
			fault, leak = f, i%3 == 0
			run, probe := ref.admit(c.K.Clock.Now())
			rep, _ := c.Run(eng, Request{Program: c.Program("p")}, nil)
			want := "denied"
			if run {
				ref.observe(f, probe, c.K.Clock.Now())
				want = string(ref.state)
				if f {
					ranFaults++
				}
			} else {
				denied++
			}
			if rep.Supervision != want {
				t.Fatalf("seed %d run %d: supervision %q, want %q", seed, i, rep.Supervision, want)
			}
			wantBackoff := int64(0)
			if ref.state == StateQuarantined {
				wantBackoff = ref.backoff
			}
			if st, b := s.State("p"), s.BackoffNs("p"); st != ref.state || b != wantBackoff {
				t.Fatalf("seed %d run %d: state %s backoff %d, want %s %d", seed, i, st, b, ref.state, wantBackoff)
			}
		}
		ps := c.Stats.Snapshot().Programs["p"]
		if !maps.Equal(ps.Transitions, ref.transitions) {
			t.Fatalf("seed %d: transitions %v, want %v", seed, ps.Transitions, ref.transitions)
		}
		if ps.Faults != ranFaults || ps.Denied != denied || ps.Invocations != runs-denied {
			t.Fatalf("seed %d: faults %d denied %d invocations %d, want %d %d %d",
				seed, ps.Faults, ps.Denied, ps.Invocations, ranFaults, denied, runs-denied)
		}
		for _, tr := range walk {
			if ref.transitions[tr] == 0 {
				t.Fatalf("seed %d: schedule never took %s (%v)", seed, tr, ref.transitions)
			}
		}
		for tr, n := range ref.transitions {
			seen[tr] += n
		}
	}
	for _, tr := range []string{"degraded->healthy", "recovered->degraded", "quarantined->quarantined"} {
		if seen[tr] == 0 {
			t.Fatalf("no seed took %s (%v)", tr, seen)
		}
	}
}

// TestSupervisorQuietSharded trips the breaker on shard 1 while shard 0
// runs the same program quiet, without the lock: the trip must hold on
// both shards, denying the next dispatch on each. Run under -race.
func TestSupervisorQuietSharded(t *testing.T) {
	c := newTestCore()
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, _ interp.Options) (uint64, error) {
		env.Ctx.Tick(10)
		if env.Ctx.CPUID == 1 {
			return 0, errBoom
		}
		return 1, nil
	}}
	sup := c.Supervise(SupervisorConfig{
		Window:        64,
		TripThreshold: 3,
		BaseBackoffNs: 1 << 40, // no probe within the test
		MaxBackoffNs:  1 << 41,
	})
	sh := c.NewSharded(ShardedConfig{Shards: 2, RingSize: 8})
	defer sh.Close()

	var ran, denied atomic.Uint64
	tally := func(results []BatchResult) {
		for _, r := range results {
			switch s := r.Report.Supervision; s {
			case "healthy", "degraded", "quarantined":
				ran.Add(1)
			case "denied":
				denied.Add(1)
			default:
				t.Errorf("shard 0 run reported %q", s)
			}
		}
	}
	batch := func() []Request {
		return []Request{{Program: c.Program("p")}, {Program: c.Program("p")}, {Program: c.Program("p")}, {Program: c.Program("p")}}
	}
	stop := make(chan struct{})
	streamed := make(chan uint64)
	go func() {
		var n uint64
		defer func() { streamed <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := sh.SubmitWait(0, Batch{Engine: eng, Reqs: batch(), Done: tally}); err != nil {
				t.Error(err)
				return
			}
			n += 4
		}
	}()
	waitFor(t, "quiet runs on shard 0", func() bool { return ran.Load() >= 64 })

	// The results are the shard's until Done returns: keep a copy.
	tripped := make(chan string, 1)
	if err := sh.SubmitWait(1, Batch{Engine: eng, Reqs: batch()[:3], Done: func(r []BatchResult) { tripped <- r[2].Report.Supervision }}); err != nil {
		t.Fatal(err)
	}
	third := <-tripped
	close(stop)
	total := <-streamed
	sh.Flush()
	if third != string(StateQuarantined) {
		t.Fatalf("third fault on shard 1 reported %q, want quarantined", third)
	}

	for cpu := 0; cpu < 2; cpu++ {
		next := make(chan string, 1)
		err := sh.SubmitWait(cpu, Batch{Engine: eng, Reqs: batch()[:1], Done: func(r []BatchResult) {
			next <- r[0].Report.Supervision
		}})
		if err != nil {
			t.Fatal(err)
		}
		if got := <-next; got != "denied" {
			t.Fatalf("next dispatch on shard %d after the trip: %q, want denied", cpu, got)
		}
	}
	if st := sup.State("p"); st != StateQuarantined {
		t.Fatalf("state = %s, want quarantined", st)
	}
	ps := c.Stats.Snapshot().Programs["p"]
	if ps.Faults != 3 || ps.Invocations+ps.Denied != total+5 || ran.Load()+denied.Load() != total {
		t.Fatalf("faults %d, invocations %d + denied %d, shard 0 tallied %d + %d of %d",
			ps.Faults, ps.Invocations, ps.Denied, ran.Load(), denied.Load(), total)
	}
	if n := ps.Transitions["degraded->quarantined"]; n != 1 {
		t.Fatalf("degraded->quarantined = %d, want 1 (%v)", n, ps.Transitions)
	}
}
