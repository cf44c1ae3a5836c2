package exec

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
)

var errBoom = errors.New("boom")

// TestSupervisorConcurrentTrip drives one faulty program from several
// shards at once: the breaker must trip and, once tripped, every shard
// must observe a consistent denied/quarantined view. Run under -race.
func TestSupervisorConcurrentTrip(t *testing.T) {
	c := newTestCore()
	var faults atomic.Uint64
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.Ctx.Tick(1)
		faults.Add(1)
		return 0, errBoom
	}}
	sup := c.Supervise(SupervisorConfig{
		Window:        8,
		TripThreshold: 2,
		BaseBackoffNs: 1 << 40, // far beyond what the runs advance: no probes
		MaxBackoffNs:  1 << 41,
	})
	sh := c.NewSharded(ShardedConfig{Shards: 4, RingSize: 32})
	var wg sync.WaitGroup
	for cpu := 0; cpu < 4; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for b := 0; b < 10; b++ {
				reqs := make([]Request, 4)
				for i := range reqs {
					reqs[i] = Request{Program: c.Program("bad")}
				}
				if err := sh.SubmitWait(cpu, Batch{Engine: eng, Reqs: reqs}); err != nil {
					t.Error(err)
					return
				}
			}
		}(cpu)
	}
	wg.Wait()
	sh.Flush()
	sh.Close()

	if st := sup.State("bad"); st != StateQuarantined {
		t.Fatalf("state = %v, want quarantined", st)
	}
	snap := c.Stats.Snapshot()
	ps := snap.Programs["bad"]
	// Every dispatch either ran (and faulted) or was denied; none vanished.
	if ps.Invocations+ps.Denied != 160 {
		t.Fatalf("ran %d + denied %d != 160 dispatches", ps.Invocations, ps.Denied)
	}
	if ps.Faults != faults.Load() {
		t.Fatalf("accounted faults %d != engine faults %d", ps.Faults, faults.Load())
	}
	if ps.Denied == 0 {
		t.Fatal("no dispatch was denied after the trip")
	}
	if ps.Fallbacks != ps.Denied {
		t.Fatalf("fallbacks %d != denied %d under DegradeFallback", ps.Fallbacks, ps.Denied)
	}
	// The breaker tripped exactly once: no duplicate *->quarantined rows
	// beyond the single trip (no concurrent double-trip).
	if n := ps.Transitions["degraded->quarantined"]; n != 1 {
		t.Fatalf("degraded->quarantined transitions = %d, want 1 (%v)", n, ps.Transitions)
	}
}

// TestSupervisorLateCompletionDuringQuarantine pins the probe-attribution
// contract: a run admitted while the program was still healthy on another
// shard that completes after a trip is NOT the recovery probe. Its success
// must not short-circuit to recovered (bypassing backoff and the
// single-flight claim), and its fault must not extend the backoff as a
// failed probe would.
func TestSupervisorLateCompletionDuringQuarantine(t *testing.T) {
	c := newTestCore()
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	late := fakeEngine{name: "late", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		started <- struct{}{}
		<-gate
		env.Ctx.Tick(1)
		if env.Ctx.CPUID == 1 {
			return 0, errBoom // the late fault
		}
		return 1, nil // the late success
	}}
	failing := fakeEngine{name: "fail", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.Ctx.Tick(1)
		return 0, errBoom
	}}
	ok := fakeEngine{name: "ok", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.Ctx.Tick(1)
		return 1, nil
	}}
	sup := c.Supervise(SupervisorConfig{
		Window:        8,
		TripThreshold: 2,
		BaseBackoffNs: 1 << 30,
		MaxBackoffNs:  1 << 31,
	})

	// Two runs admitted while healthy, parked inside Core.Run on their own
	// shards.
	var wg sync.WaitGroup
	lateErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, lateErrs[i] = c.Run(late, Request{Program: c.Program("p"), CPU: i + 1}, nil)
		}(i)
	}
	<-started
	<-started

	// Trip the breaker on another shard while both late runs are in flight.
	for i := 0; i < 2; i++ {
		if _, err := c.Run(failing, Request{Program: c.Program("p"), CPU: 0}, nil); err == nil {
			t.Fatal("faulty run did not error")
		}
	}
	if st := sup.State("p"); st != StateQuarantined {
		t.Fatalf("state after trip = %v, want quarantined", st)
	}
	backoff := sup.BackoffNs("p")

	// Both late runs complete: the fault (CPU 1) must not be treated as a
	// failed probe (doubling the backoff, counting a second trip), and the
	// success (CPU 2) must not be treated as a successful probe (instantly
	// recovering, bypassing the backoff).
	close(gate)
	wg.Wait()

	if lateErrs[0] == nil || lateErrs[1] != nil {
		t.Fatalf("late run errors = %v, %v; want boom, nil", lateErrs[0], lateErrs[1])
	}
	if st := sup.State("p"); st != StateQuarantined {
		t.Fatalf("state after late completions = %v, want quarantined", st)
	}
	if got := sup.BackoffNs("p"); got != backoff {
		t.Fatalf("backoff changed by late completion: %d -> %d", backoff, got)
	}
	snap := c.Stats.Snapshot()
	ps := snap.Programs["p"]
	if n := ps.Transitions["quarantined->quarantined"]; n != 0 {
		t.Fatalf("late fault was taken as a failed probe (%v)", ps.Transitions)
	}
	if n := ps.Transitions["quarantined->recovered"]; n != 0 {
		t.Fatalf("late success was taken as a successful probe (%v)", ps.Transitions)
	}

	// The breaker itself still works: once the backoff really expires the
	// next dispatch is the probe and its success recovers the program.
	c.K.Clock.Advance(1 << 33)
	if _, err := c.Run(ok, Request{Program: c.Program("p"), CPU: 0}, nil); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if st := sup.State("p"); st != StateRecovered {
		t.Fatalf("state after probe = %v, want recovered", st)
	}
	snap = c.Stats.Snapshot()
	if n := snap.Programs["p"].Transitions["quarantined->recovered"]; n != 1 {
		t.Fatalf("quarantined->recovered = %d, want 1", n)
	}
}

// TestSupervisorLateCompletionAfterRecovery pins the epoch rule: runs
// admitted while the program was degraded, parked on their shards while
// another shard trips the breaker and a recovery probe succeeds, complete
// late. Their faults are counted, but neither the late success nor the
// late fault may move the recovered program: only runs admitted since the
// last trip decide its state.
func TestSupervisorLateCompletionAfterRecovery(t *testing.T) {
	c := newTestCore()
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	late := fakeEngine{name: "late", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		started <- struct{}{}
		<-gate
		env.Ctx.Tick(1)
		if env.Ctx.CPUID == 1 {
			return 0, errBoom
		}
		return 1, nil
	}}
	sup := c.Supervise(SupervisorConfig{
		Window:        8,
		TripThreshold: 2,
		BaseBackoffNs: 1 << 30,
		MaxBackoffNs:  1 << 31,
	})
	if _, err := c.Run(tickBad("fail"), Request{Program: c.Program("p")}, nil); err == nil {
		t.Fatal("faulty run did not error")
	}
	if st := sup.State("p"); st != StateDegraded {
		t.Fatalf("state after one fault = %v, want degraded", st)
	}

	// Two runs admitted while degraded, parked inside Core.Run.
	var wg sync.WaitGroup
	lateErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, lateErrs[i] = c.Run(late, Request{Program: c.Program("p"), CPU: i + 1}, nil)
		}(i)
	}
	<-started
	<-started

	// Trip, expire the backoff and recover on CPU 0 while both are parked.
	if _, err := c.Run(tickBad("fail"), Request{Program: c.Program("p")}, nil); err == nil {
		t.Fatal("faulty run did not error")
	}
	c.K.Clock.Advance(1 << 33)
	if rep, err := c.Run(tickOK("ok"), Request{Program: c.Program("p")}, nil); err != nil || rep.Supervision != string(StateRecovered) {
		t.Fatalf("probe: supervision %q err %v, want recovered", rep.Supervision, err)
	}

	close(gate)
	wg.Wait()
	if lateErrs[0] == nil || lateErrs[1] != nil {
		t.Fatalf("late run errors = %v, %v; want boom, nil", lateErrs[0], lateErrs[1])
	}
	if st := sup.State("p"); st != StateRecovered {
		t.Fatalf("state after late completions = %v, want recovered", st)
	}
	ps := c.Stats.Snapshot().Programs["p"]
	if ps.Faults != 3 {
		t.Fatalf("faults = %d, want 3: a late fault is still counted", ps.Faults)
	}
	for tr := range ps.Transitions {
		if strings.HasPrefix(tr, "recovered->") {
			t.Fatalf("a late completion moved the recovered program (%v)", ps.Transitions)
		}
	}
}

// TestSupervisorProbeSingleFlight expires a quarantine's backoff while
// many shards are dispatching: exactly one dispatch may become the
// recovery probe; the rest must stay denied until the probe's outcome is
// observed. Without the single-flight claim this test races (and fails
// -race ordering assertions) because several workers reload and probe at
// once.
func TestSupervisorProbeSingleFlight(t *testing.T) {
	c := newTestCore()
	var fail atomic.Bool
	fail.Store(true)
	var runs atomic.Uint64
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.Ctx.Tick(1)
		runs.Add(1)
		if fail.Load() {
			return 0, errBoom
		}
		return 1, nil
	}}
	sup := c.Supervise(SupervisorConfig{
		Window:        4,
		TripThreshold: 1,
		BaseBackoffNs: 1000,
		MaxBackoffNs:  2000,
	})
	// Trip the breaker serially.
	if _, err := c.Run(eng, Request{Program: c.Program("p")}, nil); err == nil {
		t.Fatal("faulty run did not error")
	}
	if st := sup.State("p"); st != StateQuarantined {
		t.Fatalf("state = %v", st)
	}

	// Expire the backoff, heal the program, and race many dispatches: all
	// must pass through the single-flight gate without double-probing.
	fail.Store(false)
	c.K.Clock.Advance(1 << 20)
	var reloads atomic.Uint64
	reload := func() error { reloads.Add(1); return nil }
	ranBefore := runs.Load()
	sh := c.NewSharded(ShardedConfig{Shards: 4, RingSize: 64})
	var wg sync.WaitGroup
	for cpu := 0; cpu < 4; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				err := sh.SubmitWait(cpu, Batch{Engine: eng, Reload: reload,
					Reqs: []Request{{Program: c.Program("p")}}})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(cpu)
	}
	wg.Wait()
	sh.Flush()
	sh.Close()

	// Exactly one dispatch became the probe (one reload), and after its
	// success the program kept running (recovered/healthy), so more than
	// one run happened in total — but never a concurrent second probe.
	if got := reloads.Load(); got != 1 {
		t.Fatalf("reloads = %d, want exactly 1 (probe single-flight)", got)
	}
	if st := sup.State("p"); st == StateQuarantined {
		t.Fatalf("state after successful probe = %v", st)
	}
	if runs.Load() == ranBefore {
		t.Fatal("no dispatch ran after quarantine expiry")
	}
	snap := c.Stats.Snapshot()
	ps := snap.Programs["p"]
	if n := ps.Transitions["quarantined->recovered"]; n != 1 {
		t.Fatalf("quarantined->recovered = %d, want 1 (%v)", n, ps.Transitions)
	}
}
