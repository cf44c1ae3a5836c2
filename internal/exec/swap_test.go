package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
)

// mkVersion builds a test Version whose requests carry the version's
// program record and whose completion hook counts answered invocations —
// the zero-dropped-invocations ledger every swap test closes over.
func mkVersion(program *Program, digest string, eng Engine, answered *atomic.Int64) Version {
	return Version{
		Digest:  digest,
		Program: program,
		Engine:  eng,
		Make: func(n int) ([]Request, func([]BatchResult)) {
			reqs := make([]Request, n)
			for i := range reqs {
				reqs[i] = Request{Program: program}
			}
			return reqs, func(results []BatchResult) {
				answered.Add(int64(len(results)))
			}
		},
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func tickOK(name string) fakeEngine {
	return fakeEngine{name: name, run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.Ctx.Tick(1)
		return 1, nil
	}}
}

func tickBad(name string) fakeEngine {
	return fakeEngine{name: name, run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.Ctx.Tick(1)
		return 0, errBoom
	}}
}

// TestHotSwapCleanCutoverUnderTraffic swaps between two healthy versions
// while producers keep submitting from every shard: the soak completes,
// nothing rolls back, and every submitted invocation is answered by one
// version or the other. Run under -race.
func TestHotSwapCleanCutoverUnderTraffic(t *testing.T) {
	c := newTestCore()
	c.Supervise(SupervisorConfig{Window: 8, TripThreshold: 4})
	sh := c.NewSharded(ShardedConfig{Shards: 2, RingSize: 32})
	var answered, submitted atomic.Int64
	v1 := mkVersion(c.Program("fw@d1"), "d1", tickOK("v1"), &answered)
	v2 := mkVersion(c.Program("fw@d2"), "d2", tickOK("v2"), &answered)
	hs := NewHotSwap(sh, v1)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for cpu := 0; cpu < 2; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := hs.Submit(context.Background(), cpu, 4); err != nil {
					t.Error(err)
					return
				}
				submitted.Add(4)
			}
		}(cpu)
	}

	rep, err := hs.Swap(context.Background(), v2, 32)
	close(done)
	wg.Wait()
	sh.Flush()
	sh.Close()
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	if rep.RolledBack {
		t.Fatalf("clean swap rolled back: %+v", rep)
	}
	if rep.From != "d1" || rep.To != "d2" {
		t.Fatalf("report digests = %q -> %q", rep.From, rep.To)
	}
	if rep.SoakRuns < 32 {
		t.Fatalf("soak runs = %d, want >= 32", rep.SoakRuns)
	}
	if got := hs.Current().Digest; got != "d2" {
		t.Fatalf("current after swap = %q, want d2", got)
	}
	if a, s := answered.Load(), submitted.Load(); a != s {
		t.Fatalf("answered %d != submitted %d: invocations dropped across the swap", a, s)
	}
}

// TestHotSwapRollbackOnTripDuringSoak swaps to a version that faults on
// every run: the supervisor trips it inside the soak window, submissions
// cut back to the previous digest, the bad version drains, and the report
// records the rollback — with no invocation dropped. Run under -race.
func TestHotSwapRollbackOnTripDuringSoak(t *testing.T) {
	c := newTestCore()
	sup := c.Supervise(SupervisorConfig{
		Window:        8,
		TripThreshold: 2,
		BaseBackoffNs: 1 << 40, // no probes: the bad version stays down
		MaxBackoffNs:  1 << 41,
	})
	sh := c.NewSharded(ShardedConfig{Shards: 2, RingSize: 32})
	var answered, submitted atomic.Int64
	v1 := mkVersion(c.Program("fw@d1"), "d1", tickOK("v1"), &answered)
	v2 := mkVersion(c.Program("fw@d2"), "d2", tickBad("v2"), &answered)
	hs := NewHotSwap(sh, v1)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for cpu := 0; cpu < 2; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := hs.Submit(context.Background(), cpu, 4); err != nil {
					t.Error(err)
					return
				}
				submitted.Add(4)
			}
		}(cpu)
	}

	rep, err := hs.Swap(context.Background(), v2, 1<<30)
	close(done)
	wg.Wait()
	sh.Flush()
	sh.Close()
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	if !rep.RolledBack {
		t.Fatalf("bad version did not roll back: %+v", rep)
	}
	if got := hs.Current().Digest; got != "d1" {
		t.Fatalf("current after rollback = %q, want d1", got)
	}
	if st := sup.State("fw@d2"); st != StateQuarantined {
		t.Fatalf("bad version state = %v, want quarantined", st)
	}
	if st := sup.State("fw@d1"); st == StateQuarantined {
		t.Fatalf("previous version state = %v after rollback", st)
	}
	if rep.RollbackWallNs < 0 || rep.RollbackVirtNs < 0 {
		t.Fatalf("negative rollback latency: %+v", rep)
	}
	if a, s := answered.Load(), submitted.Load(); a != s {
		t.Fatalf("answered %d != submitted %d: invocations dropped across the rollback", a, s)
	}
}

// TestHotSwapWhileOldQuarantined starts from a quarantined current version
// (the reason you'd roll out a fix) and swaps to a healthy one: the swap
// must complete — the old version's in-flight batches drain via fallback
// denials — and must not be mistaken for a soak trip. Run under -race.
func TestHotSwapWhileOldQuarantined(t *testing.T) {
	c := newTestCore()
	sup := c.Supervise(SupervisorConfig{
		Window:        8,
		TripThreshold: 2,
		BaseBackoffNs: 1 << 40,
		MaxBackoffNs:  1 << 41,
	})
	sh := c.NewSharded(ShardedConfig{Shards: 2, RingSize: 32})
	var answered atomic.Int64
	v1 := mkVersion(c.Program("fw@d1"), "d1", tickBad("v1"), &answered)
	v2 := mkVersion(c.Program("fw@d2"), "d2", tickOK("v2"), &answered)
	hs := NewHotSwap(sh, v1)

	// Trip the current version first. The trip fires the hot-swap hook with
	// no soak open; it must be ignored.
	for i := 0; i < 2; i++ {
		if err := hs.Submit(context.Background(), 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	sh.Flush()
	if st := sup.State("fw@d1"); st != StateQuarantined {
		t.Fatalf("old version state = %v, want quarantined before swap", st)
	}

	swapDone := make(chan struct{})
	var rep *SwapReport
	var swapErr error
	go func() {
		defer close(swapDone)
		rep, swapErr = hs.Swap(context.Background(), v2, 8)
	}()
	waitFor(t, "cutover", func() bool { return hs.Current().Digest == "d2" })
	for i := 0; i < 3; i++ {
		if err := hs.Submit(context.Background(), i%2, 4); err != nil {
			t.Fatal(err)
		}
	}
	<-swapDone
	sh.Flush()
	sh.Close()
	if swapErr != nil {
		t.Fatalf("swap: %v", swapErr)
	}
	if rep.RolledBack {
		t.Fatalf("swap away from quarantined version rolled back: %+v", rep)
	}
	if rep.SoakRuns < 8 {
		t.Fatalf("soak runs = %d, want >= 8", rep.SoakRuns)
	}
	if st := sup.State("fw@d1"); st != StateQuarantined {
		t.Fatalf("old version state = %v, want still quarantined", st)
	}
	if st := sup.State("fw@d2"); st == StateQuarantined {
		t.Fatalf("new version state = %v after clean soak", st)
	}
}

// TestHotSwapCutoverMidRunBatch parks a worker inside the old version's
// RunBatch and swaps: the cutover is immediate (new submissions run the
// new version on other shards while the old batch is still executing), and
// Swap's drain completes only once the parked batch finishes. Run under
// -race.
func TestHotSwapCutoverMidRunBatch(t *testing.T) {
	c := newTestCore()
	c.Supervise(SupervisorConfig{Window: 8, TripThreshold: 4})
	sh := c.NewSharded(ShardedConfig{Shards: 2, RingSize: 32})
	gate := make(chan struct{})
	started := make(chan struct{})
	var parked atomic.Bool
	v1eng := fakeEngine{name: "v1", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		if parked.CompareAndSwap(false, true) {
			close(started)
			<-gate
		}
		env.Ctx.Tick(1)
		return 1, nil
	}}
	var answered1, answered2 atomic.Int64
	v1 := mkVersion(c.Program("fw@d1"), "d1", v1eng, &answered1)
	v2 := mkVersion(c.Program("fw@d2"), "d2", tickOK("v2"), &answered2)
	hs := NewHotSwap(sh, v1)

	// Park shard 0 inside the first request of a 4-request v1 batch.
	if err := hs.Submit(context.Background(), 0, 4); err != nil {
		t.Fatal(err)
	}
	<-started

	swapDone := make(chan struct{})
	var rep *SwapReport
	var swapErr error
	go func() {
		defer close(swapDone)
		rep, swapErr = hs.Swap(context.Background(), v2, 4)
	}()

	// Mid-batch, the cutover has already happened: shard 1 serves the new
	// version while shard 0 is still inside the old version's batch.
	waitFor(t, "cutover", func() bool { return hs.Current().Digest == "d2" })
	for i := 0; i < 2; i++ {
		if err := hs.Submit(context.Background(), 1, 4); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "new version serving", func() bool { return answered2.Load() >= 8 })
	select {
	case <-swapDone:
		t.Fatal("swap returned while the old version's batch was still in flight")
	default:
	}

	close(gate)
	<-swapDone
	sh.Flush()
	sh.Close()
	if swapErr != nil {
		t.Fatalf("swap: %v", swapErr)
	}
	if rep.RolledBack {
		t.Fatalf("clean mid-batch swap rolled back: %+v", rep)
	}
	if answered1.Load() != 4 {
		t.Fatalf("old version answered %d, want its full parked batch of 4", answered1.Load())
	}
	if rep.SoakRuns < 4 {
		t.Fatalf("soak runs = %d, want >= 4", rep.SoakRuns)
	}
}

// TestHotSwapRollbackRacingRecoveryProbe is the nastiest interleaving: the
// new version trips with a ring full of its batches still queued; while the
// rollback drains them, the denials advance the virtual clock past the
// quarantine backoff, so one queued dispatch becomes a recovery probe whose
// reload fails — re-quarantining the version (a second trip notification)
// in the middle of the rollback. The hook must ignore the duplicate, the
// drain must still terminate, and the probe failure must surface in Stats.
// Run under -race.
func TestHotSwapRollbackRacingRecoveryProbe(t *testing.T) {
	c := newTestCore()
	sup := c.Supervise(SupervisorConfig{
		Window:        4,
		TripThreshold: 1,
		BaseBackoffNs: 2000,
		MaxBackoffNs:  8000,
		DeniedCostNs:  1000,
	})
	sh := c.NewSharded(ShardedConfig{Shards: 1, RingSize: 32})
	var answered1, answered2 atomic.Int64
	errReload := errors.New("revalidation failed")
	v1 := mkVersion(c.Program("fw@d1"), "d1", tickOK("v1"), &answered1)
	v2 := mkVersion(c.Program("fw@d2"), "d2", tickBad("v2"), &answered2)
	v2.Reload = func() error { return errReload }
	hs := NewHotSwap(sh, v1)

	// Park the single worker behind a plain gate batch so a backlog of
	// new-version batches can queue before any of them runs.
	gate := make(chan struct{})
	gateEng := fakeEngine{name: "gate", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		<-gate
		env.Ctx.Tick(1)
		return 0, nil
	}}
	if err := sh.Submit(0, Batch{Engine: gateEng, Reqs: []Request{{Program: c.Program("gate")}}}); err != nil {
		t.Fatal(err)
	}

	swapDone := make(chan struct{})
	var rep *SwapReport
	var swapErr error
	go func() {
		defer close(swapDone)
		rep, swapErr = hs.Swap(context.Background(), v2, 1<<30)
	}()
	waitFor(t, "cutover", func() bool { return hs.Current().Digest == "d2" })
	for i := 0; i < 20; i++ {
		if err := hs.Submit(context.Background(), 0, 4); err != nil {
			t.Fatal(err)
		}
	}

	// Release the worker: the first new-version run trips the breaker
	// (threshold 1), the remaining 19 queued batches drain as denials whose
	// cost expires the backoff, and the probes' failing reload re-quarantines
	// mid-rollback.
	close(gate)
	<-swapDone
	sh.Flush()
	sh.Close()
	if swapErr != nil {
		t.Fatalf("swap: %v", swapErr)
	}
	if !rep.RolledBack {
		t.Fatalf("swap did not roll back: %+v", rep)
	}
	if got := hs.Current().Digest; got != "d1" {
		t.Fatalf("current after rollback = %q, want d1", got)
	}
	if st := sup.State("fw@d2"); st != StateQuarantined {
		t.Fatalf("bad version state = %v, want quarantined", st)
	}
	if answered2.Load() != 80 {
		t.Fatalf("bad version answered %d of 80 queued invocations", answered2.Load())
	}

	ps := c.Stats.Snapshot().Programs["fw@d2"]
	if ps.ProbeFailures == 0 {
		t.Fatal("no probe failure recorded despite failing reloads mid-rollback")
	}
	if ps.ReloadFailures == 0 || ps.ReloadFailures != ps.ProbeFailures {
		t.Fatalf("reload failures = %d, probe failures = %d; every probe's reload failed",
			ps.ReloadFailures, ps.ProbeFailures)
	}
	if ps.LastReloadError == "" {
		t.Fatal("last reload error not surfaced in stats")
	}
	if n := ps.Transitions["quarantined->quarantined"]; n == 0 {
		t.Fatal("no re-quarantine transition: the probe never raced the rollback")
	}
}
