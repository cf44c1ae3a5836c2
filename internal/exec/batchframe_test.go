package exec

import (
	"errors"
	"sync"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/kernel"
)

// checkFixtureRun fails the test unless a run of the allocs fixture
// completed cleanly: both its helpers called, no exit damage.
func checkFixtureRun(t *testing.T, what string, rep *Report, err error) {
	t.Helper()
	if err != nil || rep.R0 != 0 || rep.HelperCalls.Total() != 2 || len(rep.ExitOopses) != 0 {
		t.Errorf("%s: err=%v report=%+v", what, err, rep)
	}
}

// TestBatchFrameReentrantRun calls Core.Run on a batch's own CPU from a
// request's Finish hook, while the batch holds the CPU's run frame, and
// from the batch's Done callback. Both answer correctly, the first on a
// frame of its own, and the batch's runs all share one frame.
func TestBatchFrameReentrantRun(t *testing.T) {
	c, eng, ctx := newAllocsFixture(t)
	sh := c.NewSharded(ShardedConfig{Shards: 2})
	defer sh.Close()

	var batchCtx []*kernel.Context
	var inner *kernel.Context
	record := func(env *helpers.Env) { batchCtx = append(batchCtx, env.Ctx) }
	innerReq := Request{Program: c.Program("allocs"), CPU: 1, CtxAddr: ctx}
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Program: c.Program("allocs"), CtxAddr: ctx, Setup: record}
	}
	finishRan := false
	reqs[3].Finish = func(*helpers.Env, *Report, error) {
		finishRan = true
		req := innerReq
		req.Setup = func(env *helpers.Env) { inner = env.Ctx }
		rep, err := c.Run(eng, req, nil)
		checkFixtureRun(t, "Core.Run from a Finish hook", rep, err)
	}
	var results []BatchResult
	doneRan := false
	done := func(rs []BatchResult) {
		doneRan = true
		results = rs
		rep, err := c.Run(eng, innerReq, nil)
		checkFixtureRun(t, "Core.Run from a Done callback", rep, err)
	}
	if err := sh.SubmitWait(1, Batch{Engine: eng, Reqs: reqs, Done: done}); err != nil {
		t.Fatal(err)
	}
	sh.Flush()
	if !finishRan || !doneRan {
		t.Fatalf("Finish hook ran %v, Done callback ran %v", finishRan, doneRan)
	}
	for i, res := range results {
		checkFixtureRun(t, "batch run", res.Report, res.Err)
		if batchCtx[i] != batchCtx[0] {
			t.Errorf("batch run %d ran on another frame than run 0", i)
		}
	}
	if inner == batchCtx[0] {
		t.Error("the Core.Run from a Finish hook shared the batch's frame")
	}
	if n := c.K.RCU().ActiveReaders(); n != 0 || !c.K.Healthy() {
		t.Fatalf("active RCU readers = %d, kernel healthy = %v", n, c.K.Healthy())
	}
}

// TestBatchFrameRetiredMidBatch runs a batch whose third run leaves a lock
// held at exit. Under oops=off the exit audit reports and releases it, so
// the frame is clean and the batch keeps it; under oops=panic the audit
// panics with the lock still held, so the frame is retired, its stack
// frame unmapped, and the rest of the batch runs on a fresh frame. Either
// way the rest of the batch runs clean.
func TestBatchFrameRetiredMidBatch(t *testing.T) {
	for _, panicOnOops := range []bool{false, true} {
		c, jitEng, ctx := newAllocsFixture(t)
		c.K.Cfg.PanicOnOops = panicOnOops
		value := c.K.Mem.Map(8, kernel.ProtRW, "value")
		var frames []*kernel.Context
		var dirtyAt []int
		dirty := false
		eng := fakeEngine{name: "jit", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
			frames = append(frames, env.Ctx)
			dirtyAt = append(dirtyAt, len(env.K.LockDep().Held(env.Ctx)))
			r0, err := jitEng.Run(env, opts)
			if dirty && len(frames) == 3 {
				env.K.LockDep().Acquire(env.Ctx, env.LockAt(value.Base))
			}
			return r0, err
		}}
		reqs := make([]Request, 6)
		for i := range reqs {
			reqs[i] = Request{Program: c.Program("allocs"), CtxAddr: ctx}
		}
		c.RunBatch(eng, 1, reqs, nil) // warm: the CPU's frame maps its stack frame
		warm := len(c.K.Mem.Regions())
		frames, dirtyAt, dirty = nil, nil, true

		results := c.RunBatch(eng, 1, reqs, nil)
		for i, res := range results {
			if i == 2 {
				if _, died := res.Err.(kernel.KernelPanic); died != panicOnOops || len(res.Report.ExitOopses) != 1 ||
					res.Report.ExitOopses[0].Kind != kernel.OopsDeadlock {
					t.Fatalf("panicOnOops=%v: the dirty run: err=%v ExitOopses=%v", panicOnOops, res.Err, res.Report.ExitOopses)
				}
				continue
			}
			checkFixtureRun(t, "batch run", res.Report, res.Err)
			if dirtyAt[i] != 0 {
				t.Fatalf("panicOnOops=%v: run %d started holding %d locks", panicOnOops, i, dirtyAt[i])
			}
		}
		for i := 1; i < len(frames); i++ {
			if fresh := frames[i] != frames[i-1]; fresh != (panicOnOops && i == 3) {
				t.Fatalf("panicOnOops=%v: run %d on a fresh frame = %v", panicOnOops, i, fresh)
			}
		}
		if got := len(c.K.Mem.Regions()); got != warm {
			t.Fatalf("panicOnOops=%v: %d regions mapped after the batch, want %d as before it", panicOnOops, got, warm)
		}
	}
}

// TestBatchFrameRegionBound interleaves 10k batches on one CPU with 10k
// Core.Runs on the same CPU from a second goroutine, so frames pass
// between the CPU's slot, its list and both callers. Each run maps at
// most one stack frame, and a frame keeps it, so once every caller is
// done at most 1+frameCacheCap frames, and as many stack frames, remain.
func TestBatchFrameRegionBound(t *testing.T) {
	c, eng, _ := newAllocsFixture(t)
	// Each goroutine counts into its own map value: the JIT's atomic add
	// is a plain load and store.
	ctxs := [2]uint64{}
	for i := range ctxs {
		ctxs[i] = c.K.Mem.Map(8, kernel.ProtRW, "ctx").Base
		c.K.Mem.StoreUint(ctxs[i], 4, uint64(i))
	}
	base := len(c.K.Mem.Regions())
	const rounds = 10_000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := Request{Program: c.Program("allocs"), CPU: 1, CtxAddr: ctxs[1]}
		for i := 0; i < rounds; i++ {
			rep, err := c.Run(eng, req, nil)
			if err != nil || rep.HelperCalls.Total() != 2 {
				t.Errorf("Core.Run %d: err=%v report=%+v", i, err, rep)
				return
			}
		}
	}()
	reqs := make([]Request, 4)
	for i := 0; i < rounds; i++ {
		for j := range reqs {
			reqs[j] = Request{Program: c.Program("allocs"), CtxAddr: ctxs[0]}
		}
		for _, res := range c.RunBatch(eng, 1, reqs, nil) {
			if res.Err != nil || res.Report.HelperCalls.Total() != 2 {
				t.Fatalf("batch %d: err=%v report=%+v", i, res.Err, res.Report)
			}
		}
	}
	wg.Wait()
	if got, bound := len(c.K.Mem.Regions()), base+1+frameCacheCap; got > bound {
		t.Fatalf("%d regions mapped after the runs, want <= %d: %d before plus one stack frame for each of at most %d idle run frames",
			got, bound, base, 1+frameCacheCap)
	}
	if ps := c.Stats.Snapshot().Programs["allocs"]; ps.Invocations != 5*rounds {
		t.Fatalf("invocations = %d, want %d", ps.Invocations, 5*rounds)
	}
}

// TestBatchWallShares checks that a batch's wall time is shared out among
// the reports that ran: each gets a nonzero share, a dispatch denied
// without running gets none, and the shares sum to what the batch adds to
// its CPU's WallNs. Core.Run's report takes the whole of its batch of one.
func TestBatchWallShares(t *testing.T) {
	c, jitEng, ctx := newAllocsFixture(t)
	c.Supervise(SupervisorConfig{Window: 1, TripThreshold: 1})
	// A request with no context fails without running the program, and
	// trips its own program, so that program's later requests are denied.
	eng := fakeEngine{name: "jit", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		if env.CtxAddr == 0 {
			return 0, errors.New("no context")
		}
		return jitEng.Run(env, opts)
	}}
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Program: c.Program("allocs"), CtxAddr: ctx}
		if i%4 == 1 {
			reqs[i] = Request{Program: c.Program("failing")}
		}
	}
	cpuWall := func() int64 { return c.Stats.Snapshot().CPUs[1].WallNs }

	before := cpuWall()
	var sum int64
	denied := 0
	for i, res := range c.RunBatch(eng, 1, reqs, nil) {
		switch {
		case res.Report.Supervision == "denied":
			denied++
			if res.Report.WallNs != 0 {
				t.Fatalf("denied report %d has WallNs %d, want 0", i, res.Report.WallNs)
			}
		case res.Report.WallNs <= 0:
			t.Fatalf("report %d: err=%v WallNs=%d, want a positive share", i, res.Err, res.Report.WallNs)
		}
		sum += res.Report.WallNs
	}
	if denied != 3 {
		t.Fatalf("%d dispatches denied, want the 3 after the trip", denied)
	}
	if delta := cpuWall() - before; sum != delta {
		t.Fatalf("reports' WallNs sum to %d, the CPU's WallNs grew by %d", sum, delta)
	}

	before = cpuWall()
	rep, err := c.Run(eng, Request{Program: c.Program("allocs"), CPU: 1, CtxAddr: ctx}, nil)
	if err != nil || rep.WallNs <= 0 {
		t.Fatalf("Core.Run: err=%v WallNs=%d", err, rep.WallNs)
	}
	if delta := cpuWall() - before; rep.WallNs != delta {
		t.Fatalf("Core.Run's WallNs = %d, the CPU's WallNs grew by %d", rep.WallNs, delta)
	}
}
