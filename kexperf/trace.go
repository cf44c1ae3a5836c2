package main

import (
	"time"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/exec"
)

// layer is one segment of an invocation's path through the data plane. The
// spans are stamped from this package, around the calls into each layer:
// the execution core's fault-injection seam (Core.Inject.BeforeRun) marks
// the start of each Core.Run, the request's Setup and Finish hooks and a
// wrapping Engine mark the engine, and wrapped helper implementations mark
// each helper call. Each stamp charges the time since the previous stamp to
// the layer that just ended.
type layer int

const (
	// layerPrepare is the client writing the batch's packets and preparing
	// its requests (the stacks' Request and Prepare).
	layerPrepare layer = iota
	// layerHandoff runs from the client's SubmitWait to the start of the
	// batch's first Core.Run: the conc gate, the ring hand-off, the worker
	// wake-up and the first request's supervisor gate.
	layerHandoff
	// layerSetup is the kernel context and helper environment set-up.
	layerSetup
	// layerRCU runs from the end of set-up to engine dispatch: the RCU
	// read-side entry.
	layerRCU
	// layerEngine is engine time, helper calls excluded.
	layerEngine
	// layerHelper is time inside helper (and kernel crate) calls.
	layerHelper
	// layerReport runs from engine return to the Finish hook: report
	// assembly.
	layerReport
	// layerCleanup is the stack's Finish hook: the safext trusted cleanup.
	layerCleanup
	// layerExit runs from the end of one request's Finish hook to the start
	// of the next request, or to the batch's completion callback: RCU exit,
	// exit audit, stats, supervisor accounting and the next supervisor gate.
	layerExit
	// layerComplete runs from the completion callback to the client seeing
	// the batch done: result decoding and the hand-back to the client.
	layerComplete
	numLayers
)

var layerNames = [numLayers]string{"prepare", "handoff", "setup", "rcu", "engine", "helper", "report", "cleanup", "exit", "complete"}

// laneTrace accumulates one lane's span durations. The lane's client and
// its shard worker take turns on it: the client before submitting and
// after the completion callback, the worker in between, ordered by the
// ring send and the completion channel.
type laneTrace struct {
	acc    [numLayers]int64
	last   int64
	first  bool
	doneAt int64

	// Invocation counters read from each report.
	insns, helperCalls uint64

	origSetup  func(*helpers.Env)
	origFinish func(*helpers.Env, *exec.Report, error)
	// setup and finish are the lane's hook methods, bound once so that
	// installing them on a request does not allocate.
	setup  func(*helpers.Env)
	finish func(*helpers.Env, *exec.Report, error)

	t *tracer
}

// tracer stamps span boundaries for every lane of one plane. It is the
// core's Injector: BeforeRun is the first thing Core.Run does.
type tracer struct {
	epoch time.Time
	lanes []*laneTrace
}

func newTracer(lanes int) *tracer {
	t := &tracer{epoch: time.Now(), lanes: make([]*laneTrace, lanes)}
	for i := range t.lanes {
		lt := &laneTrace{t: t}
		lt.setup = lt.onSetup
		lt.finish = lt.onFinish
		t.lanes[i] = lt
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// install arms the tracer on a core: the injector seam and a timing
// wrapper around every implemented helper. The wrapped helpers look the
// lane up by the running context's CPU, so they must be installed before
// any traffic runs.
func (t *tracer) install(core *exec.Core) {
	core.Inject = t
	for _, spec := range core.Helpers.All() {
		if spec.Impl != nil {
			spec.Impl = t.wrapHelper(spec.Impl)
		}
	}
}

// BeforeRun closes the span that ended at the start of this Core.Run and
// hooks the request's Setup and Finish.
func (t *tracer) BeforeRun(req *exec.Request) {
	lt := t.lanes[req.CPU]
	now := t.now()
	if lt.first {
		lt.acc[layerHandoff] += now - lt.last
		lt.first = false
	} else {
		lt.acc[layerExit] += now - lt.last
	}
	lt.last = now
	lt.origSetup, req.Setup = req.Setup, lt.setup
	lt.origFinish, req.Finish = req.Finish, lt.finish
}

// HelperCall never injects a fault.
func (t *tracer) HelperCall(*helpers.Env, string) (uint64, error, bool) { return 0, nil, false }

func (lt *laneTrace) onSetup(env *helpers.Env) {
	if lt.origSetup != nil {
		lt.origSetup(env)
	}
	now := lt.t.now()
	lt.acc[layerSetup] += now - lt.last
	lt.last = now
}

func (lt *laneTrace) onFinish(env *helpers.Env, rep *exec.Report, err error) {
	start := lt.t.now()
	lt.acc[layerReport] += start - lt.last
	if lt.origFinish != nil {
		lt.origFinish(env, rep, err)
	}
	end := lt.t.now()
	lt.acc[layerCleanup] += end - start
	lt.last = end
}

func (t *tracer) wrapHelper(f helpers.Func) helpers.Func {
	return func(env *helpers.Env, args [5]uint64) (uint64, error) {
		lt := t.lanes[env.Ctx.CPUID]
		start := t.now()
		lt.acc[layerEngine] += start - lt.last
		r0, err := f(env, args)
		end := t.now()
		lt.acc[layerHelper] += end - start
		lt.last = end
		return r0, err
	}
}

// tracedEngine stamps engine entry and exit around another engine.
type tracedEngine struct {
	inner exec.Engine
	t     *tracer
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) Run(env *helpers.Env, opts interp.Options) (uint64, error) {
	lt := e.t.lanes[env.Ctx.CPUID]
	start := e.t.now()
	lt.acc[layerRCU] += start - lt.last
	lt.last = start
	r0, err := e.inner.Run(env, opts)
	end := e.t.now()
	lt.acc[layerEngine] += end - lt.last
	lt.last = end
	return r0, err
}

// beginBatch is called by the client when it starts on a batch.
func (lt *laneTrace) beginBatch() {
	lt.last = lt.t.now()
}

// submitting is called by the client just before it submits the batch.
func (lt *laneTrace) submitting() {
	now := lt.t.now()
	lt.acc[layerPrepare] += now - lt.last
	lt.last = now
	lt.first = true
}

// batchDone is called by the worker first thing in the completion callback.
func (lt *laneTrace) batchDone(results []exec.BatchResult) {
	now := lt.t.now()
	lt.acc[layerExit] += now - lt.last
	lt.doneAt = now
	for _, res := range results {
		if rep := res.Report; rep != nil {
			lt.insns += rep.Instructions
			for _, n := range rep.HelperCalls {
				lt.helperCalls += n
			}
		}
	}
}

// batchSeen is called by the client once it has the batch's results.
func (lt *laneTrace) batchSeen() {
	lt.acc[layerComplete] += lt.t.now() - lt.doneAt
}

// reset clears the accumulated spans and counters, after warm-up.
func (lt *laneTrace) reset() {
	lt.acc = [numLayers]int64{}
	lt.insns, lt.helperCalls = 0, 0
}
