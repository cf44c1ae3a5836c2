// Package exec is the shared execution core under both extension stacks.
//
// The paper's comparison (Tables 1 and 2) is verified-eBPF versus the
// safe-language framework *on the same substrate*; this package is that
// substrate's run half. It owns the invocation lifecycle both stacks used
// to hand-roll separately: per-invocation setup (kernel context, helper
// environment, context address), RCU read-side bracketing, engine dispatch
// behind the Engine interface, fuel/watchdog option plumbing, and assembly
// of a unified, instrumented Report — so per-world measurements come from
// one code path and an overhead comparison is a Stats diff, not two
// bespoke harnesses. Layers above (internal/ebpf, internal/safext/runtime)
// decide *what* to run and how to interpret failure; layers below
// (internal/ebpf/interp, internal/ebpf/jit) decide *how* instructions
// retire.
package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/jit"
	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
)

// Engine executes one prepared program in a helper environment. NewEngine
// binds the interpreter or the JIT to it; a Loaded program or Extension
// binds an Engine at load time and the core dispatches through it.
type Engine interface {
	// Name identifies the engine ("interp", "jit") in reports and stats.
	Name() string
	// Run executes to completion and returns R0. The error reports
	// abnormal termination (crash, fuel, watchdog), not the exit code.
	Run(env *helpers.Env, opts interp.Options) (uint64, error)
}

// Injector is the execution core's fault-injection seam. BeforeRun may
// rewrite the request (budget jitter shrinks Fuel/WatchdogNs); the embedded
// helper hook is installed on the run's Env. internal/faultinject
// implements it; a nil Core.Inject costs one comparison per run. The
// request BeforeRun sees belongs to the run frame: it must not be retained.
type Injector interface {
	helpers.FaultHook
	BeforeRun(req *Request)
}

// epoch is the origin of run timing. A batch reads time.Since(epoch) at
// its start and end: the monotonic clock only, which is cheaper than
// time.Now, which also reads the wall clock.
var epoch = time.Now()

// Core owns the execution substrate one stack runs on: the simulated
// kernel, the helper and map registries, the interpreter machine engines
// share, and the always-on Stats.
type Core struct {
	K       *kernel.Kernel
	Helpers *helpers.Registry
	Maps    *maps.Registry
	Machine *interp.Machine

	// Inject, when non-nil, arms fault injection on every run dispatched
	// through this core.
	Inject Injector

	// Stats accumulates per-program and per-CPU counters for every run
	// and load dispatched through this core.
	Stats Stats

	// racy counts the programs whose CONC verdict is Racy: while it is
	// zero the sharded plane's conc gate reads nothing else (see conc.go).
	racy atomic.Int64

	// frames holds each CPU's idle run frames (see runFrame).
	frames []frameCache

	// sup, once Supervise installs it, gates every dispatch through this
	// core. Shard workers read it while the control plane may write it.
	sup atomic.Pointer[Supervisor]
}

// NewCore assembles an execution core on the given kernel and registries.
func NewCore(k *kernel.Kernel, reg *helpers.Registry, mreg *maps.Registry) *Core {
	c := &Core{K: k, Helpers: reg, Maps: mreg, Machine: interp.NewMachine(k, reg, mreg)}
	c.frames = make([]frameCache, k.Cfg.NumCPU)
	c.Stats.sizeCPUs(k.Cfg.NumCPU)
	return c
}

// Supervise installs a supervisor on the core: from then on every
// dispatch through Run, RunBatch and the core's sharded planes, including
// planes built before this call, passes the supervisor's gate. Zero-value
// config fields fall back to DefaultSupervisorConfig. It returns the
// supervisor for state inspection.
func (c *Core) Supervise(cfg SupervisorConfig) *Supervisor {
	s := newSupervisor(c, cfg)
	c.sup.Store(s)
	return s
}

// Supervisor returns the core's supervisor, nil when unsupervised.
func (c *Core) Supervisor() *Supervisor { return c.sup.Load() }

// Request describes one invocation through the core.
type Request struct {
	// Program is the program's record (Core.Program), resolved at load:
	// its stats, supervisor health and CONC verdict. Every request sets it.
	Program *Program
	// CPU selects the simulated CPU the context runs on.
	CPU int
	// CtxAddr is what R1 points to at entry. The stacks guarantee it is
	// non-zero for programs whose acceptance assumed a live context.
	CtxAddr uint64

	// Fuel and WatchdogNs plumb the runtime nets into the engine; zero
	// disables (the verified stack trusts the verifier for termination).
	Fuel       uint64
	WatchdogNs int64
	// FuelElided marks a run without a fuel meter under a static
	// instruction bound (ProgramStats.FuelElisions).
	FuelElided bool
	// Bugs selects reintroduced helper bugs for this invocation.
	Bugs helpers.BugConfig
	// ProgArray is the tail-call target array, if any.
	ProgArray []*isa.Program
	// Observe, when non-nil, receives the concrete machine state entering
	// every retired instruction — the statecheck oracle's trace hook.
	// Interpreter-only; the JIT engine ignores it.
	Observe interp.Observer

	// Scratch, when non-nil, becomes the run's Env.Scratch before Setup
	// runs: per-invocation state for the hooks and helpers of a stack,
	// carried without building a closure per invocation (the safext
	// runtime passes its Prepared invocation here).
	Scratch any
	// Setup, when set, adjusts the freshly reset Env before execution.
	Setup func(env *helpers.Env)
	// Finish, when set, runs after the engine returns but still inside
	// the RCU read-side critical section, with the engine's error — the
	// window the safext trusted-cleanup path needs. It may read the
	// report (exit-audit results and wall latency are not yet filled in).
	//
	// The Env both hooks receive belongs to the core's run frame and is
	// reset for the next invocation as soon as this one returns: hooks
	// must not retain it, or anything hanging off it, past the call.
	Finish func(env *helpers.Env, rep *Report, engineErr error)
}

// runFrame is the state a batch's invocations run in: their kernel
// context, helper environment, engine run state (register files and stack
// frames) and, under an injector, a copy of the running request for the
// injector to rewrite. A batch claims one frame for
// all its runs. Each run re-enters the context and resets the environment
// in place, so it starts from state indistinguishable from a fresh
// NewContext and NewEnv, on zeroed stack frames; what a frame keeps across
// runs is backing storage, the context's TLB and the mapped stack frames.
// A frame whose context leaves the exit audit still holding locks, RCU
// nesting or references (an audit that panicked under oops=panic) is
// retired, its stack frames unmapped: those locks now belong to a dead
// context, as they would without reuse. The batch's next run claims
// another frame.
type runFrame struct {
	ctx kernel.Context
	env helpers.Env
	st  interp.State
	req Request
}

// frameCache is one CPU's idle run frames, a short stack: a shard
// worker's batch takes the top and puts it back, so it runs on one frame,
// and one warm TLB, for its whole life, and a second caller on the CPU at
// once (a Finish hook or Done callback calling Core.Run, or another
// goroutine) takes the next.
type frameCache struct {
	mu   sync.Mutex
	free []*runFrame
	_    kernel.CacheLinePad
}

// frameCacheCap bounds the frames a CPU keeps; a frame released past it is
// retired.
const frameCacheCap = 4

// claim takes a run frame for a batch on cpu: the CPU's last idle one, or
// a new one.
func (c *Core) claim(cpu int) *runFrame {
	if uint(cpu) < uint(len(c.frames)) {
		fc := &c.frames[cpu]
		fc.mu.Lock()
		defer fc.mu.Unlock()
		if n := len(fc.free); n > 0 {
			fr := fc.free[n-1]
			fc.free = fc.free[:n-1]
			return fr
		}
	}
	return &runFrame{ctx: kernel.Context{K: c.K}}
}

// release returns a batch's frame to its CPU's cache, or retires it when
// the cache is full. The request and environment are cleared first, so an
// idle frame pins no caller data.
func (c *Core) release(cpu int, fr *runFrame) {
	fr.req = Request{}
	fr.env.Reset(nil, nil, nil)
	if uint(cpu) < uint(len(c.frames)) {
		fc := &c.frames[cpu]
		fc.mu.Lock()
		defer fc.mu.Unlock()
		if len(fc.free) < frameCacheCap {
			fc.free = append(fc.free, fr)
			return
		}
	}
	fr.st.Release()
}

// reportBox is a Report allocated together with the backing array of its
// helper counts, so assembling a report costs one allocation. The caller
// owns the box through its Report. The rest is what Stats.fold reads
// besides it, set as the run ends: the request's Program and FuelElided
// and the dispatch's error. ran stays false for a dispatch never run.
type reportBox struct {
	Report
	calls       [inlineCalls]uint64
	prog        *Program
	err         error
	ran, elided bool
}

// inlineCalls is how many helper-count slots a report stores inline;
// helpers past it (a process that has called more distinct helpers) cost
// the report one more allocation.
const inlineCalls = 16

// setCalls copies the run's helper counts into the report: into the
// inline array, capped at their length, when they fit.
func (b *reportBox) setCalls(calls helpers.Calls) {
	if n := len(calls); n != 0 {
		b.HelperCalls = append(b.calls[:0:min(n, inlineCalls)], calls...)
	}
}

// Run invokes the engine once under the full lifecycle: context and
// environment setup, RCU read-side bracketing (what turns a
// non-terminating program into an RCU stall, §2.2), engine dispatch,
// report assembly, exit audit, and stats accumulation. The returned error
// is the engine's abnormal-termination error, if any; kernel damage is
// visible in the report's ExitOopses and on the kernel itself. The caller
// owns the returned Report. Run is RunBatch of one, so the report's WallNs
// is the whole dispatch's.
//
// On a supervised core the invocation first passes the supervisor's gate
// (see Supervisor): a quarantined program is answered without
// running, and reload, which may be nil, re-prepares the program before a
// recovery probe.
//
// Under Config.PanicOnOops a kernel.KernelPanic can unwind out of the
// engine, a helper, the Finish hook, or the exit audit. Run recovers
// exactly that panic type — the read-side unlock, exit audit, wall-clock
// figure, and stats accounting all still happen — and surfaces it as the
// run error so a supervisor can classify the invocation. Any other panic
// is a harness bug and keeps propagating.
func (c *Core) Run(eng Engine, req Request, reload Reload) (*Report, error) {
	box := make([]reportBox, 1)
	c.runBatch(eng, req.CPU, []Request{req}, reload, box)
	return &box[0].Report, box[0].err
}

// dispatch is one request of a batch writing its report into box: the one
// place the run path asks whether the core is supervised. fr is the
// batch's run frame (see run).
func (c *Core) dispatch(eng Engine, fr **runFrame, req *Request, reload Reload, box *reportBox) error {
	if s := c.sup.Load(); s != nil {
		return s.gate(eng, fr, req, reload, box)
	}
	return c.run(eng, fr, req, box)
}

// run is the lifecycle of one invocation, writing its report into box. It
// runs on the batch's frame *fp, claiming one when the batch holds none,
// and retires the frame, leaving *fp nil, when the run leaves its context
// dirty. It runs on the caller's req, which it does not modify; only an
// injector, which may rewrite the request, gets the frame's copy of it.
func (c *Core) run(eng Engine, fp **runFrame, req *Request, box *reportBox) (err error) {
	fr := *fp
	if fr == nil {
		fr = c.claim(req.CPU)
		*fp = fr
	}
	r := req
	if c.Inject != nil {
		fr.req = *req
		c.Inject.BeforeRun(&fr.req)
		r = &fr.req
	}
	ctx, env := &fr.ctx, &fr.env
	ctx.Reenter(r.CPU)
	env.Reset(c.K, ctx, c.Maps)
	env.CtxAddr = r.CtxAddr
	if c.Inject != nil {
		env.Fault = c.Inject
	}
	env.Scratch = r.Scratch
	if r.Setup != nil {
		r.Setup(env)
	}
	// RuntimeNs is the context's own consumed time, not the clock's: on a
	// sharded plane the clock also carries every other shard's work.
	virtStart := ctx.ConsumedNs()

	rep := &box.Report
	reported := false
	report := func(r0 uint64) {
		reported = true
		rep.Program = r.Program.name
		rep.Engine = eng.Name()
		rep.R0 = r0
		rep.Instructions = ctx.Instructions
		rep.FuelUsed = env.FuelUsed
		box.setCalls(env.HelperCalls)
		rep.MapOps = env.MapOps
		rep.RuntimeNs = ctx.ConsumedNs() - virtStart
		rep.Trace = env.Trace
	}
	// finish runs the caller's Finish hook still inside the RCU read-side
	// section. A destructor that oopses under PanicOnOops must not mask
	// the original run error, so its KernelPanic is swallowed unless no
	// error is pending yet.
	finishDone := false
	finish := func() {
		if r.Finish == nil || finishDone {
			return
		}
		finishDone = true
		defer func() {
			if p := recover(); p != nil {
				kp, ok := p.(kernel.KernelPanic)
				if !ok {
					panic(p)
				}
				if err == nil {
					err = kp
				}
			}
		}()
		r.Finish(env, rep, err)
	}

	c.K.RCU().ReadLock(ctx)
	defer func() {
		if p := recover(); p != nil {
			kp, ok := p.(kernel.KernelPanic)
			if !ok {
				panic(p)
			}
			if err == nil {
				err = kp
			}
			if !reported {
				report(0)
			}
			finish()
		}
		// Balance the read-side section and audit the exit even when the
		// run died mid-panic. The audit itself can oops (and panic again
		// under oops=panic); fold that into the report rather than
		// unwinding with accounting half done.
		func() {
			defer func() {
				if p := recover(); p != nil {
					kp, ok := p.(kernel.KernelPanic)
					if !ok {
						panic(p)
					}
					rep.ExitOopses = append(rep.ExitOopses, kp.Oops)
					if err == nil {
						err = kp
					}
				}
			}()
			c.K.RCU().ReadUnlock(ctx)
			rep.ExitOopses = append(rep.ExitOopses, ctx.ExitAudit()...)
		}()
		rep.CPUTimeNs = ctx.ConsumedNs()
		box.prog, box.ran, box.elided = r.Program, true, r.FuelElided
		if !ctx.Exited() {
			fr.st.Release()
			*fp = nil
		}
	}()

	iopts := interp.Options{
		Fuel:       r.Fuel,
		WatchdogNs: r.WatchdogNs,
		Bugs:       r.Bugs,
		ProgArray:  r.ProgArray,
		Observe:    r.Observe,
		State:      &fr.st,
	}
	var r0 uint64
	r0, err = eng.Run(env, iopts)
	report(r0)
	finish()
	return err
}

// BatchResult pairs one batched request with its outcome.
type BatchResult struct {
	Report *Report
	Err    error
}

// RunBatch dispatches a batch of requests on one simulated CPU, forcing
// every request's CPU to the batch's. Each request still gets the full
// per-invocation lifecycle — supervisor gate, fresh context, RCU
// bracketing, fuel, watchdog, exit audit — so the safety guarantees are
// identical to serial Run calls, and a trip mid-batch denies the rest of
// the batch exactly as it would deny fresh dispatches. The batch pays the
// bookkeeping once: one run-frame claim, one pair of clock reads, one
// allocation for its reports and one stats fold. Each report that ran gets
// an equal share of the batch's wall time as its WallNs, the remainder on
// the first. The caller owns every returned Report.
func (c *Core) RunBatch(eng Engine, cpu int, reqs []Request, reload Reload) []BatchResult {
	out, _ := new(batchSlab).run(c, eng, cpu, reqs, reload)
	return out
}

// batchSlab is the storage a batch's reports and results are written
// into. RunBatch uses a fresh one per batch; a Sharded worker keeps one
// for its life, so a batch's results are valid only until the next batch
// on that shard (see Batch.Done).
type batchSlab struct {
	boxes []reportBox
	out   []BatchResult
}

// run is RunBatch writing into the slab, grown to the batch's size when it
// is short. It returns the batch's consumed CPU time, from the stats fold.
func (slab *batchSlab) run(c *Core, eng Engine, cpu int, reqs []Request, reload Reload) ([]BatchResult, int64) {
	n := len(reqs)
	if cap(slab.boxes) < n {
		slab.boxes = make([]reportBox, n)
		slab.out = make([]BatchResult, n)
	}
	boxes, out := slab.boxes[:n], slab.out[:n]
	consumed := c.runBatch(eng, cpu, reqs, reload, boxes)
	for i := range boxes {
		out[i] = BatchResult{Report: &boxes[i].Report, Err: boxes[i].err}
	}
	return out, consumed
}

// runBatch dispatches reqs on cpu on one run frame, writing each
// dispatch's report and error into its box. Each box is reset before its
// dispatch, so a report never carries a field of an earlier batch's. It
// returns the batch's consumed CPU time, from the stats fold.
func (c *Core) runBatch(eng Engine, cpu int, reqs []Request, reload Reload, boxes []reportBox) int64 {
	var fr *runFrame
	start := time.Since(epoch)
	for i := range reqs {
		reqs[i].CPU = cpu
		boxes[i] = reportBox{}
		boxes[i].err = c.dispatch(eng, &fr, &reqs[i], reload, &boxes[i])
	}
	span := int64(time.Since(epoch) - start)
	if fr != nil {
		c.release(cpu, fr)
	}
	shareWall(boxes, span)
	return c.Stats.fold(cpu, boxes)
}

// shareWall gives each box that ran an equal share of span as its WallNs,
// with the remainder on the first.
func shareWall(boxes []reportBox, span int64) {
	var ran int64
	for i := range boxes {
		if boxes[i].ran {
			ran++
		}
	}
	rest := span % max(ran, 1)
	for i := range boxes {
		if boxes[i].ran {
			boxes[i].WallNs, rest = span/ran+rest, 0
		}
	}
}

// codeEngine runs one engine's Code on the shared machine: the
// interpreter and the JIT differ only in the Code they supply.
type codeEngine struct {
	name string
	m    *interp.Machine
	code interp.Code
}

func (e codeEngine) Name() string { return e.name }
func (e codeEngine) Run(env *helpers.Env, opts interp.Options) (uint64, error) {
	return e.m.RunCode(e.code, env, opts)
}

// NewEngine binds a program to an engine on the machine: the JIT, which
// compiles it with cfg, or the interpreter, which decodes it as it runs.
// Only the JIT's compile can fail.
func NewEngine(m *interp.Machine, prog *isa.Program, useJIT bool, cfg jit.Config) (Engine, error) {
	if !useJIT {
		return codeEngine{name: "interp", m: m, code: interp.Interpreted(prog)}, nil
	}
	c, err := jit.Compile(prog, cfg)
	if err != nil {
		return nil, err
	}
	return codeEngine{name: "jit", m: m, code: c}, nil
}
