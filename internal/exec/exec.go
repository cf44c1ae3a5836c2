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

	// Conc is the shard-safety verdict registry: which resident programs
	// the toolchain convicted of cross-shard races, consulted by the
	// sharded data plane's submission gate (see conc.go).
	Conc concTable

	// slots holds each CPU's run frame between its runs, and frames
	// recycles the rest (see runFrame).
	slots  []frameSlot
	frames sync.Pool

	// sup, once Supervise installs it, gates every dispatch through this
	// core. Shard workers read it while the control plane may write it.
	sup atomic.Pointer[Supervisor]
}

// NewCore assembles an execution core on the given kernel and registries.
func NewCore(k *kernel.Kernel, reg *helpers.Registry, mreg *maps.Registry) *Core {
	c := &Core{K: k, Helpers: reg, Maps: mreg, Machine: interp.NewMachine(k, reg, mreg)}
	c.slots = make([]frameSlot, k.Cfg.NumCPU)
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
	// Program names the program for per-program stats and the report.
	Program string
	// Stats, when set, is Program's stats cell (Stats.Cell), resolved at
	// load so the run is accounted without a name lookup.
	Stats *ProgramCell
	// CPU selects the simulated CPU the context runs on.
	CPU int
	// CtxAddr is what R1 points to at entry. The stacks guarantee it is
	// non-zero for programs whose acceptance assumed a live context.
	CtxAddr uint64

	// Fuel and WatchdogNs plumb the runtime nets into the engine; zero
	// disables (the verified stack trusts the verifier for termination).
	Fuel       uint64
	WatchdogNs int64
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

// runFrame is the state one invocation runs in: its kernel context, its
// helper environment and a copy of its request. Core.Run takes a frame,
// re-enters the context and resets the environment in place, and returns
// the frame when the run is accounted, so the lifecycle allocates neither
// per run. Every run still starts from state indistinguishable from a
// fresh NewContext and NewEnv; what a frame keeps across runs is backing
// storage, the context's TLB among it.
//
// Each CPU keeps the frame of its last run in its slot, which a garbage
// collection does not empty, so a shard worker runs on one frame, and one
// warm TLB, for its whole life. A run that finds its CPU's slot empty (a
// second run on the CPU at once, or a CPU past the kernel's) uses the
// core's sync.Pool, which may drop frames at any time. So a frame must not
// own anything that needs releasing: engines return their stack frames to
// the machine's per-CPU cache before a run ends. A frame whose context
// leaves the exit audit still holding locks, RCU nesting or references
// (an audit that panicked under oops=panic) is not reused: those locks now
// belong to a dead context, as they would without reuse.
type runFrame struct {
	ctx kernel.Context
	env helpers.Env
	req Request
}

// frameSlot holds one CPU's idle run frame, on its own cache line.
type frameSlot struct {
	fr atomic.Pointer[runFrame]
	_  kernel.CacheLinePad
}

// frame takes a run frame for a run on cpu: the CPU's own if it is idle,
// else one from the pool.
func (c *Core) frame(cpu int) *runFrame {
	if uint(cpu) < uint(len(c.slots)) {
		if fr := c.slots[cpu].fr.Swap(nil); fr != nil {
			return fr
		}
	}
	if fr, ok := c.frames.Get().(*runFrame); ok {
		return fr
	}
	fr := &runFrame{}
	fr.ctx.K = c.K
	return fr
}

// release returns a frame to its CPU's slot, or to the pool when the slot
// is taken, unless its context is still dirty. The request and
// environment are cleared first, so an idle frame pins no caller data.
func (c *Core) release(fr *runFrame) {
	if !fr.ctx.Exited() {
		return
	}
	cpu := fr.req.CPU
	fr.req = Request{}
	fr.env.Reset(nil, nil, nil)
	if uint(cpu) < uint(len(c.slots)) && c.slots[cpu].fr.CompareAndSwap(nil, fr) {
		return
	}
	c.frames.Put(fr)
}

// reportBox is a Report allocated together with the backing array of its
// helper counts, so assembling a report costs one allocation. The caller
// owns the box through its Report.
type reportBox struct {
	Report
	calls [inlineCalls]uint64
}

// inlineCalls is how many helper-count slots a report stores inline;
// helpers past it (a process that has called more distinct helpers) cost
// the report one more allocation.
const inlineCalls = 16

// setCalls copies the run's helper counts into the report.
func (b *reportBox) setCalls(calls helpers.Calls) {
	switch n := len(calls); {
	case n == 0:
	case n <= inlineCalls:
		copy(b.calls[:], calls)
		b.HelperCalls = b.calls[:n:n]
	default:
		b.HelperCalls = append(helpers.Calls(nil), calls...)
	}
}

// Run invokes the engine once under the full lifecycle: context and
// environment setup, RCU read-side bracketing (what turns a
// non-terminating program into an RCU stall, §2.2), engine dispatch,
// report assembly, exit audit, and stats accumulation. The returned error
// is the engine's abnormal-termination error, if any; kernel damage is
// visible in the report's ExitOopses and on the kernel itself. The caller
// owns the returned Report.
//
// On a supervised core the invocation first passes the supervisor's gate
// (see Supervisor): a quarantined or detached program is answered without
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
	box := new(reportBox)
	err := c.dispatch(eng, req, reload, box)
	return &box.Report, err
}

// dispatch is Run writing its report into box: the one place the run path
// asks whether the core is supervised.
func (c *Core) dispatch(eng Engine, req Request, reload Reload, box *reportBox) error {
	if s := c.sup.Load(); s != nil {
		return s.gate(eng, req, reload, box)
	}
	return c.run(eng, req, box)
}

// run is the lifecycle of one invocation, writing its report into box.
func (c *Core) run(eng Engine, req Request, box *reportBox) (err error) {
	fr := c.frame(req.CPU)
	fr.req = req
	r := &fr.req
	if c.Inject != nil {
		c.Inject.BeforeRun(r)
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
	wallStart := time.Now()

	rep := &box.Report
	reported := false
	report := func(r0 uint64) {
		reported = true
		rep.Program = r.Program
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
		rep.WallNs = time.Since(wallStart).Nanoseconds()
		rep.CPUTimeNs = ctx.ConsumedNs()
		c.Stats.recordRun(r.Stats, r.CPU, rep, err)
		c.release(fr)
	}()

	iopts := interp.Options{
		Fuel:       r.Fuel,
		WatchdogNs: r.WatchdogNs,
		Bugs:       r.Bugs,
		ProgArray:  r.ProgArray,
		Observe:    r.Observe,
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
// bracketing, exit audit — so the safety guarantees are identical to
// serial Run calls, and a trip mid-batch denies the rest of the batch
// exactly as it would deny fresh dispatches. What the batch amortizes is
// everything around the lifecycle (engine/report plumbing staying hot in
// cache, one allocation for all of the batch's reports). The caller owns
// every returned Report.
func (c *Core) RunBatch(eng Engine, cpu int, reqs []Request, reload Reload) []BatchResult {
	var slab batchSlab
	return c.runBatch(eng, cpu, reqs, reload, &slab)
}

// batchSlab is the storage a batch's reports and results are written
// into. RunBatch uses a fresh one per batch; a Sharded worker keeps one
// for its life, so a batch's results are valid only until the next batch
// on that shard (see Batch.Done).
type batchSlab struct {
	boxes []reportBox
	out   []BatchResult
}

// runBatch is RunBatch writing into slab, grown to the batch's size when
// it is short. Each box is reset before its dispatch, so a report never
// carries a field of an earlier batch's.
func (c *Core) runBatch(eng Engine, cpu int, reqs []Request, reload Reload, slab *batchSlab) []BatchResult {
	n := len(reqs)
	if cap(slab.boxes) < n {
		slab.boxes = make([]reportBox, n)
		slab.out = make([]BatchResult, n)
	}
	boxes, out := slab.boxes[:n], slab.out[:n]
	for i := range reqs {
		reqs[i].CPU = cpu
		boxes[i] = reportBox{}
		err := c.dispatch(eng, reqs[i], reload, &boxes[i])
		out[i] = BatchResult{Report: &boxes[i].Report, Err: err}
	}
	return out
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
