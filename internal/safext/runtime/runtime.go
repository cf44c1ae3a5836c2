// Package runtime is the kernel-side half of the safext framework
// (Figure 5): signature validation at load time, load-time fixup (map and
// rodata relocation), and the lightweight runtime mechanisms — fuel,
// watchdog timer, and safe termination with trusted cleanup — that replace
// the verifier's static guarantees for termination and resource release.
// Execution dispatches through the shared core in internal/exec, the same
// code path the verified-eBPF stack runs on.
package runtime

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/jit"
	"kex/internal/ebpf/maps"
	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/kernel/mm"
	"kex/internal/safext/compile"
	"kex/internal/safext/toolchain"
)

// ErrBadSignature rejects objects whose signature fails against every
// enrolled key.
var ErrBadSignature = errors.New("safext: signature validation failed")

// ErrUnvalidatedOptimizer rejects an OptMIR object whose translation-
// validation certificate is missing, unvalidated, or marks a demotion that
// the toolchain should have resolved by rebuilding at OptElide. The loader
// refuses to run optimizer output nothing vouched for.
var ErrUnvalidatedOptimizer = errors.New("safext: OptMIR object lacks a valid translation-validation certificate")

// Config tunes the runtime protections.
type Config struct {
	// Fuel bounds instructions per invocation; 0 disables (not
	// recommended — the watchdog is then the only net).
	Fuel uint64
	// WatchdogNs bounds virtual runtime per invocation.
	WatchdogNs int64
	// UseJIT selects the execution engine.
	UseJIT bool
	// UnwindRecords is the per-CPU capacity of the resource-record pool.
	UnwindRecords int
	// HeapChunkBytes and HeapChunks shape the per-CPU extension heap (§4
	// dynamic allocation): fixed-size chunks, pre-allocated.
	HeapChunkBytes int
	HeapChunks     int
}

// DefaultConfig mirrors sensible production settings: a 100ms watchdog
// (far below the 21s RCU stall threshold) and a generous fuel budget.
func DefaultConfig() Config {
	return Config{
		Fuel:           50_000_000,
		WatchdogNs:     100_000_000, // 100ms
		UseJIT:         true,
		UnwindRecords:  256,
		HeapChunkBytes: 256,
		HeapChunks:     64,
	}
}

// Runtime hosts safext extensions on one simulated kernel. It shares the
// execution core (registries, engines, exec.Stats) with the eBPF stack's
// architecture, layering signature validation and trusted cleanup on top.
type Runtime struct {
	*exec.Core
	Cfg Config

	keyring    []ed25519.PublicKey
	unwindPool *mm.PerCPUPool
	heapPool   *mm.PerCPUPool

	lmu   sync.Mutex
	locks map[uint64]*kernel.SpinLock

	stats runtimeStats

	sup *exec.Supervisor
}

// Stats counts the runtime's safety interventions. Snapshot it with
// Runtime.Stats; the shared core's execution counters live at Core.Stats.
type Stats struct {
	Loads          int
	SignatureFails int
	Invocations    int
	Traps          int
	WatchdogKills  int
	FuelKills      int
	PanicKills     int // runs that died by kernel panic (oops=panic)
	Quarantines    int // invocations denied at the supervisor gate
	CleanedSocks   int
	CleanedLocks   int
	// FuelElisions counts invocations that ran without per-instruction
	// fuel metering because the signed object carried a static instruction
	// bound under the configured budget — the toolchain's termination
	// proof, accepted on the strength of the signature.
	FuelElisions int
}

// runtimeStats is the lock-free backing store for Stats: shard workers
// increment plain atomics on the run path, so concurrent invocations from
// several simulated CPUs never queue on a stats lock.
type runtimeStats struct {
	loads, signatureFails, invocations, traps, watchdogKills, fuelKills,
	panicKills, quarantines, cleanedSocks, cleanedLocks, fuelElisions atomic.Int64
}

// Stats snapshots the runtime's intervention counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Loads:          int(rt.stats.loads.Load()),
		SignatureFails: int(rt.stats.signatureFails.Load()),
		Invocations:    int(rt.stats.invocations.Load()),
		Traps:          int(rt.stats.traps.Load()),
		WatchdogKills:  int(rt.stats.watchdogKills.Load()),
		FuelKills:      int(rt.stats.fuelKills.Load()),
		PanicKills:     int(rt.stats.panicKills.Load()),
		Quarantines:    int(rt.stats.quarantines.Load()),
		CleanedSocks:   int(rt.stats.cleanedSocks.Load()),
		CleanedLocks:   int(rt.stats.cleanedLocks.Load()),
		FuelElisions:   int(rt.stats.fuelElisions.Load()),
	}
}

// New boots a safext runtime: standard helpers plus the kernel crate, and
// the pre-allocated per-CPU unwind pool.
func New(k *kernel.Kernel, cfg Config) *Runtime {
	if cfg.UnwindRecords <= 0 {
		cfg.UnwindRecords = 256
	}
	if cfg.HeapChunkBytes <= 0 {
		cfg.HeapChunkBytes = 256
	}
	if cfg.HeapChunks <= 0 {
		cfg.HeapChunks = 64
	}
	reg := helpers.NewRegistry()
	registerCrate(reg)
	return &Runtime{
		Core:       exec.NewCore(k, reg, maps.NewRegistry()),
		Cfg:        cfg,
		unwindPool: mm.NewPerCPUPool(k, "safext_unwind", 16, cfg.UnwindRecords),
		heapPool:   mm.NewPerCPUPool(k, "safext_heap", cfg.HeapChunkBytes, cfg.HeapChunks),
		locks:      make(map[uint64]*kernel.SpinLock),
	}
}

// AddKey enrols a toolchain public key, the secure key bootstrap of §3.1.
func (rt *Runtime) AddKey(pub ed25519.PublicKey) {
	rt.keyring = append(rt.keyring, pub)
}

// Supervise wraps every subsequent Extension.Run in an exec.Supervisor:
// faulting extensions are quarantined with exponential backoff and must
// re-validate their signature before a recovery probe. It returns the
// supervisor for state inspection.
func (rt *Runtime) Supervise(cfg exec.SupervisorConfig) *exec.Supervisor {
	rt.sup = exec.NewSupervisor(rt.Core, cfg)
	return rt.sup
}

// Supervisor returns the runtime's supervisor, nil when unsupervised.
func (rt *Runtime) Supervisor() *exec.Supervisor { return rt.sup }

// lockAt returns the persistent spin lock guarding the given address.
// Cleanup runs on shard workers, so the table is mutex-guarded.
func (rt *Runtime) lockAt(addr uint64) *kernel.SpinLock {
	rt.lmu.Lock()
	defer rt.lmu.Unlock()
	if l, ok := rt.locks[addr]; ok {
		return l
	}
	l := rt.K.LockDep().NewLock(fmt.Sprintf("slx_lock@%#x", addr))
	rt.locks[addr] = l
	return l
}

// Extension is a loaded, relocated, ready-to-run safext program.
type Extension struct {
	Name string
	rt   *Runtime
	prog *isa.Program
	// so is the signed object this extension was installed from — what a
	// supervised recovery probe re-validates.
	so *toolchain.SignedObject

	engine exec.Engine

	rodata *kernel.Region
	maps   map[string]maps.Map

	// Capabilities as declared in the signed object.
	Capabilities []string

	// Checks is the signed object's check ledger: the dynamic checks the
	// program still carries, the checks the toolchain's analyzer proved
	// away, and the static instruction bound (0 = unbounded).
	Checks compile.CheckStats

	// TVal is the translation-validation certificate from the signed
	// object's TVAL section: proof metadata for OptMIR builds, a demotion
	// record (with the refutation) for builds the validator rejected, nil
	// for pre-validator or analyzer-only objects.
	TVal *compile.TValCert

	// Conc is the shard-safety report from the signed object's CONC
	// section: the per-map race verdicts the sharded data plane enforces
	// (exec.ConcMode). Nil for objects built before the analyzer.
	Conc *compile.ConcReport

	// LoadPhases times the Figure 5 pipeline for this extension: the
	// toolchain's parse/typecheck/compile/sign (when the signed object
	// carried them) plus the loader's validate and fixup.
	LoadPhases exec.PhaseTimings

	// coalesceFuel caches the fuel-coalescing decision at load time: the
	// static bound, the configured budget, and the comparison between them
	// are all invariants of the loaded extension, so deciding per Prepare
	// call only added hot-path work to the build the decision is supposed
	// to make faster. recordFuelElision is the stats recorder pre-bound to
	// this program's cell for the same reason.
	coalesceFuel      bool
	recordFuelElision func()
}

// Load validates and installs a signed object: signature check, structural
// check, map creation, rodata mapping, relocation, optional JIT. Note what
// is absent: no verifier.
func (rt *Runtime) Load(so *toolchain.SignedObject) (*Extension, error) {
	rt.stats.loads.Add(1)
	rec := exec.NewPhaseRecorder()
	valid := false
	for _, key := range rt.keyring {
		if so.Verify(key) {
			valid = true
			break
		}
	}
	if !valid {
		rt.stats.signatureFails.Add(1)
		return nil, ErrBadSignature
	}
	rec.Mark("validate")
	obj, err := toolchain.Deserialize(so.Payload)
	if err != nil {
		return nil, err
	}
	if obj.Opt.Level >= compile.OptMIR {
		if tv := obj.TVal; tv == nil || !tv.Validated || tv.Demoted {
			return nil, ErrUnvalidatedOptimizer
		}
	}
	ext, err := rt.install(obj)
	if err != nil {
		return nil, err
	}
	ext.so = so
	rec.Mark("fixup")
	ext.LoadPhases = append(append(exec.PhaseTimings(nil), so.Phases...), rec.Phases()...)
	rt.Core.Stats.RecordLoad(ext.Name, ext.LoadPhases)
	rt.Core.Stats.RecordChecks(ext.Name, uint64(ext.Checks.Emitted()), uint64(ext.Checks.Elided()))
	if tv := ext.TVal; tv != nil && tv.Demoted {
		rt.Core.Stats.RecordTVDemotion(ext.Name, tv.Reason)
	}
	if cc := ext.Conc; cc != nil {
		// Register the signed verdict with the execution core so the
		// sharded plane's submission gate can act on it. Hot-swap reloads
		// come back through here, so the registry tracks the live build.
		rt.Core.SetConc(ext.Name, cc.Racy(), cc.Reason)
	}
	return ext, nil
}

// install performs the load-time fixup on a deserialized object.
func (rt *Runtime) install(obj *compile.Object) (*Extension, error) {
	ext := &Extension{Name: obj.Name, rt: rt, Capabilities: obj.Capabilities, Checks: obj.Checks, TVal: obj.TVal, Conc: obj.Conc, maps: make(map[string]maps.Map)}
	if b := ext.Checks.StaticInsnBound; b > 0 && rt.Cfg.Fuel > 0 && uint64(b) <= rt.Cfg.Fuel {
		ext.coalesceFuel = true
		ext.recordFuelElision = rt.Core.Stats.FuelElisionRecorder(ext.Name)
	}

	for _, spec := range obj.Maps {
		mspec := maps.Spec{
			Name:       obj.Name + "." + spec.Name,
			KeySize:    spec.KeySize,
			ValueSize:  spec.ValSize,
			MaxEntries: int(spec.Entries),
			HasLock:    spec.Locked,
		}
		switch spec.Kind {
		case "hash":
			mspec.Type = maps.Hash
		case "array":
			mspec.Type = maps.Array
			mspec.KeySize = 4
		case "percpu":
			mspec.Type = maps.PerCPUArray
			mspec.KeySize = 4
		case "percpu_hash":
			mspec.Type = maps.PerCPUHash
		case "ringbuf":
			mspec.Type = maps.RingBuf
			mspec.MaxEntries = int(spec.Entries)
		default:
			return nil, fmt.Errorf("safext: unknown map kind %q", spec.Kind)
		}
		m, _, err := rt.Maps.Create(rt.K, mspec)
		if err != nil {
			return nil, err
		}
		ext.maps[spec.Name] = m
	}

	if len(obj.Rodata) > 0 {
		ext.rodata = rt.K.Mem.Map(len(obj.Rodata), kernel.ProtRead, "rodata:"+obj.Name)
		copy(ext.rodata.Data, obj.Rodata)
	}

	insns := append([]isa.Instruction(nil), obj.Insns...)
	for i := range insns {
		switch {
		case insns[i].IsMapRef() && insns[i].MapName != "":
			m, ok := ext.maps[insns[i].MapName]
			if !ok {
				return nil, fmt.Errorf("safext: relocation against undeclared map %q", insns[i].MapName)
			}
			h, _ := rt.Maps.Handle(m)
			insns[i].Const = int64(h)
			insns[i].MapName = ""
		case insns[i].IsRodataRef():
			if ext.rodata == nil {
				return nil, fmt.Errorf("safext: rodata relocation without rodata section")
			}
			insns[i].Const += int64(ext.rodata.Base)
		}
	}
	ext.prog = &isa.Program{Name: obj.Name, Type: isa.Tracing, Insns: insns}
	if err := ext.prog.ValidateStructure(); err != nil {
		return nil, err
	}
	if rt.Cfg.UseJIT {
		c, err := jit.Compile(ext.prog, jit.Config{})
		if err != nil {
			return nil, err
		}
		ext.engine = exec.JITEngine(rt.Machine, c)
	} else {
		ext.engine = exec.InterpEngine(rt.Machine, ext.prog)
	}
	return ext, nil
}

// Close releases the load-time resources the extension holds — today the
// mapped rodata region. Harnesses that load extensions in loops must call
// it; running a closed extension that needs rodata is invalid.
func (ext *Extension) Close() {
	if ext.rodata != nil {
		ext.rt.K.Mem.Unmap(ext.rodata)
		ext.rodata = nil
	}
}

// Map returns one of the extension's maps by declared name, for host-side
// inspection in examples and tests.
func (ext *Extension) Map(name string) maps.Map { return ext.maps[name] }

// Verdict describes one extension invocation under the safext runtime.
type Verdict struct {
	R0 int64
	// Completed is true when the program ran to its own exit.
	Completed bool
	// Terminated is true when a runtime mechanism stopped it.
	Terminated bool
	// Reason is "" on completion, else "trap", "watchdog", "fuel",
	// "crash", "panic" (the run died by kernel panic under oops=panic),
	// or "quarantined" (the supervisor denied the dispatch and served
	// the fallback).
	Reason string
	// TrapCode is set for trap terminations.
	TrapCode int64
	// CleanedSocks/CleanedLocks/CleanedMem count resources the trusted
	// cleanup path released after termination.
	CleanedSocks int
	CleanedLocks int
	CleanedMem   int

	Instructions uint64
	// RuntimeNs is virtual-clock latency (the watchdog's view); WallNs is
	// monotonic wall-clock latency (the benchmark's view).
	RuntimeNs int64
	WallNs    int64
	// HelperCalls counts crate calls by helper count slot, from the
	// shared core's instrumentation; HelperCalls.Get(name) reads one.
	HelperCalls helpers.Calls
	Trace       []string
}

// RunOptions tunes one invocation.
type RunOptions struct {
	CPU     int
	CtxAddr uint64
}

// Prepared is one assembled invocation: the execution-core request plus
// the verdict its completion hook fills. Batch submitters Prepare each
// invocation, run the Requests through RunBatch or a Sharded plane, then
// call Finish with each result to obtain the Verdict. A Prepared serves
// exactly one dispatch; it is one allocation, holding the run's resource
// log and its verdict, and the request reaches it through Request.Scratch
// with hooks that are plain functions, not per-invocation closures.
type Prepared struct {
	ext        *Extension
	req        exec.Request
	rs         runState
	verdict    Verdict
	ran        bool // the Finish hook filled verdict
	runtimeErr error
}

// Request returns the execution-core request for submission in an
// exec.Batch. Its hooks write back into this Prepared.
func (p *Prepared) Request() exec.Request { return p.req }

// Run invokes the extension under full runtime protection, dispatching
// through the shared execution core. It never returns an error for program
// misbehaviour — misbehaviour is terminated and reported in the Verdict;
// an error means the runtime itself failed.
func (ext *Extension) Run(opts RunOptions) (*Verdict, error) {
	p := ext.Prepare(opts)
	var rep *exec.Report
	var runErr error
	if ext.rt.sup != nil {
		rep, runErr = ext.rt.sup.Run(ext.engine, p.req, ext.revalidate)
	} else {
		rep, runErr = ext.rt.Core.Run(ext.engine, p.req)
	}
	return p.Finish(rep, runErr)
}

// Prepare assembles one invocation without dispatching it. The returned
// request's CPU is the one resource the caller may still override (the
// batched path pins it to the shard's CPU); everything else — fuel
// coalescing, the cleanup hook, the verdict plumbing — is fixed here.
func (ext *Extension) Prepare(opts RunOptions) *Prepared {
	rt := ext.rt
	rt.stats.invocations.Add(1)

	// Fuel coalescing: when the signed object proves a static instruction
	// bound that fits the budget, the per-instruction fuel meter collapses
	// into one comparison made at load time (ext.coalesceFuel). The
	// watchdog stays armed — the proof bounds instructions, defence in
	// depth covers everything else.
	fuel := rt.Cfg.Fuel
	if ext.coalesceFuel {
		fuel = 0
		rt.stats.fuelElisions.Add(1)
		ext.recordFuelElision()
	}

	p := &Prepared{ext: ext}
	p.rs = runState{rt: rt, ext: ext, cpu: opts.CPU}
	p.rs.records = p.rs.recBuf[:0]
	p.req = exec.Request{
		Program:    ext.Name,
		CPU:        opts.CPU,
		CtxAddr:    opts.CtxAddr,
		Fuel:       fuel,
		WatchdogNs: rt.Cfg.WatchdogNs,
		Scratch:    p,
		Setup:      setupRun,
		Finish:     finishRun,
	}
	return p
}

// setupRun is every safext request's Setup hook. The effective CPU is the
// context's, not the prepared one: the batched path re-pins requests to
// the shard's CPU, and the cleanup path must free into that CPU's pools.
func setupRun(env *helpers.Env) {
	env.Scratch.(*Prepared).rs.cpu = env.Ctx.CPUID
}

// finishRun is every safext request's Finish hook: it classifies the
// engine's outcome and runs the trusted cleanup.
func finishRun(env *helpers.Env, rep *exec.Report, engineErr error) {
	p := env.Scratch.(*Prepared)
	rt := p.ext.rt
	v := &p.verdict
	*v = Verdict{
		R0:           int64(rep.R0),
		Instructions: rep.Instructions,
		RuntimeNs:    rep.RuntimeNs,
		HelperCalls:  rep.HelperCalls,
		Trace:        rep.Trace,
	}
	switch {
	case engineErr == nil:
		v.Completed = true
	default:
		v.Terminated = true
		var kp kernel.KernelPanic
		var trap *TrapError
		switch {
		case errors.As(engineErr, &trap):
			v.Reason, v.TrapCode = "trap", trap.Code
			rt.stats.traps.Add(1)
		case errors.Is(engineErr, interp.ErrWatchdogExpired):
			v.Reason = "watchdog"
			rt.stats.watchdogKills.Add(1)
		case errors.Is(engineErr, interp.ErrFuelExhausted):
			v.Reason = "fuel"
			rt.stats.fuelKills.Add(1)
		case errors.Is(engineErr, helpers.ErrKernelCrash):
			// A crash here means trusted crate code faulted — the
			// language layer cannot produce one. Report it loudly.
			v.Reason = "crash"
		case errors.As(engineErr, &kp):
			// The kernel panicked out of the engine (oops=panic).
			// The damage is done, but the resource log must still
			// be drained — a held lock or socket ref surviving the
			// unwind would corrupt the next invocation too.
			v.Reason = "panic"
			rt.stats.panicKills.Add(1)
		default:
			// The runtime itself failed; skip cleanup and surface
			// the raw error to the caller.
			p.runtimeErr = engineErr
			return
		}
	}

	// Safe termination: run the trusted cleanup over the resource
	// log, still inside the RCU read-side section. On the
	// completed path the log holds at most unfreed heap
	// allocations; after a termination it releases everything the
	// program held. If a destructor itself oopses under
	// oops=panic, the core keeps the original error — cleanup
	// cannot mask the run's verdict.
	socks, locks, mem := rt.cleanup(env, &p.rs)
	v.CleanedSocks, v.CleanedLocks, v.CleanedMem = socks, locks, mem
	rt.stats.cleanedSocks.Add(int64(socks))
	rt.stats.cleanedLocks.Add(int64(locks))
	p.ran = true
}

// Finish converts one dispatch's result into the extension's verdict —
// the tail of Run, shared with the batched path. The verdict is part of
// the Prepared.
func (p *Prepared) Finish(rep *exec.Report, runErr error) (*Verdict, error) {
	rt := p.ext.rt
	if p.runtimeErr != nil {
		return nil, p.runtimeErr
	}
	if !p.ran {
		// The dispatch never reached the engine: the supervisor denied it
		// (quarantined or detached) or a recovery reload failed.
		rt.stats.quarantines.Add(1)
		if runErr != nil {
			return nil, runErr
		}
		return &Verdict{
			R0:         int64(rep.R0),
			Terminated: true,
			Reason:     "quarantined",
			WallNs:     rep.WallNs,
		}, nil
	}
	v := &p.verdict
	v.WallNs = rep.WallNs
	if len(rep.ExitOopses) > 0 {
		return nil, fmt.Errorf("safext: exit audit failed after cleanup: %v", rep.ExitOopses[0])
	}
	return v, nil
}

// BatchVerdict pairs one batched invocation's verdict with its error.
type BatchVerdict struct {
	Verdict *Verdict
	Err     error
}

// RunBatch invokes the extension once per option set, back-to-back and
// pinned to one simulated CPU, through the core's batched path (and the
// supervisor's gate when supervised). It is the unit of work a Sharded
// worker executes for the safext stack.
func (ext *Extension) RunBatch(cpu int, opts []RunOptions) []BatchVerdict {
	preps := make([]*Prepared, len(opts))
	reqs := make([]exec.Request, len(opts))
	for i := range opts {
		o := opts[i]
		o.CPU = cpu
		preps[i] = ext.Prepare(o)
		reqs[i] = preps[i].req
	}
	var results []exec.BatchResult
	if ext.rt.sup != nil {
		results = ext.rt.sup.RunBatch(ext.engine, cpu, reqs, ext.revalidate)
	} else {
		results = ext.rt.Core.RunBatch(ext.engine, cpu, reqs)
	}
	out := make([]BatchVerdict, len(results))
	for i, r := range results {
		v, err := preps[i].Finish(r.Report, r.Err)
		out[i] = BatchVerdict{Verdict: v, Err: err}
	}
	return out
}

// Engine exposes the extension's execution engine for direct submission
// to a Sharded plane; pair it with Prepare and Finish.
func (ext *Extension) Engine() exec.Engine { return ext.engine }

// Revalidate exposes the supervised recovery reload hook for batched
// submission (exec.Batch.Reload).
func (ext *Extension) Revalidate() exec.Reload { return ext.revalidate }

// NewSharded starts a per-CPU sharded data plane over the runtime's core,
// routed through its supervisor when one is installed. The caller owns
// the plane and must Close it.
func (rt *Runtime) NewSharded(cfg exec.ShardedConfig) *exec.Sharded {
	return exec.NewSharded(rt.Core, rt.sup, cfg)
}

// revalidate is the supervised recovery reload for the safext stack: the
// signed object must validate against the current keyring again before a
// probe runs — the load-time trust decision, re-taken.
func (ext *Extension) revalidate() error {
	for _, key := range ext.rt.keyring {
		if ext.so.Verify(key) {
			return nil
		}
	}
	ext.rt.stats.signatureFails.Add(1)
	return ErrBadSignature
}

// cleanup releases every resource still in the record log, newest first,
// using only trusted destructors — the §3.1 termination design. The record
// storage itself is pre-allocated pool memory, so cleanup cannot fail on
// allocation.
func (rt *Runtime) cleanup(env *helpers.Env, rs *runState) (socks, locks, mem int) {
	for i := len(rs.records) - 1; i >= 0; i-- {
		addr := rs.records[i]
		kind, _ := rt.K.Mem.LoadUint(addr, 8)
		payload, _ := rt.K.Mem.LoadUint(addr+8, 8)
		switch kind {
		case recSock:
			if s := rt.K.Sockets().ByAddr(payload); s != nil {
				env.Ctx.UntrackRef(s.Ref())
				s.Ref().Put()
				socks++
			}
		case recLock:
			l := rt.lockAt(payload)
			if rt.K.LockDep().Release(env.Ctx, l) {
				locks++
			}
		case recMem:
			rt.heapPool.On(rs.cpu).Free(payload)
			mem++
		}
		rt.unwindPool.On(rs.cpu).Free(addr)
	}
	rs.records = rs.records[:0]
	return socks, locks, mem
}
