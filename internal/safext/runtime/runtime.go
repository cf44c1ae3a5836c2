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
// execution core (registries, engines, exec.Stats, supervision) with the
// eBPF stack's architecture, layering signature validation and trusted
// cleanup on top. Core.Supervise puts the runtime's extensions under the
// circuit breaker; their recovery probe re-validates the signature.
type Runtime struct {
	*exec.Core
	Cfg Config

	keyring    []ed25519.PublicKey
	unwindPool *mm.PerCPUPool
	heapPool   *mm.PerCPUPool

	lmu   sync.Mutex
	locks map[uint64]*kernel.SpinLock

	stats runtimeStats
}

// Stats is a snapshot (Runtime.Stats) of the runtime's safety
// interventions. Execution counters (invocations, fuel elisions, denials)
// are the shared core's (Core.Stats); a run's cleanup is in its Verdict.
type Stats struct {
	SignatureFails int
	Traps          int
	WatchdogKills  int
	FuelKills      int
	PanicKills     int // runs that died by kernel panic (oops=panic)
}

// runtimeStats is the lock-free backing store for Stats, written only when
// an intervention happens: a healthy run touches none of it.
type runtimeStats struct {
	signatureFails, traps, watchdogKills, fuelKills, panicKills atomic.Int64
}

// Stats snapshots the runtime's intervention counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		SignatureFails: int(rt.stats.signatureFails.Load()),
		Traps:          int(rt.stats.traps.Load()),
		WatchdogKills:  int(rt.stats.watchdogKills.Load()),
		FuelKills:      int(rt.stats.fuelKills.Load()),
		PanicKills:     int(rt.stats.panicKills.Load()),
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
	// to make faster. rec is the program's record on the core, resolved at
	// load for the same reason: every request carries it.
	coalesceFuel bool
	rec          *exec.Program
}

// preparedPool recycles Prepared invocations: Finish puts one back and
// Prepare, for any extension, takes it up. A Prepared owns no mapped
// memory (the trusted cleanup frees its unwind records before Finish), so
// one the pool drops costs only the garbage collector. The pool is the
// package's, not an extension's: a pool registers itself with the Go
// runtime, which would keep an unloaded extension, and through it its
// whole kernel, alive for two more collections. For the same reason
// Finish clears the two pointers through which a pooled Prepared reaches
// its runtime.
var preparedPool sync.Pool

// Load validates and installs a signed object: signature check, structural
// check, map creation, rodata mapping, relocation, optional JIT. Note what
// is absent: no verifier.
func (rt *Runtime) Load(so *toolchain.SignedObject) (*Extension, error) {
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
	rt.Core.Stats.RecordLoad(ext.LoadPhases)
	ext.RecordLoad(ext.rec)
	return ext, nil
}

// RecordLoad puts the extension's load-time accounting on a program
// record: its dynamic and elided check counts, a translation-validation
// demotion with its reason, and its signed CONC verdict, which the sharded
// plane's submission gate acts on. Load records it on the record of the
// extension's name, and hot-swap reloads come back through Load, so that
// record tracks the live build; a deployer that runs the extension under a
// record of its own (a fleet version's name@digest) records it there too.
func (ext *Extension) RecordLoad(rec *exec.Program) {
	rec.RecordChecks(uint64(ext.Checks.Emitted()), uint64(ext.Checks.Elided()))
	if tv := ext.TVal; tv != nil && tv.Demoted {
		rec.RecordTVDemotion(tv.Reason)
	}
	if cc := ext.Conc; cc != nil {
		ext.rt.Core.SetConc(rec, cc.Racy(), cc.Reason)
	}
}

// install performs the load-time fixup on a deserialized object.
func (rt *Runtime) install(obj *compile.Object) (*Extension, error) {
	ext := &Extension{Name: obj.Name, rt: rt, Capabilities: obj.Capabilities, Checks: obj.Checks, TVal: obj.TVal, Conc: obj.Conc, maps: make(map[string]maps.Map)}
	ext.rec = rt.Core.Program(ext.Name)
	if b := ext.Checks.StaticInsnBound; b > 0 && rt.Cfg.Fuel > 0 && uint64(b) <= rt.Cfg.Fuel {
		ext.coalesceFuel = true
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
	engine, err := exec.NewEngine(rt.Machine, ext.prog, rt.Cfg.UseJIT, jit.Config{})
	if err != nil {
		return nil, err
	}
	ext.engine = engine
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

	// Instructions is the run's virtual work: the program's retired
	// instructions plus what its helpers charged.
	Instructions uint64
	// FuelUsed counts only the program's own retired instructions, the
	// quantity the object's static instruction bound covers.
	FuelUsed uint64
	// RuntimeNs is virtual-clock latency (the watchdog's view); WallNs is
	// monotonic wall-clock latency (the benchmark's view).
	RuntimeNs int64
	WallNs    int64
	Trace     []string
}

// RunOptions tunes one invocation.
type RunOptions struct {
	CPU     int
	CtxAddr uint64
}

// Prepared is one assembled invocation: what its execution-core request
// carries, the run's resource log and the verdict its completion hook
// fills. Batch submitters Prepare each invocation, run the Requests
// through Core.RunBatch or a Sharded plane, then call Finish with each
// result to obtain the Verdict. A Prepared serves exactly one dispatch
// and belongs to the runtime again once Finish returns: it is recycled
// for a later Prepare, so neither the Prepared nor its Request may be
// used after Finish. Finish returns the verdict as a value, which shares
// no storage with the recycled object. The request reaches the Prepared
// through Request.Scratch with hooks that are plain functions, not
// per-invocation closures, so a warm invocation allocates nothing.
type Prepared struct {
	ext        *Extension // nil once Finish has given the Prepared back
	ctxAddr    uint64
	rs         runState
	verdict    Verdict
	ran        bool // the Finish hook filled verdict
	runtimeErr error
}

// Request returns the execution-core request for submission in an
// exec.Batch. Its hooks write back into this Prepared. Its CPU is the one
// resource the caller may still override (the batched path pins it to the
// shard's CPU); everything else is fixed by the extension.
func (p *Prepared) Request() exec.Request {
	ext := p.ext
	// Fuel coalescing: when the signed object proves a static instruction
	// bound that fits the budget, the per-instruction fuel meter collapses
	// into one comparison made at load time (ext.coalesceFuel). The
	// watchdog stays armed — the proof bounds instructions, defence in
	// depth covers everything else.
	fuel := ext.rt.Cfg.Fuel
	if ext.coalesceFuel {
		fuel = 0
	}
	return exec.Request{
		Program:    ext.rec,
		CPU:        p.rs.cpu,
		CtxAddr:    p.ctxAddr,
		Fuel:       fuel,
		WatchdogNs: ext.rt.Cfg.WatchdogNs,
		FuelElided: ext.coalesceFuel,
		Scratch:    p,
		Setup:      setupRun,
		Finish:     finishRun,
	}
}

// Run invokes the extension under full runtime protection, dispatching
// through the shared execution core (and its supervisor's gate when the
// runtime is supervised). It never returns an error for program
// misbehaviour — misbehaviour is terminated and reported in the Verdict;
// an error means the runtime itself failed.
func (ext *Extension) Run(opts RunOptions) (*Verdict, error) {
	p := ext.Prepare(opts)
	v, err := p.Finish(ext.rt.Core.Run(ext.engine, p.Request(), ext.revalidate))
	if err != nil {
		return nil, err
	}
	return &v, nil
}

// Prepare assembles one invocation without dispatching it, on a Prepared
// recycled from an earlier Finish when the pool holds one. Prepare resets
// every field the run and Finish read before they write it (the finish
// hook writes the verdict whole), on the submitting goroutine, so Finish
// on the shard worker only hands the object back.
func (ext *Extension) Prepare(opts RunOptions) *Prepared {
	p, _ := preparedPool.Get().(*Prepared)
	if p == nil {
		p = new(Prepared)
	}
	p.ext, p.ctxAddr, p.ran, p.runtimeErr = ext, opts.CtxAddr, false, nil
	p.rs.rt, p.rs.cpu = ext.rt, opts.CPU
	p.rs.records = p.rs.recBuf[:0]
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
		FuelUsed:     rep.FuelUsed,
		RuntimeNs:    rep.RuntimeNs,
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
	p.ran = true
}

// Finish converts one dispatch's result into the extension's verdict —
// the tail of Run, shared with the batched path — and gives the Prepared
// back for a later Prepare. Finishing a Prepared twice is a caller bug and
// panics.
func (p *Prepared) Finish(rep *exec.Report, runErr error) (v Verdict, err error) {
	if p.ext == nil {
		panic("safext: Finish on a finished Prepared")
	}
	switch {
	case p.runtimeErr != nil:
		err = p.runtimeErr
	case !p.ran && runErr != nil:
		// The dispatch never reached the engine: a recovery reload failed.
		err = runErr
	case !p.ran:
		// The supervisor denied the dispatch (quarantined).
		v = Verdict{R0: int64(rep.R0), Terminated: true, Reason: "quarantined", WallNs: rep.WallNs}
	case len(rep.ExitOopses) > 0:
		err = fmt.Errorf("safext: exit audit failed after cleanup: %v", rep.ExitOopses[0])
	default:
		v = p.verdict
		v.WallNs = rep.WallNs
	}
	p.ext, p.rs.rt = nil, nil
	preparedPool.Put(p)
	return v, err
}

// Engine exposes the extension's execution engine for direct submission
// to a Sharded plane; pair it with Prepare and Finish.
func (ext *Extension) Engine() exec.Engine { return ext.engine }

// Revalidate exposes the supervised recovery reload hook for batched
// submission (exec.Batch.Reload).
func (ext *Extension) Revalidate() exec.Reload { return ext.revalidate }

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
		kind, _ := env.Ctx.LoadUint(addr, 8)
		payload, _ := env.Ctx.LoadUint(addr+8, 8)
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
