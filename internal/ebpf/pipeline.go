// Package ebpf assembles the verified-extension pipeline of Figure 1: user
// programs arrive as bytecode, the in-kernel verifier vets them at load
// time, the JIT compiles them, and at runtime they interact with unsafe
// kernel code through helper functions. This package is the one downstream
// users touch; the pieces live in the sub-packages, and execution itself
// dispatches through the shared core in internal/exec.
package ebpf

import (
	"fmt"

	"kex/internal/analysis/concheck"
	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/jit"
	"kex/internal/ebpf/maps"
	"kex/internal/ebpf/verifier"
	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/safext/compile"
)

// Stack is one kernel's eBPF subsystem: the shared execution core (helper
// registry, map registry, engines, stats, supervision) plus verifier
// configuration. Core.Supervise puts the stack's programs under the
// circuit breaker; their recovery probe re-verifies the original program.
type Stack struct {
	*exec.Core

	// VerifierConfig is applied to every Load.
	VerifierConfig verifier.Config
	// UseJIT selects the execution engine (Figure 1 shows the JIT path).
	UseJIT bool
	// JITConfig carries the backend bug toggles.
	JITConfig jit.Config
	// Conc, when not ConcOff, runs the shard-safety analyzer over every
	// Load (reusing the verifier's per-call facts for map and key
	// provenance) and sets the verdict on the program's record, so a
	// Sharded plane built with the same mode can enforce it. The eBPF
	// stack has no signed object to carry the report, so here the analysis
	// happens at load time — the verdict is still load-time static, never
	// a runtime check.
	Conc exec.ConcMode

	mapMeta  map[string]*verifier.MapMeta
	mapKinds map[string]string
}

// NewStack boots an eBPF subsystem on the kernel.
func NewStack(k *kernel.Kernel) *Stack {
	return &Stack{
		Core:           exec.NewCore(k, helpers.NewRegistry(), maps.NewRegistry()),
		VerifierConfig: verifier.DefaultConfig(),
		UseJIT:         true,
		mapMeta:        make(map[string]*verifier.MapMeta),
		mapKinds:       make(map[string]string),
	}
}

// CreateMap creates and registers a map, making it referenceable from
// programs by name.
func (s *Stack) CreateMap(spec maps.Spec) (maps.Map, error) {
	m, _, err := s.Maps.Create(s.K, spec)
	if err != nil {
		return nil, err
	}
	s.mapMeta[spec.Name] = &verifier.MapMeta{
		Name:      spec.Name,
		KeySize:   m.Spec().KeySize,
		ValueSize: m.Spec().ValueSize,
		HasLock:   spec.HasLock,
	}
	s.mapKinds[spec.Name] = m.Spec().Type.String()
	return m, nil
}

// Loaded is a program that passed verification and load-time fixup.
type Loaded struct {
	Prog    *isa.Program
	Verdict *verifier.Result
	// LoadPhases times the Figure 1 load pipeline: verify, relocate, and
	// (on the JIT path) jit-compile.
	LoadPhases exec.PhaseTimings
	// Conc is the load-time shard-safety report, present when the stack
	// was built with Conc enforcement enabled.
	Conc *compile.ConcReport

	stack  *Stack
	engine exec.Engine
	// rec is the program's record on the core, resolved at load and set on
	// every request.
	rec *exec.Program
	// orig is the pre-relocation program as the user submitted it — what
	// a supervised recovery probe re-verifies (the relocated image has
	// its map names resolved away and would not re-verify).
	orig *isa.Program
	// ProgArray holds tail-call targets.
	ProgArray []*isa.Program

	// defaultCtx backs invocations that supply no context address. The
	// verifier's acceptance assumes R1 points at a live context object —
	// a guarantee the attach point provides on a real kernel — so the
	// harness must never run a verified program against address zero.
	defaultCtx *kernel.Region
}

// Load runs the Figure 1 loading pipeline: verify, relocate, JIT-compile.
// Programs that fail verification never reach the kernel proper.
func (s *Stack) Load(prog *isa.Program) (*Loaded, error) {
	rec := exec.NewPhaseRecorder()
	res, err := verifier.Verify(prog, s.Helpers, s.mapMeta, s.VerifierConfig)
	if err != nil {
		return nil, fmt.Errorf("ebpf: load of %q rejected: %w", prog.Name, err)
	}
	rec.Mark("verify")
	var cc *compile.ConcReport
	if s.Conc != exec.ConcOff {
		cc, err = concheck.AnalyzeBPF(prog, s.Helpers, s.mapMeta, s.mapKinds, res.Facts)
		if err != nil {
			return nil, fmt.Errorf("ebpf: shard-safety analysis of %q: %w", prog.Name, err)
		}
		rec.Mark("concheck")
	}
	insns := append([]isa.Instruction(nil), prog.Insns...)
	if err := interp.Relocate(insns, s.Maps); err != nil {
		return nil, err
	}
	rec.Mark("relocate")
	fixed := &isa.Program{Name: prog.Name, Type: prog.Type, License: prog.License, Insns: insns}
	l := &Loaded{Prog: fixed, Verdict: res, Conc: cc, stack: s, orig: prog, rec: s.Core.Program(prog.Name)}
	if cc != nil {
		s.Core.SetConc(l.rec, cc.Racy(), cc.Reason)
	}
	l.defaultCtx = s.K.Mem.Map(64, kernel.ProtRW, "bpf_ctx:"+prog.Name)
	l.engine, err = exec.NewEngine(s.Machine, fixed, s.UseJIT, s.JITConfig)
	if err != nil {
		s.K.Mem.Unmap(l.defaultCtx)
		return nil, fmt.Errorf("ebpf: JIT of %q failed: %w", prog.Name, err)
	}
	if s.UseJIT {
		rec.Mark("jit-compile")
	}
	l.LoadPhases = rec.Phases()
	s.Core.Stats.RecordLoad(l.LoadPhases)
	return l, nil
}

// Close releases the load-time resources the program holds — today the
// default-context region every Load maps. Tests and experiments that load
// programs in loops must call it to keep the simulated address space flat.
// Running a closed program remains valid: a missing default context is
// re-mapped on demand.
func (l *Loaded) Close() {
	if l.defaultCtx != nil {
		l.stack.K.Mem.Unmap(l.defaultCtx)
		l.defaultCtx = nil
	}
}

// RunReport describes one program invocation. It is the shared core's
// report: alongside the original fields (R0, Instructions, the
// virtual-clock RuntimeNs, Trace, ExitOopses) it carries wall-clock
// latency, per-helper call counts, map-operation counts and fuel usage.
type RunReport = exec.Report

// RunOptions tunes one invocation.
type RunOptions struct {
	CPU     int
	CtxAddr uint64
	Bugs    helpers.BugConfig
	// Fuel is zero for the verified stack: the verifier is trusted for
	// termination. The safext runtime sets it.
	Fuel uint64
	// Observe is the per-instruction concrete-trace hook (statecheck's
	// oracle input). Interpreter-only: build the stack with UseJIT=false
	// to observe.
	Observe interp.Observer
}

// Run invokes the program once on the given CPU through the shared
// execution core (and its supervisor's gate when the stack is
// supervised). The returned error reports abnormal termination (kernel
// crash, fuel exhaustion); kernel damage is also visible in the report's
// ExitOopses and on the kernel.
func (l *Loaded) Run(opts RunOptions) (*RunReport, error) {
	return l.stack.Core.Run(l.engine, l.Request(opts), l.reverify)
}

// RunBatch invokes the program once per option set, back-to-back and
// pinned to one simulated CPU, through the core's batched path. It is the
// unit of work a Sharded worker executes.
func (l *Loaded) RunBatch(cpu int, opts []RunOptions) []exec.BatchResult {
	reqs := make([]exec.Request, len(opts))
	for i := range opts {
		reqs[i] = l.Request(opts[i])
	}
	return l.stack.Core.RunBatch(l.engine, cpu, reqs, l.reverify)
}

// Request builds the execution-core request for one invocation, resolving
// the default context exactly as Run does. Use it to assemble exec.Batch
// values for submission to a Sharded data plane.
func (l *Loaded) Request(opts RunOptions) exec.Request {
	ctxAddr := opts.CtxAddr
	if ctxAddr == 0 {
		if l.defaultCtx == nil {
			l.defaultCtx = l.stack.K.Mem.Map(64, kernel.ProtRW, "bpf_ctx:"+l.Prog.Name)
		}
		ctxAddr = l.defaultCtx.Base
	}
	return exec.Request{
		Program:   l.rec,
		CPU:       opts.CPU,
		CtxAddr:   ctxAddr,
		Fuel:      opts.Fuel,
		Bugs:      opts.Bugs,
		ProgArray: l.ProgArray,
		Observe:   opts.Observe,
	}
}

// Engine exposes the program's execution engine so callers can submit
// exec.Batch values directly to a Sharded plane.
func (l *Loaded) Engine() exec.Engine { return l.engine }

// Reverify exposes the supervised recovery reload hook for batched
// submission (exec.Batch.Reload).
func (l *Loaded) Reverify() exec.Reload { return l.reverify }

// reverify is the supervised recovery reload for the verified stack: the
// original program must pass the verifier again before a probe runs. Only
// the verdict is wanted, so the probe neither captures states nor logs.
func (l *Loaded) reverify() error {
	cfg := l.stack.VerifierConfig
	cfg.CaptureState, cfg.LogState = false, false
	_, err := verifier.Verify(l.orig, l.stack.Helpers, l.stack.mapMeta, cfg)
	return err
}
