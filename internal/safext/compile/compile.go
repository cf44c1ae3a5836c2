// Package compile translates checked SLX programs into the shared eBPF
// bytecode. It is the code-generation half of the paper's trusted
// toolchain: because the compiler is trusted, the output needs no in-kernel
// verification — safety is compiled in instead of checked after the fact:
//
//   - every array access carries a bounds check that branches to the trap
//     path (safe termination) instead of reading out of bounds;
//   - division and modulo check the divisor and trap rather than fault;
//   - shift amounts are masked to the operand width;
//   - scoped resources (sockets, sync lock sections) release on every exit
//     path — early return, break, continue, scope end — the RAII of §3.1;
//   - the only kernel interactions are calls into the typed kernel crate.
//
// Loops and program size are deliberately unconstrained: termination is
// enforced at runtime (fuel/watchdog), not by rejecting expressive code.
//
// There is one code generator. Every function lowers to the mid-level IR
// (package mir), is register-allocated onto R6–R9 and emitted by
// mir_emit.go. An optimization level picks two things only: whether the
// analyze package's elision pass runs over the fresh lowering (levels 1
// and 2) and whether the optimizer's passes run (level 2). Levels 0 and 1
// merely sweep the unreachable placeholder blocks lowering leaves behind.
package compile

import (
	"fmt"

	"kex/internal/ebpf/isa"
	"kex/internal/safext/analyze"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
)

// MapSpec is the object manifest entry for one declared map.
type MapSpec struct {
	Name    string
	Kind    string // hash, array, percpu, percpu_hash, ringbuf
	KeySize int
	ValSize int
	Entries int64
	// Locked marks maps used by sync sections; their values carry a lock
	// header.
	Locked bool
}

// Object is a compiled (not yet signed) extension.
type Object struct {
	Name   string
	Insns  []isa.Instruction
	Rodata []byte
	Maps   []MapSpec
	// Capabilities is the audited list of kernel-crate entry points the
	// program can reach.
	Capabilities []string
	// EntryPC is the element index of main (always 0 today).
	EntryPC int32
	// Checks tallies the safety instrumentation: how many check sites were
	// emitted and how many the elision pass or the optimizer discharged.
	// It is serialized into the object container and covered by the
	// toolchain signature, so the kernel side learns *what was proven*.
	Checks CheckStats
	// Opt records the optimization level the object was built at and what
	// the MIR pipeline did (all zero for level <2 builds). Serialized into
	// the container's OPTM section, under the signature.
	Opt OptStats
	// TVal is the translation-validation certificate (nil for builds the
	// validator never saw). Serialized into the container's TVAL section,
	// under the signature; the kernel-side loader refuses OptMIR objects
	// without a validated certificate.
	TVal *TValCert
	// Conc is the shard-safety report from the concheck analyzer (nil for
	// objects built before the analyzer existed). Serialized into the
	// container's CONC section, under the signature; a multi-shard data
	// plane in strict mode refuses Racy programs at submission.
	Conc *ConcReport
}

// Optimization levels: the elision pass × the optimizer's passes, over
// the one MIR backend.
const (
	// OptNaive compiles the fresh lowering with no pass: every check is
	// emitted.
	OptNaive = 0
	// OptElide runs the elision pass, so proven checks are elided and the
	// object carries a static instruction bound when one exists, and
	// runs no optimizer pass.
	OptElide = 1
	// OptMIR adds the optimizer's passes to OptElide: constant
	// folding/propagation, loop-invariant code motion, redundant-load
	// elimination and dead-code removal.
	OptMIR = 2
)

// Options configures code generation.
type Options struct {
	// Level is the optimization level, OptNaive to OptMIR; a level above
	// OptMIR compiles at OptMIR.
	Level int
	// Mark, when non-nil, is called with "analyze" once every function
	// is lowered and the elision pass is done (levels OptElide and up), so
	// a caller can time the pass apart from code generation.
	Mark func(phase string)
}

// OptStats summarizes one object's pipeline for the audit trail. Counter
// semantics match mir.Stats. At levels 0 and 1 only BlocksRemoved (the
// swept placeholders), Spills and RegAssigned can be non-zero.
type OptStats struct {
	Level           int
	Folded          int
	Hoisted         int
	LoadsEliminated int
	DeadRemoved     int
	BlocksRemoved   int
	Spills          int
	RegAssigned     int
}

func (o *OptStats) add(s mir.Stats) {
	o.Folded += s.Folded
	o.Hoisted += s.Hoisted
	o.LoadsEliminated += s.LoadsEliminated
	o.DeadRemoved += s.DeadRemoved
	o.BlocksRemoved += s.BlocksRemoved
	o.Spills += s.Spills
	o.RegAssigned += s.RegAssigned
}

// CheckStats is the per-object check ledger. Emitted counts the dynamic
// check sites compiled into the program; Elided counts sites discharged
// statically. The split makes "verifier vs. naive instrumentation vs.
// optimised instrumentation" a measurable three-way comparison.
type CheckStats struct {
	BoundsEmitted int
	BoundsElided  int
	DivEmitted    int
	DivElided     int
	MaskEmitted   int
	MaskElided    int
	// StaticInsnBound bounds the instructions one invocation retires (0 =
	// none; naive builds carry none), from the elision pass's loop trip
	// bounds and the emitted code. A loader whose fuel budget covers it
	// can coalesce per-instruction fuel metering into one comparison.
	StaticInsnBound int64
	// Elisions records every dropped check for audit.
	Elisions []Elision
}

// Elision is one statically discharged runtime check.
type Elision struct {
	Kind string // "bounds", "div", "shift-mask"
	Line int
}

// Emitted is the number of dynamic check sites remaining in the program.
func (cs CheckStats) Emitted() int { return cs.BoundsEmitted + cs.DivEmitted + cs.MaskEmitted }

// Elided is the number of check sites proven away.
func (cs CheckStats) Elided() int { return cs.BoundsElided + cs.DivElided + cs.MaskElided }

// Error is a compilation failure.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("slxc:%d: %s", e.Line, e.Msg) }

// Trap codes delivered to the runtime's safe-termination path.
const (
	TrapExplicit  = 1 // trap; statement
	TrapOOB       = 2 // array index out of bounds
	TrapDivByZero = 3 // division or modulo by zero
)

// frameLimit matches the bytecode stack frame size: a function's arrays
// plus its spill slots must fit.
const frameLimit = 512

// Compile lowers a checked program to bytecode with every runtime check
// emitted (the naive build).
func Compile(name string, checked *lang.Checked) (*Object, error) {
	obj, _, err := CompileWithOptions(name, checked, Options{})
	return obj, err
}

// CompileWithOptions lowers a checked program to bytecode at opts.Level:
// every function is lowered to MIR once, the elision pass discharges the
// checks it proves (OptElide and up), the optimizer's passes run at
// OptMIR, and each function is register-allocated and emitted. Besides
// the object it returns what each function's compilation produced, main
// first: the translation validator and the shard-safety analyzer read the
// fresh lowering there instead of lowering the program again.
func CompileWithOptions(name string, checked *lang.Checked, opts Options) (*Object, []MIRFuncArtifact, error) {
	level := min(max(opts.Level, OptNaive), OptMIR)
	c := &compiler{
		checked: checked,
		obj:     &Object{Name: name, Opt: OptStats{Level: level}},
		funcPCs: make(map[string]int32),
	}
	lockedMaps := map[string]bool{}
	collectSyncMaps(checked.File, lockedMaps)
	for _, m := range checked.File.Maps {
		spec := MapSpec{Name: m.Name, Kind: m.Kind, Entries: m.Entries, Locked: lockedMaps[m.Name]}
		if m.Kind != "ringbuf" {
			spec.KeySize = 8 // crate keys are 64-bit scalars
			spec.ValSize = 8
			if spec.Locked {
				spec.ValSize = 16 // lock header + value word
			}
		}
		c.obj.Maps = append(c.obj.Maps, spec)
	}
	c.obj.Capabilities = append([]string(nil), checked.CrateCalls...)

	// main is compiled first so the entry point is element 0.
	decls := []*lang.FuncDecl{checked.File.Func("main")}
	for _, fn := range checked.File.Funcs {
		if fn.Name != "main" {
			decls = append(decls, fn)
		}
	}
	funcs := make([]*mir.Func, len(decls))
	arts := make([]MIRFuncArtifact, len(decls))
	for i, fn := range decls {
		f, err := mir.LowerFunc(fn, checked)
		if err != nil {
			if le, ok := err.(*mir.Error); ok {
				return nil, nil, &Error{le.Line, le.Msg}
			}
			return nil, nil, err
		}
		funcs[i] = f
		arts[i] = MIRFuncArtifact{Name: fn.Name, Naive: f.Clone(), Opt: f}
	}
	var trips, ends [][]int64
	if level >= OptElide {
		types := make([]analyze.Types, len(decls))
		for i, fn := range decls {
			types[i] = analyze.TypesOf(checked, fn)
		}
		trips, ends, _ = analyze.Elide(funcs, types)
		if opts.Mark != nil {
			opts.Mark("analyze")
		}
	}
	costs := make(map[string]*analyze.Cost, len(decls))
	for i, fn := range decls {
		cost, err := c.compileFunc(fn, &arts[i])
		if err != nil {
			return nil, nil, err
		}
		if trips != nil {
			cost.Trips = trips[i]
			costs[fn.Name] = cost
			arts[i].Endpoints = ends[i]
		}
	}
	if trips != nil {
		c.obj.Checks.StaticInsnBound = analyze.StaticBound(costs, "main")
	}
	// Patch cross-function calls.
	for _, fix := range c.callFixes {
		target, ok := c.funcPCs[fix.name]
		if !ok {
			return nil, nil, &Error{0, "call to uncompiled function " + fix.name}
		}
		c.obj.Insns[fix.pc].Imm = target - int32(fix.pc) - 1
	}
	return c.obj, arts, nil
}

// collectSyncMaps marks maps guarded by sync sections.
func collectSyncMaps(f *lang.File, out map[string]bool) {
	var walk func(s lang.Stmt)
	walkBlock := func(b *lang.Block) {
		for _, s := range b.Stmts {
			walk(s)
		}
	}
	walk = func(s lang.Stmt) {
		switch s := s.(type) {
		case *lang.Block:
			walkBlock(s)
		case *lang.IfStmt:
			walkBlock(s.Then)
			if s.Else != nil {
				walk(s.Else)
			}
		case *lang.WhileStmt:
			walkBlock(s.Body)
		case *lang.ForStmt:
			walkBlock(s.Body)
		case *lang.SyncStmt:
			out[s.Map] = true
			walkBlock(s.Body)
		}
	}
	for _, fn := range f.Funcs {
		walkBlock(fn.Body)
	}
}

type callFix struct {
	pc   int
	name string
}

type compiler struct {
	checked   *lang.Checked
	obj       *Object
	funcPCs   map[string]int32
	callFixes []callFix
}

func (c *compiler) elide(kind string, line int) {
	c.obj.Checks.Elisions = append(c.obj.Checks.Elisions, Elision{Kind: kind, Line: line})
}

// rodata interns a string literal and returns (offset, length).
func (c *compiler) rodata(s string) (int64, int64) {
	off := int64(len(c.obj.Rodata))
	c.obj.Rodata = append(c.obj.Rodata, []byte(s)...)
	c.obj.Rodata = append(c.obj.Rodata, 0)
	return off, int64(len(s))
}
