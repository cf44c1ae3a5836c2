// Package interp executes eBPF bytecode against the simulated kernel.
//
// Crucially, the interpreter performs no safety checking of its own: like
// the kernel's ___bpf_prog_run, it trusts the verifier completely. A memory
// access the verifier wrongly admitted — or one performed by an unverified
// helper — faults the simulated kernel. This asymmetry (static trust,
// no runtime net) is exactly the architecture §2 of the paper critiques.
//
// The package also holds the run state both engines execute on (State):
// the interpreter and the JIT supply only their Code.
package interp

import (
	"errors"
	"fmt"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
)

// Errors returned by program execution.
var (
	// ErrFuelExhausted reports that the optional fuel meter ran out. The
	// verified-eBPF stack runs without fuel; the safext runtime sets it.
	ErrFuelExhausted = errors.New("interp: fuel exhausted")
	// ErrTailCallLimit reports more than 33 chained tail calls.
	ErrTailCallLimit = errors.New("interp: tail call limit reached")
	// ErrCallDepth reports BPF-to-BPF nesting beyond 8 frames.
	ErrCallDepth = errors.New("interp: call stack exhausted")
)

// Observer receives the concrete machine state entering each instruction:
// the instruction's element index, the register file of the current
// activation (R10 is the frame pointer of that activation), and the
// BPF-to-BPF call depth (callbacks invoked by helpers observe at depth 1).
// The registers must be treated as read-only — an observer is a probe, not
// an instrumentation pass. The hook costs one nil check per retired
// instruction when unset.
type Observer func(pc int, regs *[11]uint64, depth int)

// Options tunes one program execution.
type Options struct {
	// Fuel, when non-zero, bounds retired instructions. Zero means trust
	// the verifier and run without a runtime net.
	Fuel uint64
	// WatchdogNs, when non-zero, bounds the program's virtual runtime —
	// the safext watchdog timer. Helper work counts, unlike Fuel which
	// only counts the program's own instructions.
	WatchdogNs int64
	// Bugs selects which reintroduced helper bugs are live.
	Bugs helpers.BugConfig
	// ProgArray is the tail-call program array, if any.
	ProgArray []*isa.Program
	// Observe, when non-nil, is called before every instruction retires —
	// the statecheck soundness oracle's concrete-trace hook. A tail call
	// disarms it: the observed pcs would index a different program. The
	// JIT engine does not support observation and ignores it.
	Observe Observer
	// State, when non-nil, is the run state to execute on, which keeps its
	// register files and stack frames across runs: the execution core's
	// run frame owns one. Nil runs on a new state, released as it ends.
	State *State
}

// ErrWatchdogExpired reports that the watchdog timer fired and the program
// was terminated.
var ErrWatchdogExpired = errors.New("interp: watchdog expired")

// Machine executes programs on one simulated kernel.
type Machine struct {
	K       *kernel.Kernel
	Helpers *helpers.Registry
	Maps    *maps.Registry
}

// NewMachine builds an execution engine.
func NewMachine(k *kernel.Kernel, reg *helpers.Registry, mapsReg *maps.Registry) *Machine {
	return &Machine{K: k, Helpers: reg, Maps: mapsReg}
}

// Relocate resolves symbolic map references to registered map handles,
// the load-time fixup step of both loading pipelines.
func Relocate(insns []isa.Instruction, reg *maps.Registry) error {
	for i := range insns {
		if insns[i].IsMapRef() && insns[i].MapName != "" {
			m, ok := reg.ByName(insns[i].MapName)
			if !ok {
				return fmt.Errorf("interp: relocation: unknown map %q", insns[i].MapName)
			}
			h, _ := reg.Handle(m)
			insns[i].Const = int64(h)
			insns[i].MapName = ""
		}
	}
	return nil
}

// Run executes the program in the given helper environment and returns R0
// (see RunCode).
func (m *Machine) Run(prog *isa.Program, env *helpers.Env, opts Options) (uint64, error) {
	return m.RunCode(Interpreted(prog), env, opts)
}

// Interpreted returns the interpreter's Code for prog.
func Interpreted(prog *isa.Program) Code { return (*program)(prog) }

// program is the interpreter's Code: it decodes each instruction as it
// runs it.
type program isa.Program

// Tail returns the target itself: the interpreter needs no translation.
func (p *program) Tail(target *isa.Program) (Code, error) { return (*program)(target), nil }

// Exec interprets one function activation starting at pc.
func (p *program) Exec(s *State, pc int, regs *[11]uint64) (uint64, error) {
	insns := p.Insns
	ctx := s.Ctx()
	for {
		if pc < 0 || pc >= len(insns) {
			return 0, fmt.Errorf("interp: pc %d out of range", pc)
		}
		ins := insns[pc]
		if s.obs != nil {
			s.obs(pc, regs, s.depth)
		}
		if err := s.Retire(); err != nil {
			return 0, err
		}

		switch ins.Class() {
		case isa.ClassALU64:
			v, ok := EvalALU(ins.ALUOp(), regs[ins.Dst], src(ins, regs), true)
			if !ok {
				return 0, fmt.Errorf("interp: pc %d: bad shift", pc)
			}
			regs[ins.Dst] = v
			pc++

		case isa.ClassALU:
			v, ok := EvalALU(ins.ALUOp(), regs[ins.Dst], src(ins, regs), false)
			if !ok {
				return 0, fmt.Errorf("interp: pc %d: bad shift", pc)
			}
			regs[ins.Dst] = uint64(uint32(v))
			pc++

		case isa.ClassLD:
			regs[ins.Dst] = uint64(ins.Const)
			pc++

		case isa.ClassLDX:
			size := isa.SizeBytes(ins.Size())
			v, f := ctx.LoadUint(regs[ins.Src]+uint64(int64(ins.Off)), size)
			if f != nil {
				return 0, s.Crash(f)
			}
			regs[ins.Dst] = v
			pc++

		case isa.ClassST:
			size := isa.SizeBytes(ins.Size())
			if f := ctx.StoreUint(regs[ins.Dst]+uint64(int64(ins.Off)), size, uint64(int64(ins.Imm))); f != nil {
				return 0, s.Crash(f)
			}
			pc++

		case isa.ClassSTX:
			size := isa.SizeBytes(ins.Size())
			addr := regs[ins.Dst] + uint64(int64(ins.Off))
			if ins.Mode() == isa.ModeATOMIC {
				if err := s.Atomic(ins.Imm, addr, size, regs, ins.Src); err != nil {
					return 0, err
				}
			} else if f := ctx.StoreUint(addr, size, regs[ins.Src]); f != nil {
				return 0, s.Crash(f)
			}
			pc++

		case isa.ClassJMP, isa.ClassJMP32:
			switch {
			case ins.IsExit():
				return regs[0], nil
			case ins.IsCall():
				tail, err := s.CallHelper(ins.Imm, regs)
				if err != nil || tail {
					return 0, err
				}
				pc++
			case ins.IsBPFCall():
				if err := s.Call(pc+1+int(ins.Imm), regs); err != nil {
					return 0, err
				}
				pc++
			case ins.IsUnconditionalJump():
				pc += 1 + int(ins.Off)
			default:
				if EvalJump(ins, regs[ins.Dst], src(ins, regs)) {
					pc += 1 + int(ins.Off)
				} else {
					pc++
				}
			}
		default:
			return 0, fmt.Errorf("interp: pc %d: unknown class %#x", pc, ins.Class())
		}
	}
}

// src returns the second operand value.
func src(ins isa.Instruction, regs *[11]uint64) uint64 {
	if ins.UsesX() {
		return regs[ins.Src]
	}
	return uint64(int64(ins.Imm))
}

// EvalALU evaluates one ALU operation. ok is false for oversized shifts.
// It is exported for reuse by the JIT.
func EvalALU(op uint8, dst, src uint64, is64 bool) (uint64, bool) {
	width := uint64(64)
	if !is64 {
		width = 32
		dst, src = uint64(uint32(dst)), uint64(uint32(src))
	}
	switch op {
	case isa.OpAdd:
		return dst + src, true
	case isa.OpSub:
		return dst - src, true
	case isa.OpMul:
		return dst * src, true
	case isa.OpDiv:
		if src == 0 {
			return 0, true
		}
		return dst / src, true
	case isa.OpMod:
		if src == 0 {
			return dst, true
		}
		return dst % src, true
	case isa.OpOr:
		return dst | src, true
	case isa.OpAnd:
		return dst & src, true
	case isa.OpXor:
		return dst ^ src, true
	case isa.OpMov:
		return src, true
	case isa.OpLsh:
		// Shift amounts are taken modulo the width, the modern eBPF
		// semantics (dst <<= src & (width-1)).
		return dst << (src & (width - 1)), true
	case isa.OpRsh:
		return dst >> (src & (width - 1)), true
	case isa.OpArsh:
		src &= width - 1
		if !is64 {
			return uint64(uint32(int32(uint32(dst)) >> src)), true
		}
		return uint64(int64(dst) >> src), true
	case isa.OpNeg:
		return -dst, true
	case isa.OpEnd:
		return dst, true
	}
	return 0, false
}

// EvalJump evaluates a conditional jump. It is exported for reuse by the JIT.
func EvalJump(ins isa.Instruction, dst, src uint64) bool {
	if ins.Class() == isa.ClassJMP32 {
		dst, src = uint64(uint32(dst)), uint64(uint32(src))
		switch ins.ALUOp() {
		case isa.OpJsgt:
			return int32(dst) > int32(src)
		case isa.OpJsge:
			return int32(dst) >= int32(src)
		case isa.OpJslt:
			return int32(dst) < int32(src)
		case isa.OpJsle:
			return int32(dst) <= int32(src)
		}
	}
	switch ins.ALUOp() {
	case isa.OpJeq:
		return dst == src
	case isa.OpJne:
		return dst != src
	case isa.OpJgt:
		return dst > src
	case isa.OpJge:
		return dst >= src
	case isa.OpJlt:
		return dst < src
	case isa.OpJle:
		return dst <= src
	case isa.OpJset:
		return dst&src != 0
	case isa.OpJsgt:
		return int64(dst) > int64(src)
	case isa.OpJsge:
		return int64(dst) >= int64(src)
	case isa.OpJslt:
		return int64(dst) < int64(src)
	case isa.OpJsle:
		return int64(dst) <= int64(src)
	}
	return false
}
