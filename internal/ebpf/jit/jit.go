// Package jit compiles eBPF bytecode to threaded Go closures — the
// simulator's analogue of the kernel's JIT compilers. Compilation happens
// once; execution dispatches through a flat slice of operation closures
// with no per-instruction decode, which is measurably faster than the
// interpreter (ablation A2/A3).
//
// Like the real JIT, this one sits *behind* the verifier and is itself
// unverified: Config.InjectBranchBug reintroduces a CVE-2021-29154-class
// miscompilation (a branch condition compiled off by one), demonstrating
// that a flawless verifier still cannot save a flawed backend (§2.1).
package jit

import (
	"fmt"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
)

// Config controls compilation.
type Config struct {
	// InjectBranchBug miscompiles JGE comparisons as JGT (and JLE as JLT),
	// an off-by-one in branch synthesis: the class of backend bug that
	// CVE-2021-29154 exploited to hijack control flow from verified code.
	InjectBranchBug bool
}

// Compiled is a JIT-compiled program ready to run on a machine.
type Compiled struct {
	Prog *isa.Program
	ops  []op
	cfg  Config
}

// regs is the runtime register file.
type regs = [isa.NumRegisters]uint64

// op executes one compiled instruction on the run state and the register
// file and returns the next pc, or -1 to stop the activation: at its exit,
// at a tail call, or on an error it left in s.Err.
type op func(s *interp.State, r *regs, pc int) int

// Compile translates a program into threaded closures.
func Compile(prog *isa.Program, cfg Config) (*Compiled, error) {
	if err := prog.ValidateStructure(); err != nil {
		return nil, err
	}
	c := &Compiled{Prog: prog, cfg: cfg}
	for i, ins := range prog.Insns {
		compiled, err := c.compileInsn(i, ins)
		if err != nil {
			return nil, err
		}
		c.ops = append(c.ops, compiled)
	}
	return c, nil
}

func (c *Compiled) compileInsn(pc int, ins isa.Instruction) (op, error) {
	switch ins.Class() {
	case isa.ClassALU64, isa.ClassALU:
		return c.compileALU(ins)
	case isa.ClassLD:
		if ins.MapName != "" {
			return nil, fmt.Errorf("jit: insn %d: unresolved map reference %q", pc, ins.MapName)
		}
		v := uint64(ins.Const)
		dst := ins.Dst
		return func(s *interp.State, r *regs, pc int) int {
			r[dst] = v
			return pc + 1
		}, nil
	case isa.ClassLDX:
		size := isa.SizeBytes(ins.Size())
		dst, src, off := ins.Dst, ins.Src, int64(ins.Off)
		return func(s *interp.State, r *regs, pc int) int {
			v, f := s.Ctx().LoadUint(r[src]+uint64(off), size)
			if f != nil {
				return fail(s, s.Crash(f))
			}
			r[dst] = v
			return pc + 1
		}, nil
	case isa.ClassST:
		size := isa.SizeBytes(ins.Size())
		dst, off, imm := ins.Dst, int64(ins.Off), uint64(int64(ins.Imm))
		return func(s *interp.State, r *regs, pc int) int {
			if f := s.Ctx().StoreUint(r[dst]+uint64(off), size, imm); f != nil {
				return fail(s, s.Crash(f))
			}
			return pc + 1
		}, nil
	case isa.ClassSTX:
		size := isa.SizeBytes(ins.Size())
		dst, src, off := ins.Dst, ins.Src, int64(ins.Off)
		if ins.Mode() == isa.ModeATOMIC {
			kind := ins.Imm
			return func(s *interp.State, r *regs, pc int) int {
				if err := s.Atomic(kind, r[dst]+uint64(off), size, r, src); err != nil {
					return fail(s, err)
				}
				return pc + 1
			}, nil
		}
		return func(s *interp.State, r *regs, pc int) int {
			if f := s.Ctx().StoreUint(r[dst]+uint64(off), size, r[src]); f != nil {
				return fail(s, s.Crash(f))
			}
			return pc + 1
		}, nil
	case isa.ClassJMP, isa.ClassJMP32:
		return c.compileJump(ins)
	}
	return nil, fmt.Errorf("jit: unknown class %#x", ins.Class())
}

func (c *Compiled) compileALU(ins isa.Instruction) (op, error) {
	is64 := ins.Class() == isa.ClassALU64
	aluop, dst := ins.ALUOp(), ins.Dst
	if ins.UsesX() {
		src := ins.Src
		return func(s *interp.State, r *regs, pc int) int {
			v, ok := interp.EvalALU(aluop, r[dst], r[src], is64)
			if !ok {
				return fail(s, fmt.Errorf("jit: bad shift at pc %d", pc))
			}
			if !is64 {
				v = uint64(uint32(v))
			}
			r[dst] = v
			return pc + 1
		}, nil
	}
	imm := uint64(int64(ins.Imm))
	return func(s *interp.State, r *regs, pc int) int {
		v, ok := interp.EvalALU(aluop, r[dst], imm, is64)
		if !ok {
			return fail(s, fmt.Errorf("jit: bad shift at pc %d", pc))
		}
		if !is64 {
			v = uint64(uint32(v))
		}
		r[dst] = v
		return pc + 1
	}, nil
}

func (c *Compiled) compileJump(ins isa.Instruction) (op, error) {
	switch {
	case ins.IsExit():
		return func(s *interp.State, r *regs, pc int) int { return -1 }, nil
	case ins.IsCall():
		id := ins.Imm
		return func(s *interp.State, r *regs, pc int) int {
			tail, err := s.CallHelper(id, r)
			if err != nil {
				return fail(s, err)
			}
			if tail {
				return -1
			}
			return pc + 1
		}, nil
	case ins.IsBPFCall():
		target := int(ins.Imm)
		return func(s *interp.State, r *regs, pc int) int {
			if err := s.Call(pc+1+target, r); err != nil {
				return fail(s, err)
			}
			return pc + 1
		}, nil
	case ins.IsUnconditionalJump():
		off := int(ins.Off)
		return func(s *interp.State, r *regs, pc int) int { return pc + 1 + off }, nil
	}

	// Conditional jumps. The injected backend bug rewrites >= to > and
	// <= to <, silently weakening verified bounds checks.
	cmp := ins
	if c.cfg.InjectBranchBug && cmp.Class() == isa.ClassJMP {
		switch cmp.ALUOp() {
		case isa.OpJge:
			cmp.Op = cmp.Op&^0xf0 | isa.OpJgt
		case isa.OpJle:
			cmp.Op = cmp.Op&^0xf0 | isa.OpJlt
		}
	}
	off := int(ins.Off)
	if cmp.UsesX() {
		dst, src := cmp.Dst, cmp.Src
		cmpIns := cmp
		return func(s *interp.State, r *regs, pc int) int {
			if interp.EvalJump(cmpIns, r[dst], r[src]) {
				return pc + 1 + off
			}
			return pc + 1
		}, nil
	}
	dst, imm := cmp.Dst, uint64(int64(cmp.Imm))
	cmpIns := cmp
	return func(s *interp.State, r *regs, pc int) int {
		if interp.EvalJump(cmpIns, r[dst], imm) {
			return pc + 1 + off
		}
		return pc + 1
	}, nil
}

// fail leaves err for the dispatch loop and stops the activation.
func fail(s *interp.State, err error) int {
	s.Err = err
	return -1
}

// Run executes the compiled program on the machine's shared run state.
func (c *Compiled) Run(m *interp.Machine, env *helpers.Env, opts interp.Options) (uint64, error) {
	return m.RunCode(c, env, opts)
}

// Exec is the dispatch loop of one activation.
func (c *Compiled) Exec(s *interp.State, pc int, r *regs) (uint64, error) {
	ops := c.ops
	for pc >= 0 {
		if pc >= len(ops) {
			return 0, fmt.Errorf("jit: pc %d out of range", pc)
		}
		if err := s.Retire(); err != nil {
			return 0, err
		}
		pc = ops[pc](s, r, pc)
	}
	if err := s.Err; err != nil {
		s.Err = nil
		return 0, err
	}
	return r[0], nil
}

// Tail compiles a tail-call target with this program's configuration.
func (c *Compiled) Tail(prog *isa.Program) (interp.Code, error) {
	next, err := Compile(prog, c.cfg)
	if err != nil {
		return nil, err
	}
	return next, nil
}
