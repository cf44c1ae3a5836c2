// Package mirrun is the reference machine for SLX's mid-level IR: one
// deterministic model of the engine that both MIR oracles execute on. The
// translation validator (internal/analysis/transval) runs both sides of an
// optimized build here, and the shard-interleaving oracle
// (internal/analysis/concheck) runs each invocation of the naive build
// here. A semantic fix therefore lands once, in the one place both proofs
// are stated over.
//
// The semantics are the engine's: 64-bit wraparound arithmetic, shifts
// masked mod 64, a trap at every division and bounds site whose check is
// emitted, and at a site whose check is not emitted the engine's defined
// results (x/0 = 0, x%0 = x) or, for an out-of-range array access, the
// caller's Unchecked model. Every instruction and every block exit costs
// one unit of fuel; a crate hook charges any extra cost of its calls.
// Crate calls are the caller's: the machine resolves their operands and
// hands the instruction to the Crate hook.
//
// The package imports only the MIR data types and the compiler's trap
// codes. It shares no code with the optimizer's passes or with the shard
// analyzer, so each oracle still checks a subject it has no code in common
// with.
package mirrun

import (
	"fmt"

	"kex/internal/safext/compile"
	"kex/internal/safext/compile/mir"
)

// Stop kinds. A nil *Stop is a normal return.
const (
	// StopTrap: a check trapped, or the function ended in a trap
	// terminator; Trap holds the code.
	StopTrap = iota + 1
	// StopFuel: the machine's fuel ran out.
	StopFuel
	// StopDepth: user calls nested past MaxDepth. Like StopFuel it bounds
	// the run, not the program: a recursive function reaches it on a deep
	// enough input.
	StopDepth
	// StopErr: the IR is malformed (or a hook reported an error); Msg says
	// how.
	StopErr
)

// Stop is why a run ended other than by returning.
type Stop struct {
	Kind int
	Trap int64
	Msg  string
}

var (
	stopFuel  = &Stop{Kind: StopFuel}
	stopDepth = &Stop{Kind: StopDepth, Msg: "user-call depth limit exceeded"}
)

// MaxDepth bounds user-call nesting; a call past it stops with StopDepth.
const MaxDepth = 64

// Code is one function as the machine runs it. A nil Alloc is a naive
// lowering with a flat virtual-register file; otherwise every register
// resolves through the allocation, so two virtual registers sharing a
// callee-saved register share storage, as they do in the emitted code.
type Code struct {
	F     *mir.Func
	Alloc *mir.Alloc
}

// Machine runs MIR. Set the exported fields, then call Run; a Machine may
// be run again after its fields are reset, and reuses its frames.
type Machine struct {
	// Funcs resolves OpCallUser and Run by name.
	Funcs map[string]Code
	// Fuel is the remaining step budget; Run stops with StopFuel once it
	// goes negative.
	Fuel int
	// Crate models one OpCallCrate and returns its result.
	Crate func(*Frame, *mir.Insn) (uint64, *Stop)
	// Unchecked models an out-of-range array access at a site with no
	// emitted check: op is "oob-load" (args: array, index; the result is
	// the loaded value) or "wild-store" (args: array, index, value).
	Unchecked func(op string, args ...uint64) uint64
	// Cover, when non-nil, collects the blocks of the top-level function
	// that a run visits.
	Cover map[mir.BlockID]bool

	frames []*Frame // activation storage by depth, reused across calls
	depth  int
}

// Frame is one activation's value storage.
type Frame struct {
	// F is the function running in this activation.
	F *mir.Func
	// Arrs holds the activation's byte arrays by ordinal.
	Arrs [][]byte

	al    *mir.Alloc
	vregs []uint64
	rf    [mir.NumAllocRegs]uint64
	spill []uint64
	args  []uint64
}

// Read returns virtual register v's value; false means v has no storage
// in the allocation.
func (fr *Frame) Read(v mir.VReg) (uint64, bool) {
	if fr.al == nil {
		return fr.vregs[v], true
	}
	switch r := fr.al.Reg[v]; {
	case r >= 0:
		return fr.rf[r], true
	case r == mir.LocSpill:
		return fr.spill[fr.al.SpillSlot[v]], true
	}
	return 0, false
}

func (fr *Frame) write(v mir.VReg, x uint64) {
	if v == 0 {
		return
	}
	if fr.al == nil {
		fr.vregs[v] = x
		return
	}
	switch r := fr.al.Reg[v]; {
	case r >= 0:
		fr.rf[r] = x
	case r == mir.LocSpill:
		fr.spill[fr.al.SpillSlot[v]] = x
	}
	// LocUnused writes are discarded, like a dead def in the emitted code.
}

// enter prepares the frame for a fresh activation of c: every register,
// spill slot and array reads zero.
func (fr *Frame) enter(c Code) {
	fr.F, fr.al = c.F, c.Alloc
	if c.Alloc != nil {
		fr.rf = [mir.NumAllocRegs]uint64{}
		fr.spill = zeroed(fr.spill, c.Alloc.NumSpills)
	} else {
		fr.vregs = zeroed(fr.vregs, c.F.NumVRegs+1)
	}
	n := len(c.F.Arrays)
	for len(fr.Arrs) < n {
		fr.Arrs = append(fr.Arrs, nil)
	}
	fr.Arrs = fr.Arrs[:n]
	for i, size := range c.F.Arrays {
		fr.Arrs[i] = zeroed(fr.Arrs[i], int(size))
	}
}

func zeroed[T uint64 | byte](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// slot returns the frame for activation depth d.
func (m *Machine) slot(d int) *Frame {
	for len(m.frames) <= d {
		m.frames = append(m.frames, new(Frame))
	}
	return m.frames[d]
}

// Run calls function name with args and runs it to a return or a stop.
func (m *Machine) Run(name string, args []uint64) (uint64, *Stop) {
	c, ok := m.Funcs[name]
	if !ok {
		return 0, &Stop{Kind: StopErr, Msg: "call to unknown function " + name}
	}
	m.depth = 0
	fr := m.slot(0)
	fr.args = append(fr.args[:0], args...)
	return m.call(c, fr)
}

func (m *Machine) call(c Code, fr *Frame) (uint64, *Stop) {
	if m.depth >= MaxDepth {
		return 0, stopDepth
	}
	m.depth++
	ret, st := m.exec(c, fr)
	m.depth--
	return ret, st
}

func (m *Machine) exec(c Code, fr *Frame) (uint64, *Stop) {
	fr.enter(c)
	f := c.F
	if len(f.Blocks) == 0 {
		return 0, &Stop{Kind: StopErr, Msg: "function has no blocks"}
	}
	cover := m.Cover
	if m.depth > 1 {
		cover = nil
	}
	cur := f.Blocks[0]
	for {
		if cover != nil {
			cover[cur.ID] = true
		}
		for i := range cur.Insns {
			if st := m.step(fr, &cur.Insns[i]); st != nil {
				return 0, st
			}
		}
		if m.Fuel--; m.Fuel < 0 {
			return 0, stopFuel
		}
		t := &cur.Term
		switch t.Kind {
		case mir.TermJmp:
			next := f.BlockByID(t.To)
			if next == nil {
				return 0, &Stop{Kind: StopErr, Msg: fmt.Sprintf("jump to missing block b%d", t.To)}
			}
			cur = next
		case mir.TermCond:
			a, okA := fr.Read(t.A)
			b, okB := uint64(t.BImm), true
			if !t.BIsImm {
				b, okB = fr.Read(t.B)
			}
			if !okA || !okB {
				return 0, &Stop{Kind: StopErr, Msg: "branch reads unallocated vreg"}
			}
			to := t.Else
			if Cmp(t.Rel, t.Signed, a, b) {
				to = t.To
			}
			next := f.BlockByID(to)
			if next == nil {
				return 0, &Stop{Kind: StopErr, Msg: fmt.Sprintf("branch to missing block b%d", to)}
			}
			cur = next
		case mir.TermRet:
			if t.RetIsImm {
				return uint64(t.RetImm), nil
			}
			v, ok := fr.Read(t.Ret)
			if !ok {
				return 0, &Stop{Kind: StopErr, Msg: "return reads unallocated vreg"}
			}
			return v, nil
		case mir.TermTrap:
			return 0, &Stop{Kind: StopTrap, Trap: t.TrapCode}
		default:
			return 0, &Stop{Kind: StopErr, Msg: "unterminated block"}
		}
	}
}

// emitted reports whether check site idx of f is compiled in.
func emitted(f *mir.Func, idx int) bool {
	return idx != mir.SiteNone && f.Sites[idx].State == mir.SiteEmit
}

func unallocated(in *mir.Insn, v mir.VReg) *Stop {
	return &Stop{Kind: StopErr, Msg: fmt.Sprintf("%s reads unallocated v%d", in.String(), v)}
}

// operands reads A and B.
func (fr *Frame) operands(in *mir.Insn) (a, b uint64, st *Stop) {
	a, ok := fr.Read(in.A)
	if !ok {
		return 0, 0, unallocated(in, in.A)
	}
	b, st = fr.operandB(in)
	return a, b, st
}

// operandB reads B, or its immediate.
func (fr *Frame) operandB(in *mir.Insn) (uint64, *Stop) {
	if in.BIsImm {
		return uint64(in.BImm), nil
	}
	b, ok := fr.Read(in.B)
	if !ok {
		return 0, unallocated(in, in.B)
	}
	return b, nil
}

// index reads an array access's index (A, or an immediate).
func (fr *Frame) index(in *mir.Insn) (uint64, *Stop) {
	if in.IdxIsImm {
		return uint64(in.IdxImm), nil
	}
	v, ok := fr.Read(in.A)
	if !ok {
		return 0, unallocated(in, in.A)
	}
	return v, nil
}

func (m *Machine) unchecked(op string, args ...uint64) (uint64, *Stop) {
	if m.Unchecked == nil {
		return 0, &Stop{Kind: StopErr, Msg: op + " at an unchecked site with no model for it"}
	}
	return m.Unchecked(op, args...), nil
}

func (m *Machine) step(fr *Frame, in *mir.Insn) *Stop {
	if m.Fuel--; m.Fuel < 0 {
		return stopFuel
	}
	switch in.Op {
	case mir.OpParam:
		// Out-of-range params read zero (the ABI zeroes unused arg regs).
		var v uint64
		if i := int(in.Imm); i >= 0 && i < len(fr.args) {
			v = fr.args[i]
		}
		fr.write(in.Dst, v)

	case mir.OpConst:
		fr.write(in.Dst, uint64(in.Imm))

	case mir.OpCopy, mir.OpNeg:
		a, ok := fr.Read(in.A)
		if !ok {
			return unallocated(in, in.A)
		}
		if in.Op == mir.OpNeg {
			a = -a
		}
		fr.write(in.Dst, a)

	case mir.OpBin:
		a, b, st := fr.operands(in)
		if st != nil {
			return st
		}
		if b == 0 && (in.Bin == "/" || in.Bin == "%") && emitted(fr.F, in.Site) {
			return &Stop{Kind: StopTrap, Trap: compile.TrapDivByZero}
		}
		res, ok := Bin(in.Bin, a, b)
		if !ok {
			return &Stop{Kind: StopErr, Msg: "unknown operator " + in.Bin}
		}
		fr.write(in.Dst, res)

	case mir.OpCmp:
		a, b, st := fr.operands(in)
		if st != nil {
			return st
		}
		var res uint64
		if Cmp(in.Bin, in.Signed, a, b) {
			res = 1
		}
		fr.write(in.Dst, res)

	case mir.OpArrLoad:
		idx, st := fr.index(in)
		if st != nil {
			return st
		}
		arr := fr.Arrs[in.Arr]
		if idx < uint64(len(arr)) {
			fr.write(in.Dst, uint64(arr[idx]))
			return nil
		}
		if emitted(fr.F, in.Site) {
			return &Stop{Kind: StopTrap, Trap: compile.TrapOOB}
		}
		v, st := m.unchecked("oob-load", uint64(in.Arr), idx)
		if st != nil {
			return st
		}
		fr.write(in.Dst, v)

	case mir.OpArrStore:
		idx, st := fr.index(in)
		if st != nil {
			return st
		}
		b, st := fr.operandB(in)
		if st != nil {
			return st
		}
		arr := fr.Arrs[in.Arr]
		if idx < uint64(len(arr)) {
			arr[idx] = byte(b)
			return nil
		}
		if emitted(fr.F, in.Site) {
			return &Stop{Kind: StopTrap, Trap: compile.TrapOOB}
		}
		_, st = m.unchecked("wild-store", uint64(in.Arr), idx, b)
		return st

	case mir.OpArrZero:
		clear(fr.Arrs[in.Arr])

	case mir.OpCallCrate:
		res, st := m.Crate(fr, in)
		if st != nil {
			return st
		}
		fr.write(in.Dst, res)

	case mir.OpCallUser:
		callee, ok := m.Funcs[in.Name]
		if !ok {
			return &Stop{Kind: StopErr, Msg: "call to unknown function " + in.Name}
		}
		next := m.slot(m.depth)
		next.args = next.args[:0]
		for i := range in.Args {
			a := &in.Args[i]
			v, ok := uint64(a.Imm), true
			if !a.IsImm {
				v, ok = fr.Read(a.V)
			}
			if !ok {
				return &Stop{Kind: StopErr, Msg: fmt.Sprintf("call arg reads unallocated v%d", a.V)}
			}
			next.args = append(next.args, v)
		}
		res, st := m.call(callee, next)
		if st != nil {
			return st
		}
		fr.write(in.Dst, res)

	default:
		return &Stop{Kind: StopErr, Msg: "unknown instruction"}
	}
	return nil
}
