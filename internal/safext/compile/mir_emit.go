package compile

import (
	"fmt"

	"kex/internal/ebpf/isa"
	"kex/internal/safext/analyze"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
)

// Code generation, the one backend of every level. Each function lowers
// to MIR, runs the optimizer's passes at OptMIR (or only the sweep of
// unreachable placeholder blocks below it), is register-allocated, and is
// emitted here. Values live in R6–R9 (callee-saved across helper and
// BPF-to-BPF calls) or in spill slots; constants use immediate instruction
// forms and comparisons fuse into conditional jumps. R0–R5 stay
// scratch/ABI registers.

// compileFunc runs one lowered function, fa.Opt, through the rest of the
// MIR pipeline and emits its bytecode, merging the function's check-site
// ledger and pipeline stats into the object and recording its register
// assignment in fa. The returned Cost gives the instructions emitted per
// block, for the static bound.
func (c *compiler) compileFunc(fn *lang.FuncDecl, fa *MIRFuncArtifact) (*analyze.Cost, error) {
	f := fa.Opt
	var st mir.Stats
	if c.obj.Opt.Level >= OptMIR {
		st = mir.Optimize(f)
	} else {
		st = mir.Sweep(f)
	}
	al := mir.Allocate(f)
	fa.Alloc = al
	st.Spills = al.NumSpills
	for _, r := range al.Reg {
		if r >= 0 {
			st.RegAssigned++
		}
	}
	c.obj.Opt.add(st)

	c.funcPCs[fn.Name] = int32(len(c.obj.Insns))
	e := &mirEmitter{c: c, f: f, al: al, fn: fn}
	if err := e.emitFunc(); err != nil {
		return nil, err
	}
	c.obj.Insns = append(c.obj.Insns, e.insns...)

	// Merge the check-site ledger: Emit sites became dynamic checks;
	// Elided (elision-pass-proven) and Folded (optimizer-discharged) sites are
	// recorded as elisions, preserving naive == emitted + elided.
	cs := &c.obj.Checks
	for _, s := range f.Sites {
		emitted := s.State == mir.SiteEmit
		switch s.Kind {
		case "bounds":
			if emitted {
				cs.BoundsEmitted++
			} else {
				cs.BoundsElided++
			}
		case "div":
			if emitted {
				cs.DivEmitted++
			} else {
				cs.DivElided++
			}
		case "shift-mask":
			if emitted {
				cs.MaskEmitted++
			} else {
				cs.MaskElided++
			}
		}
		if !emitted {
			c.elide(s.Kind, s.Line)
		}
	}
	cost := &analyze.Cost{F: f, Size: make(map[mir.BlockID]int64, len(f.Blocks)), Tail: int64(len(e.insns) - e.tailStart)}
	end := e.tailStart
	for i := len(f.Blocks) - 1; i >= 0; i-- {
		start := e.blockStart[f.Blocks[i].ID]
		cost.Size[f.Blocks[i].ID] = int64(end - start)
		end = start
	}
	return cost, nil
}

type jumpFix struct {
	site   int
	target mir.BlockID
}

type mirEmitter struct {
	c  *compiler
	f  *mir.Func
	al *mir.Alloc
	fn *lang.FuncDecl

	insns      []isa.Instruction
	arrOff     []int64
	arraysSize int64
	blockStart map[mir.BlockID]int
	jumpFixes  []jumpFix
	// trapSites collects per-code jump sites to the shared trap tails,
	// which start at tailStart.
	trapSites map[int64][]int
	tailStart int
}

// allocRegs maps allocation indexes onto the callee-saved file.
var allocRegs = [mir.NumAllocRegs]isa.Register{isa.R6, isa.R7, isa.R8, isa.R9}

func (e *mirEmitter) emit(ins isa.Instruction) int {
	e.insns = append(e.insns, ins)
	return len(e.insns) - 1
}

func (e *mirEmitter) emitFunc() error {
	// Frame layout: declared arrays first, then spill slots.
	e.arrOff = make([]int64, len(e.f.Arrays))
	var size int64
	for i, l := range e.f.Arrays {
		size += (l + 7) &^ 7
		e.arrOff[i] = -size
	}
	e.arraysSize = size
	total := size + 8*int64(e.al.NumSpills)
	if total > frameLimit {
		return &Error{e.fn.Line, fmt.Sprintf("function %q needs %d bytes of frame, limit %d", e.fn.Name, total, frameLimit)}
	}

	e.blockStart = make(map[mir.BlockID]int)
	e.trapSites = make(map[int64][]int)
	for bi, b := range e.f.Blocks {
		e.blockStart[b.ID] = len(e.insns)
		for i := range b.Insns {
			if err := e.emitInsn(&b.Insns[i]); err != nil {
				return err
			}
		}
		var next mir.BlockID = -1
		if bi+1 < len(e.f.Blocks) {
			next = e.f.Blocks[bi+1].ID
		}
		if err := e.emitTerm(&b.Term, next); err != nil {
			return err
		}
	}

	// Shared trap tails, one per code (deterministic order).
	e.tailStart = len(e.insns)
	for _, code := range []int64{TrapExplicit, TrapOOB, TrapDivByZero} {
		sites := e.trapSites[code]
		if len(sites) == 0 {
			continue
		}
		pc := len(e.insns)
		for _, s := range sites {
			e.insns[s].Off = int16(pc - s - 1)
		}
		e.emit(isa.Mov64Imm(isa.R1, int32(code)))
		e.emitCrateCall("trap")
		e.emit(isa.Mov64Imm(isa.R0, -1))
		e.emit(isa.Exit())
	}

	for _, fix := range e.jumpFixes {
		target, ok := e.blockStart[fix.target]
		if !ok {
			return &Error{e.fn.Line, fmt.Sprintf("jump to unplaced block b%d", fix.target)}
		}
		e.insns[fix.site].Off = int16(target - fix.site - 1)
	}
	return nil
}

func (e *mirEmitter) emitCrateCall(name string) {
	id, ok := lang.CrateID(name)
	if !ok {
		panic("compile: unknown crate function " + name)
	}
	e.emit(isa.Call(id))
}

// ---- value locations --------------------------------------------------------

func (e *mirEmitter) spillOff(v mir.VReg) int16 {
	return int16(-(e.arraysSize + 8*int64(e.al.SpillSlot[v]+1)))
}

func (e *mirEmitter) inReg(v mir.VReg) (isa.Register, bool) {
	if r := e.al.Reg[v]; r >= 0 {
		return allocRegs[r], true
	}
	return 0, false
}

// readV makes v's value available in a register, loading a spilled value
// into scratch.
func (e *mirEmitter) readV(v mir.VReg, scratch isa.Register) isa.Register {
	if r, ok := e.inReg(v); ok {
		return r
	}
	e.emit(isa.LoadMem(isa.SizeDW, scratch, isa.R10, e.spillOff(v)))
	return scratch
}

// readInto places v's value in target.
func (e *mirEmitter) readInto(v mir.VReg, target isa.Register) {
	if r, ok := e.inReg(v); ok {
		if r != target {
			e.emit(isa.Mov64Reg(target, r))
		}
		return
	}
	e.emit(isa.LoadMem(isa.SizeDW, target, isa.R10, e.spillOff(v)))
}

// writeV stores the value in from as v's new value. No-op move elided.
func (e *mirEmitter) writeV(v mir.VReg, from isa.Register) {
	switch e.al.Reg[v] {
	case mir.LocUnused:
		return
	case mir.LocSpill:
		e.emit(isa.StoreMem(isa.SizeDW, isa.R10, e.spillOff(v), from))
	default:
		if r := allocRegs[e.al.Reg[v]]; r != from {
			e.emit(isa.Mov64Reg(r, from))
		}
	}
}

func (e *mirEmitter) movImm(r isa.Register, v int64) {
	if v == int64(int32(v)) {
		e.emit(isa.Mov64Imm(r, int32(v)))
	} else {
		e.emit(isa.LoadImm64(r, v))
	}
}

// trapJump emits the jump-to-trap site (patched to the shared tail).
func (e *mirEmitter) trapJump(code int64) {
	site := e.emit(isa.Ja(0))
	e.trapSites[code] = append(e.trapSites[code], site)
}

func (e *mirEmitter) siteEmitted(idx int) bool {
	return idx != mir.SiteNone && e.f.Sites[idx].State == mir.SiteEmit
}

// ---- instruction emission ---------------------------------------------------

var comparisonOps = map[string]struct{ unsigned, signed uint8 }{
	"==": {isa.OpJeq, isa.OpJeq},
	"!=": {isa.OpJne, isa.OpJne},
	"<":  {isa.OpJlt, isa.OpJslt},
	"<=": {isa.OpJle, isa.OpJsle},
	">":  {isa.OpJgt, isa.OpJsgt},
	">=": {isa.OpJge, isa.OpJsge},
}

var binOps = map[string]uint8{
	"+": isa.OpAdd, "-": isa.OpSub, "*": isa.OpMul, "/": isa.OpDiv, "%": isa.OpMod,
	"&": isa.OpAnd, "|": isa.OpOr, "^": isa.OpXor, "<<": isa.OpLsh, ">>": isa.OpRsh,
}

func (e *mirEmitter) emitInsn(in *mir.Insn) error {
	switch in.Op {
	case mir.OpParam:
		e.writeV(in.Dst, isa.Register(in.Imm+1))

	case mir.OpConst:
		if r, ok := e.inReg(in.Dst); ok {
			e.movImm(r, in.Imm)
		} else if e.al.Reg[in.Dst] == mir.LocSpill {
			e.movImm(isa.R1, in.Imm)
			e.writeV(in.Dst, isa.R1)
		}

	case mir.OpCopy:
		if r, ok := e.inReg(in.Dst); ok {
			e.readInto(in.A, r)
		} else if e.al.Reg[in.Dst] == mir.LocSpill {
			src := e.readV(in.A, isa.R1)
			e.writeV(in.Dst, src)
		}

	case mir.OpNeg:
		t := e.target(in.Dst, isa.R1)
		e.readInto(in.A, t)
		e.emit(isa.Neg64(t))
		e.writeV(in.Dst, t)

	case mir.OpBin:
		return e.emitBin(in)

	case mir.OpCmp:
		return e.emitCmpInsn(in)

	case mir.OpArrLoad:
		off := e.arrOff[in.Arr]
		if in.IdxIsImm {
			t := e.target(in.Dst, isa.R1)
			e.emit(isa.LoadMem(isa.SizeB, t, isa.R10, int16(off+in.IdxImm)))
			e.writeV(in.Dst, t)
			return nil
		}
		rI := e.readV(in.A, isa.R1)
		if e.siteEmitted(in.Site) {
			e.emit(isa.JmpImm(isa.OpJlt, rI, int32(e.f.Arrays[in.Arr]), 1))
			e.trapJump(TrapOOB)
		}
		e.emit(isa.Mov64Reg(isa.R2, isa.R10))
		e.emit(isa.ALU64Imm(isa.OpAdd, isa.R2, int32(off)))
		e.emit(isa.ALU64Reg(isa.OpAdd, isa.R2, rI))
		t := e.target(in.Dst, isa.R1)
		e.emit(isa.LoadMem(isa.SizeB, t, isa.R2, 0))
		e.writeV(in.Dst, t)

	case mir.OpArrStore:
		off := e.arrOff[in.Arr]
		if in.IdxIsImm {
			if in.BIsImm {
				e.emit(isa.StoreImm(isa.SizeB, isa.R10, int16(off+in.IdxImm), int32(in.BImm)))
			} else {
				rV := e.readV(in.B, isa.R3)
				e.emit(isa.StoreMem(isa.SizeB, isa.R10, int16(off+in.IdxImm), rV))
			}
			return nil
		}
		rI := e.readV(in.A, isa.R1)
		if e.siteEmitted(in.Site) {
			e.emit(isa.JmpImm(isa.OpJlt, rI, int32(e.f.Arrays[in.Arr]), 1))
			e.trapJump(TrapOOB)
		}
		e.emit(isa.Mov64Reg(isa.R2, isa.R10))
		e.emit(isa.ALU64Imm(isa.OpAdd, isa.R2, int32(off)))
		e.emit(isa.ALU64Reg(isa.OpAdd, isa.R2, rI))
		if in.BIsImm {
			e.emit(isa.StoreImm(isa.SizeB, isa.R2, 0, int32(in.BImm)))
		} else {
			rV := e.readV(in.B, isa.R3)
			e.emit(isa.StoreMem(isa.SizeB, isa.R2, 0, rV))
		}

	case mir.OpArrZero:
		off := e.arrOff[in.Arr]
		for b := int64(0); b < e.f.Arrays[in.Arr]; b += 8 {
			e.emit(isa.StoreImm(isa.SizeDW, isa.R10, int16(off+b), 0))
		}

	case mir.OpCallCrate:
		if err := e.emitCallArgs(in); err != nil {
			return err
		}
		e.emitCrateCall(in.Name)
		e.writeV(in.Dst, isa.R0)

	case mir.OpCallUser:
		if err := e.emitCallArgs(in); err != nil {
			return err
		}
		site := e.emit(isa.CallBPF(0))
		e.c.callFixes = append(e.c.callFixes, callFix{pc: site + int(e.c.funcPCs[e.fn.Name]), name: in.Name})
		e.writeV(in.Dst, isa.R0)

	default:
		return fmt.Errorf("compile: unknown MIR op %d", in.Op)
	}
	return nil
}

// target picks the register to compute a result in: the destination's own
// register when it has one, else the scratch. Callers that detour around
// an aliased operand compute elsewhere; writeV then moves the result into
// the destination, whether that is a register or a spill slot.
func (e *mirEmitter) target(dst mir.VReg, scratch isa.Register) isa.Register {
	if r, ok := e.inReg(dst); ok {
		return r
	}
	return scratch
}

func (e *mirEmitter) emitBin(in *mir.Insn) error {
	op, ok := binOps[in.Bin]
	if !ok {
		return fmt.Errorf("compile: unknown arithmetic operator %q", in.Bin)
	}
	var rB isa.Register
	if !in.BIsImm {
		rB = e.readV(in.B, isa.R2)
	}
	t := e.target(in.Dst, isa.R1)
	// When B lives in the destination register (B == Dst, the only way the
	// allocator lets them share), computing in place would clobber the
	// operand — detour through scratch (writeV moves the result back).
	if !in.BIsImm && rB == t {
		t = isa.R1
	}
	e.readInto(in.A, t)

	if e.siteEmitted(in.Site) {
		switch in.Bin {
		case "/", "%":
			e.emit(isa.JmpImm(isa.OpJne, rB, 0, 1))
			e.trapJump(TrapDivByZero)
		case "<<", ">>":
			// Mask a copy: rB may be a live allocated register.
			if rB != isa.R2 {
				e.emit(isa.Mov64Reg(isa.R2, rB))
				rB = isa.R2
			}
			e.emit(isa.ALU64Imm(isa.OpAnd, isa.R2, 63))
		}
	}
	if in.BIsImm {
		e.emit(isa.ALU64Imm(op, t, int32(in.BImm)))
	} else {
		e.emit(isa.ALU64Reg(op, t, rB))
	}
	e.writeV(in.Dst, t)
	return nil
}

func (e *mirEmitter) emitCmpInsn(in *mir.Insn) error {
	cmp, ok := comparisonOps[in.Bin]
	if !ok {
		return fmt.Errorf("compile: unknown comparison %q", in.Bin)
	}
	op := cmp.unsigned
	if in.Signed {
		op = cmp.signed
	}
	rA := e.readV(in.A, isa.R1)
	var rB isa.Register
	if !in.BIsImm {
		rB = e.readV(in.B, isa.R2)
	}
	// The 1/0 materialization writes t before the compare reads the
	// operands, so t must not alias them.
	t := e.target(in.Dst, isa.R3)
	if t == rA || (!in.BIsImm && t == rB) {
		t = isa.R3
	}
	e.emit(isa.Mov64Imm(t, 1))
	if in.BIsImm {
		e.emit(isa.JmpImm(op, rA, int32(in.BImm), 1))
	} else {
		e.emit(isa.JmpReg(op, rA, rB, 1))
	}
	e.emit(isa.Mov64Imm(t, 0))
	e.writeV(in.Dst, t)
	return nil
}

func (e *mirEmitter) emitCallArgs(in *mir.Insn) error {
	reg := 0
	for i := range in.Args {
		a := &in.Args[i]
		switch a.Kind {
		case lang.CrateInt, lang.CrateSock:
			r := isa.Register(reg + 1)
			if a.IsImm {
				e.movImm(r, a.Imm)
			} else {
				e.readInto(a.V, r)
			}
			reg++
		case lang.CrateStr:
			off, length := e.c.rodata(a.Str)
			e.emit(isa.LoadRodataRef(isa.Register(reg+1), off))
			e.emit(isa.Mov64Imm(isa.Register(reg+2), int32(length)))
			reg += 2
		case lang.CrateBuf:
			e.emit(isa.Mov64Reg(isa.Register(reg+1), isa.R10))
			e.emit(isa.ALU64Imm(isa.OpAdd, isa.Register(reg+1), int32(e.arrOff[a.Arr])))
			e.emit(isa.Mov64Imm(isa.Register(reg+2), int32(e.f.Arrays[a.Arr])))
			reg += 2
		case lang.CrateMap:
			e.emit(isa.LoadMapRef(isa.Register(reg+1), a.Sym))
			reg++
		}
		if reg > 5 {
			return &Error{in.Line, "call needs too many argument registers"}
		}
	}
	return nil
}

// ---- terminators ------------------------------------------------------------

func (e *mirEmitter) emitTerm(t *mir.Terminator, next mir.BlockID) error {
	switch t.Kind {
	case mir.TermJmp:
		if t.To != next {
			site := e.emit(isa.Ja(0))
			e.jumpFixes = append(e.jumpFixes, jumpFix{site, t.To})
		}

	case mir.TermCond:
		cmp, ok := comparisonOps[t.Rel]
		if !ok {
			return fmt.Errorf("compile: unknown relation %q", t.Rel)
		}
		op := cmp.unsigned
		if t.Signed {
			op = cmp.signed
		}
		rA := e.readV(t.A, isa.R1)
		var site int
		if t.BIsImm {
			site = e.emit(isa.JmpImm(op, rA, int32(t.BImm), 0))
		} else {
			rB := e.readV(t.B, isa.R2)
			site = e.emit(isa.JmpReg(op, rA, rB, 0))
		}
		e.jumpFixes = append(e.jumpFixes, jumpFix{site, t.To})
		if t.Else != next {
			ja := e.emit(isa.Ja(0))
			e.jumpFixes = append(e.jumpFixes, jumpFix{ja, t.Else})
		}

	case mir.TermRet:
		if t.RetIsImm {
			e.movImm(isa.R0, t.RetImm)
		} else {
			e.readInto(t.Ret, isa.R0)
		}
		e.emit(isa.Exit())

	case mir.TermTrap:
		e.trapJump(t.TrapCode)

	default:
		return fmt.Errorf("compile: unterminated block in %q", e.fn.Name)
	}
	return nil
}
