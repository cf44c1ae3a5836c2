package verifier

import (
	"math"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
)

// Context sizes per program type.
func ctxSize(t isa.ProgType) int64 {
	switch t {
	case isa.SocketFilter, isa.XDP:
		return 32 // the skb context of helpers.SkbCtxSize
	default:
		return 64
	}
}

// ---- ALU -------------------------------------------------------------------

func (v *Verifier) checkALU(st *state, ins isa.Instruction) error {
	dst := st.reg(ins.Dst)
	op := ins.ALUOp()
	is64 := ins.Class() == isa.ClassALU64

	if ins.Dst == isa.R10 {
		return v.errf(st.pc, "frame pointer is read only")
	}

	// Immediate shift amounts must fit the operand width (the kernel
	// rejects these at verification; register shifts mask at runtime).
	if op == isa.OpLsh || op == isa.OpRsh || op == isa.OpArsh {
		width := int32(64)
		if !is64 {
			width = 32
		}
		if !ins.UsesX() && (ins.Imm < 0 || ins.Imm >= width) {
			return v.errf(st.pc, "invalid shift amount %d", ins.Imm)
		}
	}

	// Source operand as an abstract scalar (or pointer for MOV/ADD).
	var src Reg
	if op == isa.OpNeg {
		src = constScalar(0)
	} else if ins.UsesX() {
		s := st.reg(ins.Src)
		if s.Type == NotInit {
			return v.errf(st.pc, "R%d !read_ok", ins.Src)
		}
		src = *s
	} else {
		src = constScalar(uint64(int64(ins.Imm)))
	}

	// MOV copies wholesale.
	if op == isa.OpMov {
		if !is64 {
			if src.Type.IsPointer() {
				return v.errf(st.pc, "R%d 32-bit pointer arithmetic prohibited", ins.Dst)
			}
			src = truncate32(src)
		}
		*dst = src
		return nil
	}

	if dst.Type == NotInit {
		return v.errf(st.pc, "R%d !read_ok", ins.Dst)
	}

	// Pointer arithmetic.
	if dst.Type.IsPointer() || src.Type.IsPointer() {
		if !is64 {
			return v.errf(st.pc, "R%d 32-bit pointer arithmetic prohibited", ins.Dst)
		}
		return v.checkPtrALU(st, ins, dst, src)
	}

	// Scalar arithmetic.
	out, err := v.adjustScalars(st, op, *dst, src, is64)
	if err != nil {
		return err
	}
	*dst = out
	return nil
}

// truncate32 models the zero-extension of 32-bit ALU results.
func truncate32(r Reg) Reg {
	if r.IsConst() {
		return constScalar(uint64(uint32(r.ConstValue())))
	}
	out := unknownScalar()
	out.Tnum = r.Tnum.Cast32()
	out.UMin, out.UMax = out.Tnum.UnsignedBounds()
	out.SMin, out.SMax = 0, math.MaxUint32
	if r.UMax <= math.MaxUint32 {
		// Value already fit in 32 bits; interval survives truncation.
		out.UMin, out.UMax = r.UMin, r.UMax
		out.SMin, out.SMax = int64(r.UMin), int64(r.UMax)
	}
	out.knownBounds()
	return out
}

// checkPtrALU handles pointer +/- scalar, the only permitted pointer
// arithmetic.
func (v *Verifier) checkPtrALU(st *state, ins isa.Instruction, dst *Reg, src Reg) error {
	op := ins.ALUOp()
	if op != isa.OpAdd && op != isa.OpSub {
		return v.errf(st.pc, "R%d pointer arithmetic with %s operator prohibited", ins.Dst, ins)
	}
	// Normalise to ptr (+/-) scalar.
	ptr, scalar := *dst, src
	if !dst.Type.IsPointer() {
		if op == isa.OpSub {
			return v.errf(st.pc, "R%d cannot subtract pointer from scalar", ins.Dst)
		}
		ptr, scalar = src, *dst
	} else if src.Type.IsPointer() {
		if op == isa.OpSub && dst.Type == PtrToPacket && src.Type == PtrToPacket {
			// pkt - pkt yields a scalar length, as the kernel allows.
			*dst = unknownScalar()
			return nil
		}
		return v.errf(st.pc, "R%d pointer %s pointer prohibited", ins.Dst, ins)
	}
	switch ptr.Type {
	case ConstPtrToMap, PtrToPacketEnd, PtrToFunc:
		return v.errf(st.pc, "R%d pointer arithmetic on %v prohibited", ins.Dst, ptr.Type)
	}
	if ptr.MaybeNull {
		return v.errf(st.pc, "R%d pointer arithmetic on %v_or_null prohibited, null check it first", ins.Dst, ptr.Type)
	}

	out := ptr
	if scalar.IsConst() {
		delta := int64(scalar.ConstValue())
		if op == isa.OpSub {
			delta = -delta
		}
		out.Off += delta
	} else {
		switch ptr.Type {
		case PtrToStack, PtrToCtx, PtrToSock, PtrToTask:
			return v.errf(st.pc, "R%d variable offset into %v prohibited", ins.Dst, ptr.Type)
		}
		if op == isa.OpSub {
			// Variable subtraction makes the minimum offset unknowable in
			// our simplified domain; the kernel tracks it via smin/smax of
			// the delta. Reject, as older kernels did.
			return v.errf(st.pc, "R%d variable pointer subtraction prohibited", ins.Dst)
		}
		// Accumulate the variable part into the pointer's scalar bounds.
		acc, err := v.adjustScalars(st, isa.OpAdd, varPart(ptr), scalar, true)
		if err != nil {
			return err
		}
		out.Tnum, out.SMin, out.SMax, out.UMin, out.UMax = acc.Tnum, acc.SMin, acc.SMax, acc.UMin, acc.UMax
	}
	*dst = out
	return nil
}

// varPart extracts the variable-offset abstraction of a pointer as a scalar.
func varPart(p Reg) Reg {
	return Reg{Type: Scalar, Tnum: p.Tnum, SMin: p.SMin, SMax: p.SMax, UMin: p.UMin, UMax: p.UMax}
}

// adjustScalars is the scalar transfer function for one ALU operation.
func (v *Verifier) adjustScalars(st *state, op uint8, dst, src Reg, is64 bool) (Reg, error) {
	// Exact evaluation when both operands are known.
	if dst.IsConst() && src.IsConst() {
		val, ok := evalConst(op, dst.ConstValue(), src.ConstValue(), is64)
		if !ok {
			return Reg{}, v.errf(st.pc, "invalid shift amount %d", src.ConstValue())
		}
		if !is64 {
			val = uint64(uint32(val))
		}
		return constScalar(val), nil
	}

	out := unknownScalar()
	switch op {
	case isa.OpAdd:
		out.Tnum = dst.Tnum.Add(src.Tnum)
		if v.cfg.Bugs.TnumAddNoCarry {
			// Reintroduced operator bug: forget that a carry can leave the
			// unknown-bit region, claiming known-zero bits that can be set.
			mu := dst.Tnum.Mask | src.Tnum.Mask
			out.Tnum = Tnum{Value: (dst.Tnum.Value + src.Tnum.Value) &^ mu, Mask: mu}
		}
		if sAddOverflows(dst.SMin, src.SMin) || sAddOverflows(dst.SMax, src.SMax) {
			out.SMin, out.SMax = math.MinInt64, math.MaxInt64
		} else {
			out.SMin, out.SMax = dst.SMin+src.SMin, dst.SMax+src.SMax
		}
		if dst.UMax+src.UMax < dst.UMax { // unsigned overflow
			out.UMin, out.UMax = 0, math.MaxUint64
		} else {
			out.UMin, out.UMax = dst.UMin+src.UMin, dst.UMax+src.UMax
		}
	case isa.OpSub:
		out.Tnum = dst.Tnum.Sub(src.Tnum)
		if sSubOverflows(dst.SMin, src.SMax) || sSubOverflows(dst.SMax, src.SMin) {
			out.SMin, out.SMax = math.MinInt64, math.MaxInt64
		} else {
			out.SMin, out.SMax = dst.SMin-src.SMax, dst.SMax-src.SMin
		}
		if dst.UMin < src.UMax { // may wrap
			out.UMin, out.UMax = 0, math.MaxUint64
		} else {
			out.UMin, out.UMax = dst.UMin-src.UMax, dst.UMax-src.UMin
		}
	case isa.OpMul:
		out.Tnum = dst.Tnum.Mul(src.Tnum)
		if dst.UMax <= math.MaxUint32 && src.UMax <= math.MaxUint32 {
			out.UMin, out.UMax = dst.UMin*src.UMin, dst.UMax*src.UMax
			if out.SMin >= 0 { // both ranges non-negative
				out.SMin, out.SMax = int64(out.UMin), int64(out.UMax)
			}
		}
	case isa.OpDiv:
		// eBPF division by zero yields zero at runtime; bounds reflect it.
		if src.IsConst() && src.ConstValue() != 0 {
			c := src.ConstValue()
			out.UMin, out.UMax = dst.UMin/c, dst.UMax/c
		} else {
			out.UMin, out.UMax = 0, dst.UMax
		}
		out.SMin, out.SMax = 0, int64min(math.MaxInt64, int64(out.UMax))
		if out.SMax < 0 {
			out.SMin, out.SMax = math.MinInt64, math.MaxInt64
		}
	case isa.OpMod:
		if src.IsConst() && src.ConstValue() != 0 {
			out.UMin, out.UMax = 0, src.ConstValue()-1
		} else if src.UMax != 0 {
			out.UMin, out.UMax = 0, maxU64(src.UMax-1, dst.UMax)
		}
		if int64(out.UMax) >= 0 {
			out.SMin, out.SMax = 0, int64(out.UMax)
		}
	case isa.OpAnd:
		out.Tnum = dst.Tnum.And(src.Tnum)
		out.UMin, out.UMax = out.Tnum.UnsignedBounds()
		if int64(out.UMax) >= 0 {
			out.SMin, out.SMax = 0, int64(out.UMax)
		}
	case isa.OpOr:
		out.Tnum = dst.Tnum.Or(src.Tnum)
		out.UMin, out.UMax = out.Tnum.UnsignedBounds()
	case isa.OpXor:
		out.Tnum = dst.Tnum.Xor(src.Tnum)
		out.UMin, out.UMax = out.Tnum.UnsignedBounds()
	case isa.OpLsh:
		if src.IsConst() {
			s := src.ConstValue() & 63 // runtime masks, so the abstraction does too
			out.Tnum = dst.Tnum.Lshift(uint8(s))
			if dst.UMax <= math.MaxUint64>>s {
				out.UMin, out.UMax = dst.UMin<<s, dst.UMax<<s
			}
		}
	case isa.OpRsh:
		if src.IsConst() {
			s := src.ConstValue() & 63
			out.Tnum = dst.Tnum.Rshift(uint8(s))
			out.UMin, out.UMax = dst.UMin>>s, dst.UMax>>s
			out.SMin, out.SMax = 0, int64(out.UMax)
		}
	case isa.OpArsh:
		if src.IsConst() {
			s := src.ConstValue() & 63
			out.Tnum = dst.Tnum.Arshift(uint8(s))
			out.SMin, out.SMax = dst.SMin>>s, dst.SMax>>s
		}
	case isa.OpNeg:
		zero := constScalar(0)
		return v.adjustScalars(st, isa.OpSub, zero, dst, is64)
	case isa.OpEnd:
		// Byte swap: value becomes unknown but stays bounded by width.
	default:
		return Reg{}, v.errf(st.pc, "unknown ALU op %#x", op)
	}
	if !is64 {
		out = truncate32(out)
	}
	out.knownBounds()
	return out, nil
}

func evalConst(op uint8, a, b uint64, is64 bool) (uint64, bool) {
	width := uint64(64)
	if !is64 {
		width = 32
	}
	switch op {
	case isa.OpAdd:
		return a + b, true
	case isa.OpSub:
		return a - b, true
	case isa.OpMul:
		return a * b, true
	case isa.OpDiv:
		if b == 0 {
			return 0, true
		}
		return a / b, true
	case isa.OpMod:
		if b == 0 {
			return a, true
		}
		return a % b, true
	case isa.OpAnd:
		return a & b, true
	case isa.OpOr:
		return a | b, true
	case isa.OpXor:
		return a ^ b, true
	case isa.OpLsh:
		return a << (b & (width - 1)), true
	case isa.OpRsh:
		b &= width - 1
		if !is64 {
			return uint64(uint32(a) >> b), true
		}
		return a >> b, true
	case isa.OpArsh:
		b &= width - 1
		if !is64 {
			return uint64(uint32(int32(uint32(a)) >> b)), true
		}
		return uint64(int64(a) >> b), true
	case isa.OpNeg:
		return -a, true
	case isa.OpEnd:
		return a, true
	}
	return 0, false
}

func sAddOverflows(a, b int64) bool {
	s := a + b
	return (b > 0 && s < a) || (b < 0 && s > a)
}

func sSubOverflows(a, b int64) bool {
	s := a - b
	return (b < 0 && s < a) || (b > 0 && s > a)
}

func int64min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// ---- wide immediates -------------------------------------------------------

func (v *Verifier) checkLoadImm(st *state, ins isa.Instruction) error {
	dst := st.reg(ins.Dst)
	switch {
	case ins.IsMapRef():
		name := ins.MapName
		meta := v.maps[name]
		if meta == nil {
			return v.errf(st.pc, "unknown map %q", name)
		}
		*dst = Reg{Type: ConstPtrToMap, Map: meta}
	case ins.IsFuncRef():
		if !v.cfg.AllowCallbacks {
			return v.errf(st.pc, "callback references not supported by this kernel")
		}
		*dst = Reg{Type: PtrToFunc, FuncPC: int32(ins.Const)}
	default:
		*dst = constScalar(uint64(ins.Const))
	}
	return nil
}

// ---- memory access -----------------------------------------------------------

func (v *Verifier) checkLoad(st *state, ins isa.Instruction) error {
	if ins.Dst == isa.R10 {
		return v.errf(st.pc, "frame pointer is read only")
	}
	src := st.reg(ins.Src)
	size := int64(isa.SizeBytes(ins.Size()))
	loaded, err := v.checkMemAccess(st, ins.Src, src, int64(ins.Off), size, false)
	if err != nil {
		return err
	}
	*st.reg(ins.Dst) = loaded
	return nil
}

func (v *Verifier) checkStore(st *state, ins isa.Instruction) error {
	dst := st.reg(ins.Dst)
	size := int64(isa.SizeBytes(ins.Size()))

	if ins.Class() == isa.ClassSTX && ins.Mode() == isa.ModeATOMIC {
		return v.checkAtomic(st, ins)
	}

	var valIsZero bool
	var spillSrc *Reg
	if ins.Class() == isa.ClassSTX {
		s := st.reg(ins.Src)
		if s.Type == NotInit {
			return v.errf(st.pc, "R%d !read_ok", ins.Src)
		}
		if s.Type.IsPointer() && dst.Type != PtrToStack && !v.cfg.Bugs.AllowPtrStore {
			return v.errf(st.pc, "R%d leaks pointer into %v memory", ins.Src, dst.Type)
		}
		spillSrc = s
		valIsZero = s.IsConst() && s.ConstValue() == 0
	} else {
		valIsZero = ins.Imm == 0
	}

	if dst.Type == PtrToStack {
		return v.stackWrite(st, dst, int64(ins.Off), size, spillSrc, valIsZero)
	}
	_, err := v.checkMemAccess(st, ins.Dst, dst, int64(ins.Off), size, true)
	return err
}

func (v *Verifier) checkAtomic(st *state, ins isa.Instruction) error {
	dst := st.reg(ins.Dst)
	src := st.reg(ins.Src)
	if src.Type == NotInit {
		return v.errf(st.pc, "R%d !read_ok", ins.Src)
	}
	if src.Type.IsPointer() {
		return v.errf(st.pc, "R%d atomic operand must be scalar", ins.Src)
	}
	size := int64(isa.SizeBytes(ins.Size()))
	if size != 4 && size != 8 {
		return v.errf(st.pc, "atomic access size %d not allowed", size)
	}
	switch dst.Type {
	case PtrToMapValue, PtrToStack, PtrToMem:
	default:
		return v.errf(st.pc, "atomic access to %v prohibited", dst.Type)
	}
	if dst.Type == PtrToStack {
		// Read-modify-write on the stack: treat as misc data write.
		return v.stackWrite(st, dst, int64(ins.Off), size, nil, false)
	}
	if _, err := v.checkMemAccess(st, ins.Dst, dst, int64(ins.Off), size, true); err != nil {
		return err
	}
	if ins.Imm&isa.AtomicFetch != 0 || ins.Imm == isa.AtomicXchg || ins.Imm == isa.AtomicCmpXchg {
		*st.reg(ins.Src) = unknownScalar()
	}
	return nil
}

// checkMemAccess validates one load/store through a pointer register and
// returns the abstract loaded value (for loads).
func (v *Verifier) checkMemAccess(st *state, regNo isa.Register, r *Reg, off, size int64, write bool) (Reg, error) {
	if r.Type == NotInit {
		return Reg{}, v.errf(st.pc, "R%d !read_ok", regNo)
	}
	if !r.Type.readableMem() {
		return Reg{}, v.errf(st.pc, "R%d invalid mem access '%v'", regNo, r.Type)
	}
	if r.MaybeNull {
		return Reg{}, v.errf(st.pc, "R%d invalid mem access '%v_or_null'", regNo, r.Type)
	}

	lo := r.Off + int64(r.UMin) + off
	hi := r.Off + int64(r.UMax) + off
	if r.UMax > math.MaxInt32 {
		return Reg{}, v.errf(st.pc, "R%d unbounded memory access", regNo)
	}

	switch r.Type {
	case PtrToStack:
		if write {
			// Callers route stack writes through stackWrite; reads here.
			panic("verifier: stack write through checkMemAccess")
		}
		return v.stackRead(st, r, off, size)

	case PtrToCtx:
		if write {
			return Reg{}, v.errf(st.pc, "write into ctx prohibited")
		}
		return v.ctxLoad(st, lo, hi, size)

	case PtrToMapValue:
		vs := int64(r.Map.ValueSize)
		guard := int64(0)
		if r.Map.HasLock {
			guard = 8 // the spin-lock header is off limits to direct access
		}
		if lo < guard || hi+size > vs {
			return Reg{}, v.errf(st.pc, "invalid access to map value, off=%d size=%d value_size=%d", lo, size, vs)
		}
		return unknownScalar(), nil

	case PtrToMem:
		if lo < 0 || hi+size > r.MemSize {
			return Reg{}, v.errf(st.pc, "invalid access to memory, off=%d size=%d mem_size=%d", lo, size, r.MemSize)
		}
		return unknownScalar(), nil

	case PtrToPacket:
		if !v.cfg.AllowPacketAccess {
			return Reg{}, v.errf(st.pc, "direct packet access not supported")
		}
		if write && v.prog.Type != isa.XDP {
			return Reg{}, v.errf(st.pc, "write into packet prohibited for %v", v.prog.Type)
		}
		if lo < 0 || hi+size > r.PktRange {
			return Reg{}, v.errf(st.pc, "invalid access to packet, off=%d size=%d range=%d; use 'if pkt + n > data_end' first", lo, size, r.PktRange)
		}
		return unknownScalar(), nil

	case PtrToSock:
		if write && !(lo >= 0 && hi+size <= 4) {
			return Reg{}, v.errf(st.pc, "write to sock beyond mark field prohibited")
		}
		if lo < 0 || hi+size > 64 {
			return Reg{}, v.errf(st.pc, "invalid sock access off=%d size=%d", lo, size)
		}
		return unknownScalar(), nil

	case PtrToTask:
		if write {
			return Reg{}, v.errf(st.pc, "write into task_struct prohibited")
		}
		if lo < 0 || hi+size > 64 {
			return Reg{}, v.errf(st.pc, "invalid task_struct access off=%d size=%d", lo, size)
		}
		return unknownScalar(), nil
	}
	return Reg{}, v.errf(st.pc, "R%d invalid mem access '%v'", regNo, r.Type)
}

// ctxLoad validates a context load and synthesises the loaded type.
func (v *Verifier) ctxLoad(st *state, lo, hi, size int64) (Reg, error) {
	if lo != hi {
		return Reg{}, v.errf(st.pc, "variable ctx access prohibited")
	}
	cs := ctxSize(v.prog.Type)
	if lo < 0 || lo+size > cs {
		return Reg{}, v.errf(st.pc, "invalid bpf_context access off=%d size=%d", lo, size)
	}
	if v.prog.Type == isa.SocketFilter || v.prog.Type == isa.XDP {
		switch lo {
		case helpers.SkbOffData:
			if size != 8 {
				return Reg{}, v.errf(st.pc, "ctx data field requires 8-byte load")
			}
			if !v.cfg.AllowPacketAccess {
				return unknownScalar(), nil
			}
			return Reg{Type: PtrToPacket}, nil
		case helpers.SkbOffDataEnd:
			if size != 8 {
				return Reg{}, v.errf(st.pc, "ctx data_end field requires 8-byte load")
			}
			if !v.cfg.AllowPacketAccess {
				return unknownScalar(), nil
			}
			return Reg{Type: PtrToPacketEnd}, nil
		}
		if lo < 16 {
			return Reg{}, v.errf(st.pc, "misaligned ctx pointer-field access at off=%d", lo)
		}
	}
	return unknownScalar(), nil
}

// ---- stack -------------------------------------------------------------------

// stackOffset resolves a stack access to a byte offset from the frame
// bottom, requiring a constant offset as the kernel does for spills.
func (v *Verifier) stackOffset(st *state, r *Reg, off, size int64) (int64, error) {
	if !r.Tnum.IsConst() && r.UMin != r.UMax {
		return 0, v.errf(st.pc, "variable stack access prohibited, off=%d", off)
	}
	at := r.Off + int64(r.UMin) + off
	if at < 0 || at+size > StackSize {
		return 0, v.errf(st.pc, "invalid stack access off=%d size=%d", at-StackSize, size)
	}
	return at, nil
}

func (v *Verifier) stackWrite(st *state, r *Reg, off, size int64, spill *Reg, zero bool) error {
	at, err := v.stackOffset(st, r, off, size)
	if err != nil {
		return err
	}
	f := st.cur()
	if size == 8 && at%8 == 0 && spill != nil {
		f.set(at/8, stackSlot{kind: slotSpill, spill: *spill})
		return nil
	}
	if spill != nil && spill.Type.IsPointer() {
		return v.errf(st.pc, "partial spill of pointer R%d prohibited", 0)
	}
	kind := slotMisc
	if zero && size == 8 && at%8 == 0 {
		kind = slotZero
	}
	for slot := at / 8; slot <= (at+size-1)/8; slot++ {
		f.set(slot, stackSlot{kind: kind})
	}
	return nil
}

func (v *Verifier) stackRead(st *state, r *Reg, off, size int64) (Reg, error) {
	at, err := v.stackOffset(st, r, off, size)
	if err != nil {
		return Reg{}, err
	}
	f := st.cur()
	if size == 8 && at%8 == 0 {
		slot := f.slot(at / 8)
		switch slot.kind {
		case slotSpill:
			return slot.spill, nil
		case slotZero:
			return constScalar(0), nil
		case slotMisc:
			return unknownScalar(), nil
		}
		return Reg{}, v.errf(st.pc, "invalid read from stack off %d: uninitialized", at-StackSize)
	}
	for slot := at / 8; slot <= (at+size-1)/8; slot++ {
		s := f.slot(slot)
		if s.kind == slotInvalid {
			return Reg{}, v.errf(st.pc, "invalid read from stack off %d: uninitialized", at-StackSize)
		}
		if s.kind == slotSpill && s.spill.Type.IsPointer() {
			return Reg{}, v.errf(st.pc, "partial read of spilled pointer prohibited")
		}
	}
	if allZero := func() bool {
		for slot := at / 8; slot <= (at+size-1)/8; slot++ {
			if f.slot(slot).kind != slotZero {
				return false
			}
		}
		return true
	}(); allZero {
		return constScalar(0), nil
	}
	return unknownScalar(), nil
}

// stackReadable verifies that [off, off+size) of the stack is initialized,
// for helper buffer arguments.
func (v *Verifier) stackReadable(st *state, r *Reg, size int64) error {
	at, err := v.stackOffset(st, r, 0, size)
	if err != nil {
		return err
	}
	f := st.cur()
	for slot := at / 8; slot <= (at+size-1)/8; slot++ {
		if f.slot(slot).kind == slotInvalid {
			return v.errf(st.pc, "invalid indirect read from stack off %d+%d", at-StackSize, size)
		}
	}
	return nil
}

// stackWritable marks [off, off+size) as written, for helper output
// buffer arguments.
func (v *Verifier) stackWritable(st *state, r *Reg, size int64) error {
	at, err := v.stackOffset(st, r, 0, size)
	if err != nil {
		return err
	}
	f := st.cur()
	for slot := at / 8; slot <= (at+size-1)/8; slot++ {
		f.set(slot, stackSlot{kind: slotMisc})
	}
	return nil
}
