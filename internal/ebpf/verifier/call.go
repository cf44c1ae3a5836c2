package verifier

import (
	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
)

// maxHelperArgBuf caps the size of variable-length helper buffers, like the
// kernel's restrictions on ARG_CONST_SIZE.
const maxHelperArgBuf = 1 << 20

// checkHelperCall validates a call against the helper's argument
// specification, applies the reference/lock effects, and models the return
// value. The argument checking is deliberately *shallow* — pointer fields
// inside union-typed buffers are not inspected — reproducing the weakness
// §2.2 exploits.
func (v *Verifier) checkHelperCall(st *state, ins isa.Instruction) error {
	spec, ok := v.reg.ByID(helpers.ID(ins.Imm))
	if !ok {
		return v.errf(st.pc, "invalid func id %d", ins.Imm)
	}
	if !v.cfg.AllowRefHelpers && (spec.AcquiresRef || spec.ReleasesRef) {
		return v.errf(st.pc, "helper %s not supported by this kernel", spec.Name)
	}
	if !v.cfg.AllowSpinLock && (spec.Name == "bpf_spin_lock" || spec.Name == "bpf_spin_unlock") {
		return v.errf(st.pc, "helper %s not supported by this kernel", spec.Name)
	}
	if st.lockHeld != 0 && spec.Name != "bpf_spin_unlock" {
		return v.errf(st.pc, "helper call %s prohibited while holding a spin lock", spec.Name)
	}

	var argMap *MapMeta
	var releaseID int
	v.lastConstSize = 0
	fact := v.fact(st.pc)
	for i, at := range spec.Args {
		if i >= 5 {
			return v.errf(st.pc, "helper %s declares too many args", spec.Name)
		}
		r := st.reg(isa.Register(i + 1)) // R1..R5
		if r.Type == NotInit && at != ArgDontCare {
			return v.errf(st.pc, "R%d !read_ok", i+1)
		}
		switch at {
		case helpers.ArgAnything:
			// Initialized is enough.
		case helpers.ArgScalar:
			if r.Type != Scalar {
				return v.errf(st.pc, "R%d type=%v expected=scalar for %s", i+1, r.Type, spec.Name)
			}
		case helpers.ArgConstMapHandle:
			if r.Type != ConstPtrToMap {
				return v.errf(st.pc, "R%d type=%v expected=map_ptr for %s", i+1, r.Type, spec.Name)
			}
			argMap = r.Map
			fact.Map.join(r.Map, true)
		case helpers.ArgPtrToMapKey:
			if argMap == nil {
				return v.errf(st.pc, "helper %s: map key arg without map arg", spec.Name)
			}
			if err := v.checkBufferArg(st, i+1, r, int64(argMap.KeySize), false); err != nil {
				return err
			}
			fact.Key.join(stackConst(st, r))
		case helpers.ArgPtrToMapValue:
			if argMap == nil {
				return v.errf(st.pc, "helper %s: map value arg without map arg", spec.Name)
			}
			if err := v.checkBufferArg(st, i+1, r, int64(argMap.ValueSize), false); err != nil {
				return err
			}
		case helpers.ArgPtrToMem, helpers.ArgPtrToUninitMem, helpers.ArgPtrToUnion:
			size, err := v.sizeOfNextArg(st, spec, i)
			if err != nil {
				return err
			}
			// Shallow check: the buffer must be readable (or writable) at
			// the declared size — its *contents* are never inspected, even
			// for ArgPtrToUnion whose variants may hold pointers.
			if err := v.checkBufferArg(st, i+1, r, size, at == helpers.ArgPtrToUninitMem); err != nil {
				return err
			}
		case helpers.ArgConstSize, helpers.ArgConstSizeOrZero:
			if r.Type != Scalar {
				return v.errf(st.pc, "R%d type=%v expected=size for %s", i+1, r.Type, spec.Name)
			}
			if r.UMax > maxHelperArgBuf {
				return v.errf(st.pc, "R%d unbounded size for %s (umax=%d)", i+1, spec.Name, r.UMax)
			}
			if at == helpers.ArgConstSize && r.UMin == 0 && r.UMax == 0 {
				return v.errf(st.pc, "R%d zero-size buffer for %s", i+1, spec.Name)
			}
			if r.IsConst() {
				v.lastConstSize = int64(r.ConstValue())
			}
		case helpers.ArgPtrToCtx:
			if r.Type != PtrToCtx {
				return v.errf(st.pc, "R%d type=%v expected=ctx for %s", i+1, r.Type, spec.Name)
			}
		case helpers.ArgPtrToStack:
			if r.Type != PtrToStack {
				return v.errf(st.pc, "R%d type=%v expected=stack for %s", i+1, r.Type, spec.Name)
			}
		case helpers.ArgPtrToLock:
			if r.Type != PtrToMapValue || r.Map == nil || !r.Map.HasLock {
				return v.errf(st.pc, "R%d expected pointer to map value with bpf_spin_lock for %s", i+1, spec.Name)
			}
			if r.MaybeNull {
				return v.errf(st.pc, "R%d possibly-NULL lock pointer for %s", i+1, spec.Name)
			}
		case helpers.ArgPtrToSock:
			if r.Type != PtrToSock {
				return v.errf(st.pc, "R%d type=%v expected=sock for %s", i+1, r.Type, spec.Name)
			}
			if r.MaybeNull {
				return v.errf(st.pc, "R%d possibly-NULL sock for %s", i+1, spec.Name)
			}
			if spec.ReleasesRef {
				releaseID = r.RefID
			}
		case helpers.ArgPtrToTask:
			// Shallow: the type must be task, but nullness is NOT checked
			// — the exact gap behind the bpf_task_storage_get bug. A
			// literal NULL constant also passes, as it did upstream.
			if r.Type != PtrToTask && !(r.IsConst() && r.ConstValue() == 0) {
				return v.errf(st.pc, "R%d type=%v expected=task for %s", i+1, r.Type, spec.Name)
			}
		case helpers.ArgPtrToFunc:
			if !v.cfg.AllowCallbacks {
				return v.errf(st.pc, "callbacks not supported by this kernel")
			}
			if r.Type != PtrToFunc {
				return v.errf(st.pc, "R%d type=%v expected=func for %s", i+1, r.Type, spec.Name)
			}
			if err := v.verifyCallback(st, r.FuncPC); err != nil {
				return err
			}
		default:
			return v.errf(st.pc, "helper %s: unhandled arg type %v", spec.Name, at)
		}
	}

	// Releasing helpers other than sock-typed (ringbuf submit/discard)
	// release the reference carried by their first pointer argument.
	if spec.ReleasesRef && releaseID == 0 {
		r1 := st.reg(isa.R1)
		releaseID = r1.RefID
	}
	if spec.ReleasesRef {
		if releaseID == 0 || !st.releaseRef(releaseID) {
			return v.errf(st.pc, "helper %s: release of unacquired reference", spec.Name)
		}
		if !v.cfg.Bugs.SkipReleaseScrub {
			st.dropRefEverywhere(releaseID)
		}
	}

	// Lock effects.
	switch spec.Name {
	case "bpf_spin_lock":
		if st.lockHeld != 0 {
			return v.errf(st.pc, "second bpf_spin_lock while first is held")
		}
		st.lockHeld = 1
	case "bpf_spin_unlock":
		if st.lockHeld == 0 {
			return v.errf(st.pc, "bpf_spin_unlock without held lock")
		}
		st.lockHeld = 0
	}

	// Clobber caller-saved registers and model the return value.
	for r := isa.R1; r <= isa.R5; r++ {
		*st.reg(r) = Reg{Type: NotInit}
	}
	r0 := st.reg(isa.R0)
	switch spec.Ret {
	case helpers.RetInteger:
		*r0 = unknownScalar()
	case helpers.RetVoid:
		*r0 = Reg{Type: NotInit}
	case helpers.RetMapValueOrNull:
		if argMap == nil {
			return v.errf(st.pc, "helper %s returns map value but takes no map", spec.Name)
		}
		*r0 = Reg{Type: PtrToMapValue, Map: argMap, MaybeNull: !v.cfg.Bugs.MapValueNullUntracked, Tnum: TnumConst(0)}
	case helpers.RetSockOrNull:
		v.nextRef++
		*r0 = Reg{Type: PtrToSock, MaybeNull: true, RefID: v.nextRef, Tnum: TnumConst(0)}
		st.acquireRef(v.nextRef)
	case helpers.RetMemOrNull:
		// Size comes from the preceding const-size argument
		// (ringbuf_reserve's R2), which must be an exact constant.
		size := v.lastConstSize
		if size <= 0 {
			return v.errf(st.pc, "helper %s: mem return requires constant size argument", spec.Name)
		}
		v.nextRef++
		*r0 = Reg{Type: PtrToMem, MemSize: size, MaybeNull: true, RefID: v.nextRef, Tnum: TnumConst(0)}
		st.acquireRef(v.nextRef)
	}
	return nil
}

// CallFact is what every state the verifier stepped through one helper
// call agreed on, joined visit by visit: the kernel's map_ptr_state and
// map_key_state (bpf_insn_aux_data, set by record_func_map and
// record_func_key). Facts take no part in pruning. A path pruned before
// the call would have reached it in a state that a stepped one
// generalizes, and Reg.generalizes keeps both a map handle's map and a
// stack pointer's offset, so the stepped states' facts cover it.
type CallFact struct {
	// Map is the map the ArgConstMapHandle argument names.
	Map Fact[*MapMeta]
	// Key is the ArgPtrToMapKey argument's 8-byte stack slot, when it holds
	// a constant: known zero, or a spilled constant scalar.
	Key Fact[uint64]
}

// Fact is one joined fact: unset before the first visit, then the value
// every visit agreed on, poisoned once two visits disagree or one had no
// value.
type Fact[T comparable] struct {
	v     T
	state uint8 // factUnset, factKnown or factPoisoned
}

const (
	factUnset uint8 = iota
	factKnown
	factPoisoned
)

// Get returns the value every visit agreed on, if there is one.
func (f Fact[T]) Get() (T, bool) { return f.v, f.state == factKnown }

// join merges one visit's value (ok false: the visit had none) into f.
func (f *Fact[T]) join(v T, ok bool) {
	switch {
	case f.state == factPoisoned:
	case ok && (f.state == factUnset || f.v == v):
		f.v, f.state = v, factKnown
	default:
		var zero T
		f.v, f.state = zero, factPoisoned
	}
}

// fact returns the joined facts of the helper call at pc, allocating the
// program's fact array at the first call visited.
func (v *Verifier) fact(pc int) *CallFact {
	if v.res.Facts == nil {
		v.res.Facts = make([]CallFact, len(v.prog.Insns))
	}
	return &v.res.Facts[pc]
}

// stackConst reads the 8-byte stack slot r points at as a constant: known
// zero, or a spilled scalar whose every bit is known.
func stackConst(st *state, r *Reg) (uint64, bool) {
	if r.Type != PtrToStack || r.Tnum.Mask != 0 {
		return 0, false
	}
	i := (r.Off + int64(r.Tnum.Value)) / 8
	if i < 0 || i >= stackSlots {
		return 0, false
	}
	switch s := st.cur().slot(i); {
	case s.kind == slotZero:
		return 0, true
	case s.kind == slotSpill && s.spill.Type == Scalar && s.spill.Tnum.Mask == 0:
		return s.spill.Tnum.Value, true
	}
	return 0, false
}

// ArgDontCare is a placeholder for uninit-allowed positions (none today).
const ArgDontCare = helpers.ArgType(-1)

// sizeOfNextArg resolves the buffer size declared by the following
// ArgConstSize argument; it also remembers the value for RetMemOrNull.
func (v *Verifier) sizeOfNextArg(st *state, spec *helpers.Spec, i int) (int64, error) {
	if i+1 >= len(spec.Args) ||
		(spec.Args[i+1] != helpers.ArgConstSize && spec.Args[i+1] != helpers.ArgConstSizeOrZero) {
		return 0, v.errf(st.pc, "helper %s: mem arg %d without size arg", spec.Name, i+1)
	}
	sz := st.reg(isa.Register(i + 2))
	if sz.Type != Scalar {
		return 0, v.errf(st.pc, "R%d type=%v expected=size for %s", i+2, sz.Type, spec.Name)
	}
	if sz.UMax > maxHelperArgBuf {
		return 0, v.errf(st.pc, "R%d unbounded size for %s (umax=%d)", i+2, spec.Name, sz.UMax)
	}
	v.lastConstSize = 0
	if sz.IsConst() {
		v.lastConstSize = int64(sz.ConstValue())
	}
	return int64(sz.UMax), nil
}

// checkBufferArg validates that a pointer argument references size
// readable (or writable) bytes.
func (v *Verifier) checkBufferArg(st *state, regNo int, r *Reg, size int64, forWrite bool) error {
	if r.MaybeNull {
		return v.errf(st.pc, "R%d possibly-NULL buffer", regNo)
	}
	if size == 0 {
		return nil
	}
	switch r.Type {
	case PtrToStack:
		if forWrite {
			return v.stackWritable(st, r, size)
		}
		return v.stackReadable(st, r, size)
	case PtrToMapValue, PtrToMem, PtrToPacket:
		_, err := v.checkMemAccess(st, isa.Register(regNo), r, 0, size, false)
		return err
	case PtrToCtx:
		// Context buffers are permitted for helpers that take the ctx as
		// a memory blob (e.g. bpf_sys_bpf union args filled from ctx).
		cs := ctxSize(v.prog.Type)
		if r.Off < 0 || r.Off+size > cs {
			return v.errf(st.pc, "invalid ctx buffer off=%d size=%d", r.Off, size)
		}
		return nil
	}
	return v.errf(st.pc, "R%d type=%v not usable as helper buffer", regNo, r.Type)
}

// checkBPFCall handles BPF-to-BPF calls by pushing a new verifier frame.
func (v *Verifier) checkBPFCall(st *state, ins isa.Instruction) error {
	if !v.cfg.AllowBPFCalls {
		return v.errf(st.pc, "BPF-to-BPF calls not supported by this kernel")
	}
	if len(st.frames) >= v.cfg.MaxCallDepth {
		return v.errf(st.pc, "the call stack of %d frames is too deep", len(st.frames)+1)
	}
	if st.lockHeld != 0 {
		return v.errf(st.pc, "function call prohibited while holding a spin lock")
	}
	callee := newFrame()
	cur := st.cur()
	for r := isa.R1; r <= isa.R5; r++ {
		callee.regs[r] = cur.regs[r]
	}
	callee.callPC = st.pc + 1
	st.frames = append(st.frames, callee)
	st.pc = st.pc + 1 + int(ins.Imm)
	return nil
}

// checkExit handles the exit instruction: function return for inner
// frames, program exit (with obligations audit) for the main frame.
func (v *Verifier) checkExit(st *state) (bool, *state, error) {
	r0 := st.reg(isa.R0)
	if r0.Type == NotInit {
		return false, nil, v.errf(st.pc, "R0 !read_ok: exit without return value")
	}
	if len(st.frames) > 1 {
		// Return from a BPF-to-BPF function.
		ret := *r0
		if ret.Type != Scalar {
			ret = unknownScalar() // pointer returns degrade to scalars for the caller
		}
		callee := st.cur()
		st.frames = st.frames[:len(st.frames)-1]
		caller := st.cur()
		caller.regs[isa.R0] = ret
		for r := isa.R1; r <= isa.R5; r++ {
			caller.regs[r] = Reg{Type: NotInit}
		}
		st.pc = callee.callPC
		return true, nil, nil
	}
	if r0.Type != Scalar {
		return false, nil, v.errf(st.pc, "R0 must be a scalar at program exit, got %v", r0.Type)
	}
	if st.lockHeld != 0 {
		return false, nil, v.errf(st.pc, "bpf_spin_lock is not released at exit")
	}
	if len(st.refs) > 0 {
		return false, nil, v.errf(st.pc, "Unreleased reference id=%d", st.refs[0])
	}
	return false, nil, nil
}

// verifyCallback checks a callback function body in isolation: entered
// with three scalar arguments, it must exit cleanly with a scalar R0 and
// no leaked obligations. Results are memoized per entry point.
func (v *Verifier) verifyCallback(st *state, pc int32) error {
	if v.verifiedCB[pc] {
		return nil
	}
	if st.callbackDepth >= 2 {
		return v.errf(st.pc, "callback nesting too deep")
	}
	v.verifiedCB[pc] = true // pre-mark: recursive callbacks converge
	entry := newState()
	entry.pc = int(pc)
	entry.callbackDepth = st.callbackDepth + 1
	for r := isa.R1; r <= isa.R3; r++ {
		*entry.reg(r) = unknownScalar()
	}
	if err := v.explore(entry); err != nil {
		delete(v.verifiedCB, pc)
		return err
	}
	return nil
}
