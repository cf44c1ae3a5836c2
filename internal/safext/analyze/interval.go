package analyze

import (
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
)

// Vals is the interval domain's state: one abstract value per vreg of the
// function (index 0, "no vreg", unused).
type Vals []Val

// Types is what the interval domain needs from the type checker, which MIR
// does not carry: which parameters and which function results are bools,
// and so always 0 or 1.
type Types struct {
	BoolParams []bool
	BoolFuncs  map[string]bool
}

// TypesOf collects fn's Types from a checked program.
func TypesOf(checked *lang.Checked, fn *lang.FuncDecl) Types {
	t := Types{BoolFuncs: make(map[string]bool)}
	for _, p := range fn.Params {
		t.BoolParams = append(t.BoolParams, p.Type.Kind == lang.TypeBool)
	}
	for _, d := range checked.File.Funcs {
		if d.Ret.Kind == lang.TypeBool {
			t.BoolFuncs[d.Name] = true
		}
	}
	return t
}

// crateReturns over-approximates kernel-crate return values where the crate
// contract pins a range: the pkt readers return -1 (out of bounds) or the
// zero-extended value. Bool-returning entry points are 0/1 by their type;
// everything else is ⊤.
var crateReturns = map[string]Val{
	"pkt_read_u8":  {Min: -1, Max: 255, Bits: Bits{Mask: ^uint64(0)}},
	"pkt_read_u16": {Min: -1, Max: 1<<16 - 1, Bits: Bits{Mask: ^uint64(0)}},
	"pkt_read_u32": {Min: -1, Max: 1<<32 - 1, Bits: Bits{Mask: ^uint64(0)}},
}

// intervals is the interval + known-bits domain as a Domain over MIR. Every
// vreg starts at ⊤ (a vreg is always written before it is read, so the
// entry value only reaches joins that a later write overrides).
type intervals struct {
	f     *mir.Func
	types Types
	// loopDefs marks, per loop, the vregs defined inside it: the only
	// values Widen may jump.
	loopDefs map[*mir.Loop][]bool
}

func newIntervals(f *mir.Func, types Types) *intervals {
	d := &intervals{f: f, types: types, loopDefs: make(map[*mir.Loop][]bool, len(f.Loops))}
	for _, l := range f.Loops {
		defs := make([]bool, f.NumVRegs+1)
		for _, id := range l.Blocks {
			if b := f.BlockByID(id); b != nil {
				for i := range b.Insns {
					defs[b.Insns[i].Dst] = true
				}
			}
		}
		d.loopDefs[l] = defs
	}
	return d
}

func (d *intervals) entry() Vals {
	st := make(Vals, d.f.NumVRegs+1)
	for i := range st {
		st[i] = Top()
	}
	return st
}

func (d *intervals) Copy(dst, src Vals) Vals { return append(dst[:0], src...) }

func (d *intervals) Transfer(b *mir.Block, st Vals) Vals {
	for i := range b.Insns {
		d.step(st, &b.Insns[i])
	}
	return st
}

// step applies one instruction to st.
func (d *intervals) step(st Vals, in *mir.Insn) {
	if in.Dst == 0 {
		return
	}
	v := Top()
	switch in.Op {
	case mir.OpParam:
		if i := int(in.Imm); i < len(d.types.BoolParams) && d.types.BoolParams[i] {
			v = Range(0, 1)
		}
	case mir.OpConst:
		v = Const(in.Imm)
	case mir.OpCopy:
		v = st[in.A]
	case mir.OpNeg:
		v = st[in.A].Neg()
	case mir.OpBin:
		v = binary(in.Bin, st[in.A], st.operandB(in))
	case mir.OpCmp:
		v = compare(in.Bin, st[in.A], st.operandB(in))
	case mir.OpArrLoad:
		v = Range(0, 255) // byte load
	case mir.OpCallCrate:
		if r, ok := crateReturns[in.Name]; ok {
			v = r
		} else if lang.Crate[in.Name].Ret.Kind == lang.TypeBool {
			v = Range(0, 1)
		}
	case mir.OpCallUser:
		if d.types.BoolFuncs[in.Name] {
			v = Range(0, 1)
		}
	}
	st[in.Dst] = v
}

// operandB is an instruction's B operand, a vreg or a folded immediate.
func (st Vals) operandB(in *mir.Insn) Val {
	if in.BIsImm {
		return Const(in.BImm)
	}
	return st[in.B]
}

// binary is the transfer of the ISA's 64-bit ALU operators.
func binary(op string, a, b Val) Val {
	switch op {
	case "+":
		return a.Add(b)
	case "-":
		return a.Sub(b)
	case "*":
		return a.Mul(b)
	case "/":
		return a.Div(b)
	case "%":
		return a.Mod(b)
	case "&":
		return a.And(b)
	case "|":
		return a.Or(b)
	case "^":
		return a.Xor(b)
	case "<<":
		return a.Shl(b)
	case ">>":
		return a.Shr(b)
	}
	return Top()
}

// compare is a comparison's 0/1 result. An equality against zero (how
// `!` lowers) is decided when the other side is zero or never is.
func compare(rel string, a, b Val) Val {
	if (rel == "==" || rel == "!=") && b == Const(0) && (a == Const(0) || a.NonZero()) {
		if (a == Const(0)) == (rel == "==") {
			return Const(1)
		}
		return Const(0)
	}
	return Range(0, 1)
}

// Edge refines a TermCond's operands by the relation its edge proves: the
// relation itself on the true edge, its negation on the false one.
func (d *intervals) Edge(b *mir.Block, to mir.BlockID, st Vals) Vals {
	t := &b.Term
	if t.Kind != mir.TermCond || t.To == t.Else {
		return st
	}
	rel := t.Rel
	if to == t.Else && !mir.MutantActive("refine-false-edge") {
		rel = negatedCmp[rel]
	}
	a, bv := st[t.A], st.termB(t)
	st[t.A] = refineVal(a, rel, bv, t.Signed)
	if !t.BIsImm && t.B != t.A {
		st[t.B] = refineVal(bv, flippedCmp[rel], a, t.Signed)
	}
	return st
}

func (st Vals) termB(t *mir.Terminator) Val {
	if t.BIsImm {
		return Const(t.BImm)
	}
	return st[t.B]
}

func (d *intervals) Join(old, in Vals) (Vals, bool) {
	changed := false
	for i := range old {
		if j := Join(old[i], in[i]); j != old[i] {
			old[i], changed = j, true
		}
	}
	return old, changed
}

func (d *intervals) Widen(old, in Vals, l *mir.Loop) (Vals, bool) {
	defs := d.loopDefs[l]
	changed := false
	for i := range old {
		j := Join(old[i], in[i])
		if defs[i] {
			j = Widen(old[i], j)
		}
		if j != old[i] {
			old[i], changed = j, true
		}
	}
	return old, changed
}

// Intervals runs the interval + known-bits domain over f. The result is
// nil when the analysis ran out of budget.
func Intervals(f *mir.Func, types Types, budget *int) *IntervalFlow {
	d := newIntervals(f, types)
	fl, ok := Forward[Vals](f, d, d.entry(), budget)
	if !ok {
		return nil
	}
	return &IntervalFlow{d: d, flow: fl}
}

// IntervalFlow is a converged interval analysis of one function.
type IntervalFlow struct {
	d    *intervals
	flow *Flow[Vals]
}

// walk replays every reached block, calling visit before each instruction
// with the state that instruction reads. visit must not keep st. walk
// replays in place, so it uses the flow up: call it once, last.
func (r *IntervalFlow) walk(visit func(in *mir.Insn, st Vals)) {
	for _, b := range r.d.f.Blocks {
		st, ok := r.flow.At(b.ID)
		if !ok {
			continue
		}
		for i := range b.Insns {
			visit(&b.Insns[i], st)
			r.d.step(st, &b.Insns[i])
		}
	}
}

// endpoints lists, once each, the finite bounds of every vreg's value at
// the entry of every reached block. Call it before walk, which replays
// the entry states in place.
func (r *IntervalFlow) endpoints() []int64 {
	var out []int64
	seen := map[int64]bool{}
	add := func(v int64) {
		if v != minI64 && v != maxI64 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for i, ok := range r.flow.Reached {
		if !ok {
			continue
		}
		for _, v := range r.flow.In[i][1:] {
			if !v.IsBottom() {
				add(v.Min)
				add(v.Max)
			}
		}
	}
	return out
}

// ---- path refinement ---------------------------------------------------------

var negatedCmp = map[string]string{
	"==": "!=", "!=": "==",
	"<": ">=", ">=": "<",
	"<=": ">", ">": "<=",
}

var flippedCmp = map[string]string{
	"==": "==", "!=": "!=",
	"<": ">", ">": "<",
	"<=": ">=", ">=": "<=",
}

// refineVal narrows v under "v op w". For unsigned comparisons the key
// refinement is the verifier's classic: v <u w with w in the non-negative
// signed half forces v's sign bit clear, so v lands in [0, w.Max-1] even
// when nothing was known about v before.
func refineVal(v Val, op string, w Val, signed bool) Val {
	if v.IsBottom() || w.IsBottom() {
		return Bottom()
	}
	switch op {
	case "==":
		v.Min = maxInt(v.Min, w.Min)
		v.Max = minInt(v.Max, w.Max)
		if !v.IsBottom() && w.Min == w.Max {
			v.Bits = bitsConst(uint64(w.Min))
		}
	case "!=":
		if w.Min == w.Max {
			switch {
			case v.Min == v.Max && v.Min == w.Min:
				return Bottom()
			case v.Min == w.Min && v.Min < maxI64:
				v.Min++
			case v.Max == w.Min && v.Max > minI64:
				v.Max--
			}
		}
	case "<":
		if signed {
			if w.Max > minI64 {
				v.Max = minInt(v.Max, w.Max-1)
			}
		} else if w.Min >= 0 {
			if w.Max <= 0 {
				return Bottom() // nothing is unsigned-below zero
			}
			v.Min = maxInt(v.Min, 0)
			v.Max = minInt(v.Max, w.Max-1)
		}
	case "<=":
		if signed {
			v.Max = minInt(v.Max, w.Max)
		} else if w.Min >= 0 {
			v.Min = maxInt(v.Min, 0)
			v.Max = minInt(v.Max, w.Max)
		}
	case ">":
		if signed {
			if w.Min < maxI64 {
				v.Min = maxInt(v.Min, w.Min+1)
			}
		} else if v.Min >= 0 && w.Min >= 0 && w.Min < maxI64 {
			// Only useful when v is already known non-negative: a huge
			// unsigned v would be signed-negative.
			v.Min = maxInt(v.Min, w.Min+1)
		}
	case ">=":
		if signed {
			v.Min = maxInt(v.Min, w.Min)
		} else if v.Min >= 0 && w.Min >= 0 {
			v.Min = maxInt(v.Min, w.Min)
		}
	}
	if v.IsBottom() {
		return Bottom()
	}
	return v.normalize()
}
