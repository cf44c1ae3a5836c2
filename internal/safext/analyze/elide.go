package analyze

import "kex/internal/safext/compile/mir"

// workBudget caps one build's analysis work (instructions transferred).
// Unlike the kernel verifier's insn budget, overrunning it is not a
// rejection: the pass stops proving and every check stays dynamic.
const workBudget = 2_000_000

// Elide is the check-elision pass. It runs the interval domain over every
// function of a fresh lowering and moves each check site whose check it
// proves redundant from Emit to Elided: an array index in [0, len-1], a
// divisor that is never zero, a shift amount in [0, 63]. A site in code
// the analysis proves dead (an operand it narrowed to ⊥) is elided too;
// sites in code the CFG cannot reach stay Emit for the sweep to fold.
//
// It returns two things per function. trips holds, per entry of its
// Loops, a bound on how many times the loop body runs each time the loop
// is entered (-1 where the domain cannot bound it), which StaticBound
// turns into the build's instruction bound. ends holds, once each, the
// finite interval endpoints the analysis proved at the entry of a reached
// block: the loop bounds and derived limits the translation validator's
// palette probes. If the work budget runs out, no site is elided and ok
// is false.
func Elide(funcs []*mir.Func, types []Types) (trips, ends [][]int64, ok bool) {
	return elide(funcs, types, workBudget)
}

func elide(funcs []*mir.Func, types []Types, budget int) (trips, ends [][]int64, ok bool) {
	flows := make([]*IntervalFlow, len(funcs))
	for i, f := range funcs {
		if flows[i] = Intervals(f, types[i], &budget); flows[i] == nil {
			return nil, nil, false
		}
	}
	trips = make([][]int64, len(funcs))
	ends = make([][]int64, len(funcs))
	for i, f := range funcs {
		for _, l := range f.Loops {
			trips[i] = append(trips[i], flows[i].trips(l))
		}
		ends[i] = flows[i].endpoints()
		flows[i].walk(func(in *mir.Insn, st Vals) {
			if in.Site != mir.SiteNone && proven(f, in, st) {
				f.Sites[in.Site].State = mir.SiteElided
			}
		})
	}
	return trips, ends, true
}

// proven reports whether the check at in's site holds in state st.
func proven(f *mir.Func, in *mir.Insn, st Vals) bool {
	switch in.Op {
	case mir.OpArrLoad, mir.OpArrStore:
		idx := Const(in.IdxImm)
		if !in.IdxIsImm {
			idx = st[in.A]
		}
		return idx.InRange(0, f.Arrays[in.Arr]-1)
	case mir.OpBin:
		switch in.Bin {
		case "/", "%":
			return st.operandB(in).NonZero()
		case "<<", ">>":
			return st.operandB(in).InRange(0, 63)
		}
	}
	return false
}

// trips bounds how many times loop l's body runs per entry, or -1. It
// recognises the counted loop: the header's exit test is a signed v < B
// (or v <= B) on the staying edge, B is not written in the loop, and v's
// one write in the loop is v = v + 1 in the latch, the only block that
// jumps back to the header. v then takes a new value, one larger, on
// every trip, starting no lower than its least value at the header, and
// never reaches B's greatest value.
func (r *IntervalFlow) trips(l *mir.Loop) int64 {
	f := r.d.f
	h := f.BlockByID(l.Header)
	if h == nil || h.Term.Kind != mir.TermCond {
		return -1
	}
	t := &h.Term
	in := make(map[mir.BlockID]bool, len(l.Blocks))
	for _, id := range l.Blocks {
		in[id] = true
	}
	rel := t.Rel
	switch {
	case in[t.To] && !in[t.Else]:
	case !in[t.To] && in[t.Else]:
		rel = negatedCmp[rel]
	default:
		return -1
	}
	if !t.Signed || rel != "<" && rel != "<=" {
		return -1
	}
	steps := 0
	for _, id := range l.Blocks {
		b := f.BlockByID(id)
		if b == nil {
			continue
		}
		if id != l.Latch {
			for _, s := range b.Term.Succs() {
				if s == l.Header {
					return -1
				}
			}
		}
		for i := range b.Insns {
			x := &b.Insns[i]
			switch {
			case x.Dst == t.A && id == l.Latch && x.Op == mir.OpBin && x.Bin == "+" && x.A == t.A && x.BIsImm && x.BImm == 1:
				steps++
			case x.Dst == t.A, !t.BIsImm && x.Dst == t.B:
				return -1
			}
		}
	}
	if steps != 1 {
		return -1
	}
	st, reached := r.flow.At(l.Header)
	if !reached {
		return 0
	}
	v, bound := st[t.A], st.termB(t)
	if v.IsBottom() || bound.IsBottom() {
		return 0
	}
	hi := bound.Max
	if rel == "<=" {
		if hi == maxI64 {
			return -1
		}
		hi++
	}
	if hi <= v.Min {
		return 0
	}
	if n := uint64(hi) - uint64(v.Min); n <= uint64(boundCap) {
		return int64(n)
	}
	return -1
}
