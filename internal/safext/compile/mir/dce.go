package mir

import "kex/internal/safext/lang"

// forEachUse visits every vreg an instruction reads.
func forEachUse(in *Insn, fn func(VReg)) {
	switch in.Op {
	case OpCopy, OpNeg:
		fn(in.A)
	case OpBin, OpCmp:
		fn(in.A)
		if !in.BIsImm {
			fn(in.B)
		}
	case OpArrLoad:
		if !in.IdxIsImm {
			fn(in.A)
		}
	case OpArrStore:
		if !in.IdxIsImm {
			fn(in.A)
		}
		if !in.BIsImm {
			fn(in.B)
		}
	case OpCallCrate, OpCallUser:
		for i := range in.Args {
			a := &in.Args[i]
			if !a.IsImm && (a.Kind == lang.CrateInt || a.Kind == lang.CrateSock) {
				fn(a.V)
			}
		}
	}
}

// forEachTermUse visits every vreg a terminator reads.
func forEachTermUse(t *Terminator, fn func(VReg)) {
	switch t.Kind {
	case TermCond:
		fn(t.A)
		if !t.BIsImm {
			fn(t.B)
		}
	case TermRet:
		if !t.RetIsImm {
			fn(t.Ret)
		}
	}
}

// sideEffectFree reports whether removing the instruction (given its dst
// is unused) cannot change observable behavior. The engine's ALU never
// traps — only explicit Emit-state check sites do — so everything without
// an Emit site and without memory/call effects is removable.
func (f *Func) sideEffectFree(in *Insn) bool {
	switch in.Op {
	case OpParam, OpConst, OpCopy, OpNeg, OpCmp:
		return true
	case OpBin, OpArrLoad:
		return in.Site == SiteNone || f.Sites[in.Site].State != SiteEmit
	case OpCallCrate:
		return mutantActive("dce-effectful") && in.Name == "map_set"
	}
	return false
}

// dce removes instructions whose results are unused, iterating until no
// more fall out. Returns the number removed.
func dce(f *Func) int {
	removed := 0
	for {
		uses := make([]int, f.NumVRegs+1)
		for _, b := range f.Blocks {
			for i := range b.Insns {
				forEachUse(&b.Insns[i], func(v VReg) { uses[v]++ })
			}
			forEachTermUse(&b.Term, func(v VReg) { uses[v]++ })
		}
		n := 0
		for _, b := range f.Blocks {
			kept := b.Insns[:0]
			for i := range b.Insns {
				in := &b.Insns[i]
				if in.Dst != 0 && uses[in.Dst] == 0 && f.sideEffectFree(in) {
					n++
					continue
				}
				kept = append(kept, *in)
			}
			b.Insns = kept
		}
		removed += n
		if n == 0 {
			return removed
		}
	}
}

// sweep drops blocks unreachable from the entry. Emit-state check sites in
// dropped code flip to Folded: the lowering counted them, so the ledger
// invariant needs the sites accounted as discharged rather than vanished.
func sweep(f *Func) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	reach := map[BlockID]bool{f.Blocks[0].ID: true}
	work := []BlockID{f.Blocks[0].ID}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		b := f.BlockByID(id)
		if b == nil {
			continue
		}
		for _, s := range b.Term.Succs() {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	kept := f.Blocks[:0]
	dropped := 0
	for _, b := range f.Blocks {
		if reach[b.ID] {
			kept = append(kept, b)
			continue
		}
		dropped++
		if !mutantActive("sweep-ledger-leak") {
			for i := range b.Insns {
				f.flipSite(b.Insns[i].Site)
			}
		}
		delete(f.byID, b.ID)
	}
	f.Blocks = kept
	return dropped
}

// thread redirects edges that target empty forwarding blocks (no insns,
// unconditional jump) straight to their destination. Run only after LICM:
// until then empty preheaders must stay in place as landing pads.
func thread(f *Func) {
	forward := make(map[BlockID]BlockID)
	for _, b := range f.Blocks {
		if len(b.Insns) == 0 && b.Term.Kind == TermJmp && b.Term.To != b.ID {
			forward[b.ID] = b.Term.To
		}
	}
	resolve := func(id BlockID) BlockID {
		seen := 0
		for {
			next, ok := forward[id]
			if !ok || seen > len(forward) {
				return id
			}
			id = next
			seen++
		}
	}
	swapped := false
	for _, b := range f.Blocks {
		switch b.Term.Kind {
		case TermJmp:
			b.Term.To = resolve(b.Term.To)
		case TermCond:
			b.Term.To = resolve(b.Term.To)
			b.Term.Else = resolve(b.Term.Else)
			if mutantActive("thread-wrong-edge") && !swapped && b.Term.To != b.Term.Else {
				b.Term.To, b.Term.Else = b.Term.Else, b.Term.To
				swapped = true
			}
		}
	}
}
