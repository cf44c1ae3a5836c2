package transval

import (
	"fmt"

	"kex/internal/safext/compile"
	"kex/internal/safext/compile/mir"
)

// Static check-ledger audit. The naive side is the fresh lowering, where
// every site is Emit; the elision pass and the optimizer may only move a
// site out of Emit (to Elided or Folded), never add or remove one or touch
// its kind or line, and every surviving Emit site must stay attached to a
// real instruction. Whether an elided check was really redundant is the
// vectors' question: the naive side still performs it. The per-kind
// counts re-derived from the optimized sites must reproduce the object's
// CheckStats, which is how the loader displays "naive == emitted + elided".

func checkFuncLedger(fa *compile.MIRFuncArtifact) error {
	naive, opt := fa.Naive, fa.Opt
	if len(naive.Sites) != len(opt.Sites) {
		return fmt.Errorf("transval: %s: site count changed under optimization: naive %d, optimized %d",
			fa.Name, len(naive.Sites), len(opt.Sites))
	}
	for i := range naive.Sites {
		ns, os := naive.Sites[i], opt.Sites[i]
		if ns.Kind != os.Kind || ns.Line != os.Line {
			return fmt.Errorf("transval: %s: site %d identity changed: naive %s@%d, optimized %s@%d",
				fa.Name, i, ns.Kind, ns.Line, os.Kind, os.Line)
		}
		if ns.State != mir.SiteEmit {
			return fmt.Errorf("transval: %s: naive %s site %d (line %d) not in the lowering's Emit state",
				fa.Name, ns.Kind, i, ns.Line)
		}
	}

	// Orphan audit: every Emit-state site must still be attached to an
	// instruction, or the object's ledger claims a dynamic check the code
	// no longer performs.
	attached := make([]bool, len(opt.Sites))
	for _, b := range opt.Blocks {
		for i := range b.Insns {
			if s := b.Insns[i].Site; s != mir.SiteNone {
				attached[s] = true
			}
		}
	}
	for i, s := range opt.Sites {
		if s.State == mir.SiteEmit && !attached[i] {
			return fmt.Errorf("transval: %s: %s site %d (line %d) counts as emitted but no instruction carries it",
				fa.Name, s.Kind, i, s.Line)
		}
	}
	return nil
}

func checkObjectLedger(funcs []compile.MIRFuncArtifact, checks compile.CheckStats) error {
	type kindCount struct{ emitted, elided int }
	counts := map[string]*kindCount{
		"bounds":     {},
		"div":        {},
		"shift-mask": {},
	}
	for i := range funcs {
		for _, s := range funcs[i].Opt.Sites {
			kc := counts[s.Kind]
			if kc == nil {
				return fmt.Errorf("transval: %s: unknown site kind %q", funcs[i].Name, s.Kind)
			}
			if s.State == mir.SiteEmit {
				kc.emitted++
			} else {
				kc.elided++
			}
		}
	}
	check := func(kind string, gotEmitted, gotElided int) error {
		kc := counts[kind]
		if kc.emitted != gotEmitted || kc.elided != gotElided {
			return fmt.Errorf("transval: %s ledger mismatch: object reports %d emitted + %d elided, re-derived %d + %d",
				kind, gotEmitted, gotElided, kc.emitted, kc.elided)
		}
		return nil
	}
	if err := check("bounds", checks.BoundsEmitted, checks.BoundsElided); err != nil {
		return err
	}
	if err := check("div", checks.DivEmitted, checks.DivElided); err != nil {
		return err
	}
	return check("shift-mask", checks.MaskEmitted, checks.MaskElided)
}
