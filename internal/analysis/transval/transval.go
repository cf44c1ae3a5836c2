// Package transval is the MIR optimizer's translation validator: an
// Alive2-style, per-build refinement check between the naive lowering —
// from before the elision pass, so every elided check is checked too —
// and the optimized (register-allocated) MIR of every function in an
// OptMIR build.
//
// Instead of trusting the optimizer's passes, each build re-derives the
// evidence: both sides of every function are executed on the reference
// MIR machine (internal/analysis/mirrun, which the shard-interleaving
// oracle also runs on) over the engine's exact wraparound ALU semantics
// (64-bit two's-complement arithmetic, masked shifts, defined division by
// zero where no check is emitted), across a set of boundary-biased input
// vectors derived from the program's own constants and from the interval
// endpoints the compiler's elision pass proved (widened at loop headers,
// refined on branch edges). This package supplies the machine's
// world: the effect log, palette-drawn crate results and percpu volatile
// streams. The optimized side executes *through* its register allocation
// — virtual registers resolve to the four callee-saved registers or spill
// slots — so a register-allocation bug is as observable as a wrong fold.
// Because both sides run on the same machine, only internal consistency
// matters here; the machine's fidelity to the engine is pinned by its ALU
// table test and by the differential fuzzer over the naive build.
// Refinement holds for a vector when both sides produce the same verdict
// (return value or trap code) and the same ordered observable-effect
// sequence (map writes, emits, locks, traces, every other crate call);
// exploration is bounded per vector, by fuel and by user-call depth, and a
// vector where a side hits a bound with matching effect prefixes counts as
// a bounded pass.
//
// On top of the dynamic check, a static ledger audit re-derives the
// check-site accounting: the elision pass and the optimizer may only move
// sites out of Emit (to Elided or Folded), every surviving Emit site must
// still be attached to an instruction, and the per-kind counts must
// reproduce the object's CheckStats — the "naive == emitted + elided"
// invariant the kernel-side loader displays.
//
// A passing run becomes a compact TVAL certificate in the SLXO container,
// under the ed25519 signature. A failing or inconclusive run fails closed:
// the toolchain demotes the build to OptElide, which lowers the same way
// with the passes off, validates that rebuild here too (it still goes
// through register allocation), and records the reason; if the rebuild is
// refuted as well, the build fails.
package transval

import (
	"fmt"

	"kex/internal/analysis/mirrun"
	"kex/internal/safext/compile"
	"kex/internal/safext/compile/mir"
)

// The exploration's bounds: input vectors per function, and the model's
// step budget per vector per side.
const (
	vectorsPerFunc = 12
	fuelPerVector  = 200000
)

// FuncReport is one function's validation summary.
type FuncReport struct {
	Name          string
	Vectors       int
	Bounded       int
	BlocksCovered int
	BlocksTotal   int
	SitesEmitted  int
	SitesElided   int
	SitesFolded   int
}

// Result is the outcome of validating one build.
type Result struct {
	OK bool
	// Reason is the first refinement violation (empty when OK).
	Reason string
	// Counterexample is a human-readable divergence report: the vector,
	// both verdicts, and both effect logs (empty when OK).
	Counterexample string
	Vectors        int
	Bounded        int
	Funcs          []FuncReport
}

// Certificate converts the result into the object-carried certificate.
func (r *Result) Certificate(wallNanos int64) *compile.TValCert {
	c := &compile.TValCert{
		Validated: r.OK,
		Demoted:   !r.OK,
		Reason:    r.Reason,
		Vectors:   r.Vectors,
		Bounded:   r.Bounded,
		WallNanos: wallNanos,
	}
	for _, fr := range r.Funcs {
		c.Funcs = append(c.Funcs, compile.TValFuncCert{
			Name:          fr.Name,
			Vectors:       fr.Vectors,
			Bounded:       fr.Bounded,
			BlocksCovered: fr.BlocksCovered,
			BlocksTotal:   fr.BlocksTotal,
			SitesEmitted:  fr.SitesEmitted,
			SitesElided:   fr.SitesElided,
			SitesFolded:   fr.SitesFolded,
		})
	}
	return c
}

// Validate proves (or refutes) that the optimized build refines its naive
// lowering. funcs are the per-function artifact triples the MIR backend
// captured; checks is the object's merged check ledger, cross-checked
// against the re-derived site states.
func Validate(name string, funcs []compile.MIRFuncArtifact, checks compile.CheckStats) *Result {
	res := &Result{OK: true}
	if len(funcs) == 0 {
		res.OK = false
		res.Reason = "no MIR artifacts captured for validation"
		return res
	}

	naive := make(map[string]mirrun.Code, len(funcs))
	opt := make(map[string]mirrun.Code, len(funcs))
	for i := range funcs {
		fa := &funcs[i]
		if fa.Naive == nil || fa.Opt == nil || fa.Alloc == nil {
			res.OK = false
			res.Reason = fmt.Sprintf("%s: incomplete MIR artifact", fa.Name)
			return res
		}
		naive[fa.Name] = mirrun.Code{F: fa.Naive}
		opt[fa.Name] = mirrun.Code{F: fa.Opt, Alloc: fa.Alloc}
	}

	// Static audit first: the ledger lies are cheap to catch and a broken
	// site array would confuse the dynamic model's trap semantics.
	for i := range funcs {
		if err := checkFuncLedger(&funcs[i]); err != nil {
			res.OK = false
			res.Reason = err.Error()
			return res
		}
	}
	if err := checkObjectLedger(funcs, checks); err != nil {
		res.OK = false
		res.Reason = err.Error()
		return res
	}

	pal := buildPalette(funcs)
	nw, ow := newWorld(naive, pal), newWorld(opt, pal)

	for i := range funcs {
		fa := &funcs[i]
		fr := FuncReport{Name: fa.Name, BlocksTotal: len(fa.Naive.Blocks)}
		for _, s := range fa.Opt.Sites {
			switch s.State {
			case mir.SiteEmit:
				fr.SitesEmitted++
			case mir.SiteElided:
				fr.SitesElided++
			default:
				fr.SitesFolded++
			}
		}
		cover := make(map[mir.BlockID]bool)
		nw.Cover = cover
		for k := 0; k < vectorsPerFunc; k++ {
			seed := mirrun.Mix(0x7c3a9d41b6e5f208, uint64(k), mirrun.Hash(fa.Name))
			args := paramVector(pal, seed, fa.Naive.NParams)
			nOut := nw.run(fa.Name, args, seed, fuelPerVector)
			oOut := ow.run(fa.Name, args, seed, fuelPerVector)
			fr.Vectors++
			res.Vectors++
			verdict, bounded := compare(nOut, oOut)
			if bounded {
				fr.Bounded++
				res.Bounded++
			}
			if verdict != "" {
				res.OK = false
				res.Reason = fmt.Sprintf("%s: vector %d: %s", fa.Name, k, verdict)
				res.Counterexample = counterexample(name, fa.Name, k, args, seed, nOut, oOut)
				res.Funcs = append(res.Funcs, fr)
				return res
			}
		}
		fr.BlocksCovered = len(cover)
		res.Funcs = append(res.Funcs, fr)
	}
	return res
}

// compare decides one vector: an empty verdict string means refinement
// holds. When either side ran out of fuel or call depth the check weakens
// to prefix compatibility of the effect logs (bounded refinement) and the
// vector is reported as bounded.
func compare(n, o *outcome) (verdict string, bounded bool) {
	nKind, oKind := n.kind(), o.kind()
	if nKind == mirrun.StopErr {
		return "naive model error: " + n.stop.Msg, false
	}
	if oKind == mirrun.StopErr {
		return "optimized model error: " + o.stop.Msg, false
	}
	if n.bounded() || o.bounded() {
		short, long := n.effects, o.effects
		if len(short) > len(long) {
			short, long = long, short
		}
		for i := range short {
			if !short[i].equal(&long[i]) {
				return fmt.Sprintf("effect %d diverges under the run bound: naive-side prefix %s, optimized-side prefix %s",
					i, effectAt(n.effects, i), effectAt(o.effects, i)), false
			}
		}
		// A side that completed must not have fewer effects than the
		// exhausted side's log: completing early while the other side kept
		// producing effects is a divergence, not a bound.
		if !n.bounded() && len(n.effects) < len(o.effects) {
			return fmt.Sprintf("naive side completed after %d effects but optimized side produced %d before the run bound",
				len(n.effects), len(o.effects)), false
		}
		if !o.bounded() && len(o.effects) < len(n.effects) {
			return fmt.Sprintf("optimized side completed after %d effects but naive side produced %d before the run bound",
				len(o.effects), len(n.effects)), false
		}
		return "", true
	}
	if nKind != oKind {
		return fmt.Sprintf("verdict kind diverges: naive %s, optimized %s", n.verdict(), o.verdict()), false
	}
	if nKind == mirrun.StopTrap && n.stop.Trap != o.stop.Trap {
		return fmt.Sprintf("trap code diverges: naive %d, optimized %d", n.stop.Trap, o.stop.Trap), false
	}
	if nKind == 0 && n.ret != o.ret {
		return fmt.Sprintf("return value diverges: naive %d, optimized %d", int64(n.ret), int64(o.ret)), false
	}
	if len(n.effects) != len(o.effects) {
		return fmt.Sprintf("effect count diverges: naive %d, optimized %d", len(n.effects), len(o.effects)), false
	}
	for i := range n.effects {
		if !n.effects[i].equal(&o.effects[i]) {
			return fmt.Sprintf("effect %d diverges: naive %s, optimized %s", i, n.effects[i], o.effects[i]), false
		}
	}
	return "", false
}

func effectAt(es []effect, i int) string {
	if i < len(es) {
		return es[i].String()
	}
	return "<none>"
}

func counterexample(obj, fn string, vec int, args []uint64, seed uint64, n, o *outcome) string {
	s := fmt.Sprintf("refinement counterexample: object %s, function %s, vector %d (seed %#x)\n", obj, fn, vec, seed)
	s += fmt.Sprintf("params: %v\n", args)
	s += fmt.Sprintf("naive:     %s\n", n.verdict())
	s += fmt.Sprintf("optimized: %s\n", o.verdict())
	s += "naive effects:\n"
	for i, e := range n.effects {
		s += fmt.Sprintf("  %3d %s\n", i, e)
	}
	s += "optimized effects:\n"
	for i, e := range o.effects {
		s += fmt.Sprintf("  %3d %s\n", i, e)
	}
	return s
}
