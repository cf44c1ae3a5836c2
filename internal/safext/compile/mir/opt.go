package mir

// Stats tallies what the optimizer did to one function (aggregated per
// object by the compiler and serialized into the SLXO container's OPTM
// section, under the signature).
type Stats struct {
	// Folded counts propagation/folding rewrites (constant folds, copy
	// substitutions, immediate-form conversions, branch folds).
	Folded int
	// Hoisted counts instructions LICM moved into loop preheaders.
	Hoisted int
	// LoadsEliminated counts array/map loads served from an earlier load.
	LoadsEliminated int
	// DeadRemoved counts instructions dead-code elimination dropped.
	DeadRemoved int
	// BlocksRemoved counts unreachable blocks swept.
	BlocksRemoved int
	// Spills / RegAssigned are filled by register allocation.
	Spills      int
	RegAssigned int
}

// Add accumulates another function's stats.
func (s *Stats) Add(o Stats) {
	s.Folded += o.Folded
	s.Hoisted += o.Hoisted
	s.LoadsEliminated += o.LoadsEliminated
	s.DeadRemoved += o.DeadRemoved
	s.BlocksRemoved += o.BlocksRemoved
	s.Spills += o.Spills
	s.RegAssigned += o.RegAssigned
}

// Sweep is the pipeline with every optimization pass off (levels 0 and
// 1): it only drops the blocks lowering leaves unreachable — the
// placeholders after return, break, continue and trap — which the emitter
// cannot lay out. As in Optimize, check sites in dropped code flip to
// Folded.
func Sweep(f *Func) Stats { return Stats{BlocksRemoved: sweep(f)} }

// maxOptRounds bounds the fold→dce→licm→rle pipeline; each round only
// runs because the previous one changed something, and every rewrite
// strictly reduces instructions or replaces them with cheaper forms, so
// convergence is fast — the cap is a backstop.
const maxOptRounds = 6

// Optimize runs the pass pipeline to fixpoint: propagate/fold, sweep
// unreachable code, remove dead code, hoist loop invariants, eliminate
// redundant loads — then thread away empty forwarding blocks.
func Optimize(f *Func) Stats {
	var st Stats
	for round := 0; round < maxOptRounds; round++ {
		changed := 0

		n := fold(f)
		st.Folded += n
		changed += n

		n = sweep(f)
		st.BlocksRemoved += n
		changed += n

		n = dce(f)
		st.DeadRemoved += n
		changed += n

		n = licm(f)
		st.Hoisted += n
		changed += n

		n = rle(f)
		st.LoadsEliminated += n
		changed += n

		if changed == 0 {
			break
		}
	}
	thread(f)
	st.BlocksRemoved += sweep(f)
	applyMutantReorder(f)
	return st
}
