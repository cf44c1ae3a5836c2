package transval

import (
	"math"

	"kex/internal/safext/analyze"
	"kex/internal/safext/compile/mir"
)

// The palette's abstract harvest: the interval + known-bits analysis of
// internal/safext/analyze (the elision pass's own, widened at loop headers
// and refined on every branch edge) run over the naive MIR. The interval
// endpoints it proves at block entries become palette entries: they are
// exactly the loop bounds and derived limits the optimized code's folded
// compares sit on, so probing at endpoint±1 exercises the first/last
// iteration and the exit edge of every loop the domain can bound.

// harvestBudget caps one function's harvest; past it the palette keeps
// only the program's constants.
const harvestBudget = 200_000

func harvest(f *mir.Func) []int64 {
	budget := harvestBudget
	fl := analyze.Intervals(f, analyze.Types{}, &budget)
	if fl == nil {
		return nil
	}
	var out []int64
	seen := map[int64]bool{}
	add := func(v int64) {
		if v != math.MinInt64 && v != math.MaxInt64 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	fl.Entries(func(st analyze.Vals) {
		for _, v := range st[1:] {
			if !v.IsBottom() {
				add(v.Min)
				add(v.Max)
			}
		}
	})
	return out
}
