package kexbench

import (
	stdruntime "runtime"
	"testing"
	"time"

	"kex/examples/progs"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
)

// TestSLXOptWallOrdering pins the fix for the histogram/elided wall-time
// regression (a committed BENCH_slxopt.json once showed the elided build
// 1.5× slower than naive). The cause was methodology, not codegen — at
// ~20 benchmark iterations a single GC cycle landing inside one tier's
// timed loop inverts the comparison, and the elided tier also paid a
// per-invocation stats lookup for its own fuel-elision accounting.
//
// The guard measures in interleaved ABBA rounds. A round is a run of
// groups, and each group runs every tier twice, forwards and then
// backwards (naive, elided, opt, opt, elided, naive), timing each run, so
// a disturbance longer than a few runs, such as another tenant of a shared
// box or a GC cycle, weighs on all tiers alike. A round yields each tier's
// ratio to naive, of the tiers' median run times in the round, so a run
// the scheduler preempted does not count; the estimator is the median of
// the per-round ratios, so a round disturbed throughout does not either,
// where a minimum or mean over batches follows the outliers. Elided must
// never fall behind naive beyond a small tolerance, and the MIR build must
// beat naive outright.
func TestSLXOptWallOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard; skipped in -short runs")
	}
	tiers := []string{"naive", "elided", "opt"}
	exts := make([]*runtime.Extension, len(tiers))
	for opt, tier := range tiers {
		rt := runtime.New(kernel.NewDefault(), runtime.DefaultConfig())
		exts[opt] = loadSLX(t, rt, "hist-"+tier, progs.Histogram, opt)
	}

	const (
		rounds = 15
		groups = 20
	)
	// Warm up every tier once, then time interleaved rounds.
	for _, ext := range exts {
		if v, err := ext.Run(runtime.RunOptions{}); err != nil || !v.Completed {
			t.Fatalf("warmup: %+v, %v", v, err)
		}
	}
	elidedRatio := make([]float64, rounds)
	optRatio := make([]float64, rounds)
	var took [3][]float64
	for r := 0; r < rounds; r++ {
		stdruntime.GC()
		for i := range took {
			took[i] = took[i][:0]
		}
		for g := 0; g < groups; g++ {
			for _, i := range [...]int{0, 1, 2, 2, 1, 0} {
				start := time.Now()
				v, err := exts[i].Run(runtime.RunOptions{})
				took[i] = append(took[i], float64(time.Since(start)))
				if err != nil || !v.Completed {
					t.Fatalf("%s: %+v, %v", tiers[i], v, err)
				}
			}
		}
		naive := median(took[0])
		elidedRatio[r] = median(took[1]) / naive
		optRatio[r] = median(took[2]) / naive
	}
	elided, opt := median(elidedRatio), median(optRatio)
	t.Logf("median per-round ratio to naive over %d rounds: elided=%.3f opt=%.3f", rounds, elided, opt)
	// Elided must not regress past naive (10% tolerance for timer jitter).
	if elided > 1.10 {
		t.Errorf("elided build slower than naive: %.3f× naive (per-round ratios %.3f)", elided, elidedRatio)
	}
	// The MIR build's margin is large (about 2× in committed numbers); it
	// must beat naive outright.
	if opt >= 1 {
		t.Errorf("opt build not faster than naive: %.3f× naive (per-round ratios %.3f)", opt, optRatio)
	}
}
