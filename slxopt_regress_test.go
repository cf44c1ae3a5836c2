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
// The guard measures the way the fix prescribes: tiers interleaved
// round-robin (so ambient noise hits all of them equally), several small
// batches per tier, minimum batch time as the estimator (minimum, not
// mean: noise only ever adds time). Elided must never fall behind naive
// beyond a small tolerance, and the MIR build must beat naive outright.
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
		rounds     = 6
		batchIters = 20
	)
	best := make([]time.Duration, len(exts))
	for i := range best {
		best[i] = time.Duration(1<<63 - 1)
	}
	// Warm up every tier once, then time interleaved batches.
	for _, ext := range exts {
		if v, err := ext.Run(runtime.RunOptions{}); err != nil || !v.Completed {
			t.Fatalf("warmup: %+v, %v", v, err)
		}
	}
	for r := 0; r < rounds; r++ {
		for i, ext := range exts {
			stdruntime.GC()
			start := time.Now()
			for k := 0; k < batchIters; k++ {
				v, err := ext.Run(runtime.RunOptions{})
				if err != nil || !v.Completed {
					t.Fatalf("%s: %+v, %v", tiers[i], v, err)
				}
			}
			if d := time.Since(start); d < best[i] {
				best[i] = d
			}
		}
	}
	naive, elided, opt := best[0], best[1], best[2]
	t.Logf("min batch wall: naive=%v elided=%v opt=%v", naive, elided, opt)
	// Elided must not regress past naive (10% tolerance for timer jitter).
	if float64(elided) > float64(naive)*1.10 {
		t.Errorf("elided build slower than naive: %v vs %v", elided, naive)
	}
	// The MIR build's margin is large (about 2× in committed numbers); it
	// must beat naive outright.
	if opt >= naive {
		t.Errorf("opt build not faster than naive: %v vs %v", opt, naive)
	}
}
