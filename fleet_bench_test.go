package kexbench

import (
	"testing"
	"time"

	"kex/internal/experiments"
)

// The BenchmarkFleet_* family runs the X5 rollout campaign end to end and
// persists BENCH_fleet.json: fleet-wide swap and rollback
// wall latencies, transport fault counters, and the zero-dropped ledger.
// One benchmark iteration is one full campaign — run it with
// -benchtime=1x; the figures of record come from the campaign itself, not
// from amortising b.N.

var fleetBench = newTable("BENCH_fleet.json", nil)

func benchFleetRollout(b *testing.B, nodes int, config string) {
	var m metrics
	for i := 0; i < b.N; i++ {
		start := time.Now()
		r, st := experiments.X5Rollout(nodes)
		wall := time.Since(start)
		if !r.Holds {
			b.Fatalf("campaign does not hold:\n%s", r)
		}
		m = metrics{
			"nodes":                 float64(st.Nodes),
			"campaign_wall_ms":      float64(wall.Nanoseconds()) / 1e6,
			"swap_wall_ns_mean":     st.SwapWallNsMean,
			"swap_wall_ns_max":      float64(st.SwapWallNsMax),
			"rollback_wall_ns_mean": st.RollbackWallNsMean,
			"rollback_wall_ns_max":  float64(st.RollbackWallNsMax),
			"rollbacks":             float64(st.Rollbacks),
			"refused_loads":         float64(st.RefusedLoads),
			"transport_retries":     float64(st.Retries),
			"transport_timeouts":    float64(st.Timeouts),
			"submitted":             float64(st.Submitted),
			"answered":              float64(st.Answered),
			"dropped":               float64(st.Submitted - st.Answered),
		}
	}
	fleetBench.record(b, row{Config: config, Metrics: m})
}

func BenchmarkFleet_Rollout64(b *testing.B)   { benchFleetRollout(b, 64, "fleet/nodes=64") }
func BenchmarkFleet_Rollout1000(b *testing.B) { benchFleetRollout(b, 1000, "fleet/nodes=1000") }
