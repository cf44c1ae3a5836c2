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

type fleetBenchRow struct {
	Config             string  `json:"config"`
	Nodes              int     `json:"nodes"`
	CampaignWallMs     float64 `json:"campaign_wall_ms"`
	SwapWallNsMean     float64 `json:"swap_wall_ns_mean"`
	SwapWallNsMax      int64   `json:"swap_wall_ns_max"`
	RollbackWallNsMean float64 `json:"rollback_wall_ns_mean"`
	RollbackWallNsMax  int64   `json:"rollback_wall_ns_max"`
	Rollbacks          int     `json:"rollbacks"`
	RefusedLoads       int     `json:"refused_loads"`
	TransportRetries   int     `json:"transport_retries"`
	TransportTimeouts  int     `json:"transport_timeouts"`
	Submitted          int64   `json:"submitted"`
	Answered           int64   `json:"answered"`
	Dropped            int64   `json:"dropped"`
	Holds              bool    `json:"holds"`
	BenchmarkIter      int     `json:"benchmark_iters"`
}

var fleetBench = newArtifact[fleetBenchRow]("BENCH_fleet.json", nil)

func benchFleetRollout(b *testing.B, nodes int, config string) {
	var row fleetBenchRow
	for i := 0; i < b.N; i++ {
		start := time.Now()
		r, st := experiments.X5Rollout(nodes)
		wall := time.Since(start)
		if !r.Holds {
			b.Fatalf("campaign does not hold:\n%s", r)
		}
		row = fleetBenchRow{
			Config:             config,
			Nodes:              st.Nodes,
			CampaignWallMs:     float64(wall.Nanoseconds()) / 1e6,
			SwapWallNsMean:     st.SwapWallNsMean,
			SwapWallNsMax:      st.SwapWallNsMax,
			RollbackWallNsMean: st.RollbackWallNsMean,
			RollbackWallNsMax:  st.RollbackWallNsMax,
			Rollbacks:          st.Rollbacks,
			RefusedLoads:       st.RefusedLoads,
			TransportRetries:   st.Retries,
			TransportTimeouts:  st.Timeouts,
			Submitted:          st.Submitted,
			Answered:           st.Answered,
			Dropped:            st.Submitted - st.Answered,
			Holds:              r.Holds,
			BenchmarkIter:      b.N,
		}
		b.ReportMetric(st.SwapWallNsMean, "swap-wall-ns/node")
		b.ReportMetric(st.RollbackWallNsMean, "rollback-wall-ns/node")
	}
	fleetBench.record(config, row)
}

func BenchmarkFleet_Rollout64(b *testing.B)   { benchFleetRollout(b, 64, "fleet/nodes=64") }
func BenchmarkFleet_Rollout1000(b *testing.B) { benchFleetRollout(b, 1000, "fleet/nodes=1000") }
