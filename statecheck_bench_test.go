package kexbench

import (
	"testing"

	"kex/internal/analysis/statecheck"
	"kex/internal/ebpf/verifier"
)

// The BenchmarkStatecheck_* family prices the soundness oracle — verify
// with state capture, interpret with the trace hook, assert containment —
// and persists the figures together with the campaign's precision metrics
// to BENCH_statecheck.json. The hook's cost when DISABLED is covered by
// BenchmarkExecCore_* staying flat; here we measure the cost when armed.

type statecheckBenchRow struct {
	Config        string  `json:"config"`
	WallNsPerOp   float64 `json:"wall_ns_per_op"`
	StatesPerOp   float64 `json:"states_checked_per_op"`
	BenchmarkIter int     `json:"benchmark_iters"`
	// Precision is populated on the campaign row only: how tight the
	// verifier's abstraction was across the accepted cohort.
	Precision *verifier.Precision `json:"precision,omitempty"`
	Programs  int                 `json:"programs,omitempty"`
	Accepted  int                 `json:"accepted,omitempty"`
	Witnesses int                 `json:"witnesses,omitempty"`
}

var statecheckBench = newArtifact[statecheckBenchRow]("BENCH_statecheck.json", nil)

// benchStatecheckProgram prices one full Check of a fixed program.
func benchStatecheckProgram(b *testing.B, config string, p statecheck.Program) {
	b.Helper()
	checked := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := statecheck.Check(p, statecheck.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !v.Accepted || !v.Sound() {
			b.Fatalf("accepted=%v witnesses=%d", v.Accepted, len(v.Witnesses))
		}
		checked += v.Checked
	}
	b.StopTimer()
	row := statecheckBenchRow{
		Config:        config,
		WallNsPerOp:   float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		StatesPerOp:   float64(checked) / float64(b.N),
		BenchmarkIter: b.N,
	}
	b.ReportMetric(row.StatesPerOp, "states/op")
	statecheckBench.record(row.Config, row)
}

func BenchmarkStatecheck_Corpus(b *testing.B) {
	benchStatecheckProgram(b, "statecheck/corpus0", statecheck.Corpus()[0])
}

func BenchmarkStatecheck_Generated(b *testing.B) {
	// Seed 17 is the first generator seed whose 12-step program the
	// verifier accepts.
	benchStatecheckProgram(b, "statecheck/generated", statecheck.Generate(17, 12))
}

// BenchmarkStatecheck_Campaign prices a small fixed-seed campaign and
// captures the precision metrics of the accepted cohort.
func BenchmarkStatecheck_Campaign(b *testing.B) {
	var last *statecheck.CampaignResult
	checked := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp, err := statecheck.Campaign(1, 20, statecheck.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if len(camp.Witnesses) > 0 {
			b.Fatalf("campaign found %d witnesses: %v", len(camp.Witnesses), camp.Witnesses[0])
		}
		checked += camp.Checked
		last = camp
	}
	b.StopTimer()
	row := statecheckBenchRow{
		Config:        "statecheck/campaign20",
		WallNsPerOp:   float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		StatesPerOp:   float64(checked) / float64(b.N),
		BenchmarkIter: b.N,
		Precision:     &last.Precision,
		Programs:      last.Programs,
		Accepted:      last.Accepted,
		Witnesses:     len(last.Witnesses),
	}
	b.ReportMetric(row.StatesPerOp, "states/op")
	b.ReportMetric(last.Precision.MeanSnapsPerInsn, "snaps/insn")
	statecheckBench.record(row.Config, row)
}
