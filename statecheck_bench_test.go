package kexbench

import (
	"testing"

	"kex/internal/analysis/statecheck"
)

// The BenchmarkStatecheck_* family prices the soundness oracle — verify
// with state capture, interpret with the trace hook, assert containment —
// and persists the figures together with the campaign's precision metrics
// to BENCH_statecheck.json. The hook's cost when DISABLED is covered by
// BenchmarkExecCore_* staying flat; here we measure the cost when armed.

var statecheckBench = newTable("BENCH_statecheck.json", nil)

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
	statecheckBench.record(b, row{Config: config, Metrics: metrics{
		"wall_ns_per_op":        float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		"states_checked_per_op": float64(checked) / float64(b.N),
	}})
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
	p := last.Precision
	statecheckBench.record(b, row{Config: "statecheck/campaign20", Metrics: metrics{
		"wall_ns_per_op":        float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		"states_checked_per_op": float64(checked) / float64(b.N),
		"programs":              float64(last.Programs),
		"accepted":              float64(last.Accepted),
		"witnesses":             float64(len(last.Witnesses)),
		// verifier.Precision's fields, under their JSON names.
		"precision.insns":                  float64(p.Insns),
		"precision.snapshots":              float64(p.Snapshots),
		"precision.mean_states_per_insn":   p.MeanSnapsPerInsn,
		"precision.max_states_per_insn":    float64(p.MaxSnapsPerInsn),
		"precision.scalar_regs":            float64(p.ScalarRegs),
		"precision.mean_unknown_tnum_bits": p.MeanUnknownTnumBits,
		"precision.mean_bounds_width_log2": p.MeanBoundsWidthLog2,
	}})
}
