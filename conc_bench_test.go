package kexbench

import (
	"testing"

	"kex/internal/analysis/concheck"
	"kex/internal/exec"
	"kex/internal/experiments"
	"kex/internal/safext/compile"
)

// The BenchmarkConc_* family measures what shard-safety analysis costs at
// build time and what its enforcement costs at dispatch. Per corpus
// program: analysis wall time, the fraction of map access sites proven
// better than racy, and the verdict (a Racy verdict is what warn mode
// demotes — the corpus demotion rate is the racy fraction). The gate
// benchmarks drive a CONC-certified program through a multi-shard plane
// with enforcement off and strict and record the per-invocation overhead:
// the acceptance bar is that strict mode stays off the hot path (one atomic
// load) for certified fleets. The rows persist to BENCH_conc.json.

var concBench = newTable("BENCH_conc.json", deriveConc)

func benchConc(b *testing.B, name, src string) {
	obj, arts := compileSLX(b, name, src, compile.Options{})
	var rep *compile.ConcReport
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = concheck.AnalyzeSLX(arts, obj.Maps)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	rate := 1.0
	if rep.Sites > 0 {
		rate = float64(rep.Proven) / float64(rep.Sites)
	}
	concBench.record(b, row{Config: name, Verdict: rep.Verdict, Metrics: metrics{
		"wall_ns_per_analysis": float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		"sites":                float64(rep.Sites),
		"proven_sites":         float64(rep.Proven),
		"proven_rate":          rate,
	}})
}

func BenchmarkConc(b *testing.B) {
	benchCorpus(b, benchConc)
}

// benchConcGate measures dispatch cost through a multi-shard plane running
// a CONC-certified program with the given enforcement mode — the strict
// row against the off row is the hot-path overhead of enforcement. The
// plane is X4's safext flow, which NewSafextPlane requires be certified.
func benchConcGate(b *testing.B, mode exec.ConcMode, config string) {
	const shards, batch = 4, 16
	run := drivePlane(b, experiments.NewSafextPlane, exec.ShardedConfig{Shards: shards, Conc: mode}, batch)
	concBench.record(b, row{Config: config, Metrics: metrics{
		"wall_ns_per_op": float64(run.Wall.Nanoseconds()) / float64(b.N),
	}})
}

func BenchmarkConc_GateOff(b *testing.B)    { benchConcGate(b, exec.ConcOff, "gate/off") }
func BenchmarkConc_GateStrict(b *testing.B) { benchConcGate(b, exec.ConcStrict, "gate/strict") }

// deriveConc adds a corpus summary row: median analysis wall time,
// corpus-wide proven-site rate, the demotion (racy) rate, and the
// certified strict-gate overhead when both gate rows ran.
func deriveConc(rows []row) []row {
	var walls []float64
	var gateOff, gateStrict float64
	sites, proven, racy := 0.0, 0.0, 0
	for _, r := range rows {
		switch {
		case r.Config == "gate/off":
			gateOff = r.Metrics["wall_ns_per_op"]
		case r.Config == "gate/strict":
			gateStrict = r.Metrics["wall_ns_per_op"]
		case r.Verdict != "":
			walls = append(walls, r.Metrics["wall_ns_per_analysis"])
			sites += r.Metrics["sites"]
			proven += r.Metrics["proven_sites"]
			if r.Verdict == compile.VerdictRacy {
				racy++
			}
		}
	}
	summary := metrics{}
	if len(walls) > 0 {
		summary["corpus_median_wall_ns"] = median(walls)
		if sites > 0 {
			summary["corpus_proven_rate"] = proven / sites
		}
		summary["corpus_demotion_rate"] = float64(racy) / float64(len(walls))
	}
	if gateOff > 0 && gateStrict > 0 {
		summary["certified_gate_overhead_pct"] = overheadPct(gateStrict, gateOff)
	}
	if len(summary) == 0 {
		return rows
	}
	return append(rows, row{Config: "corpus-summary", Metrics: summary})
}
