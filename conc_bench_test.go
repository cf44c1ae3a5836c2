package kexbench

import (
	"sort"
	"testing"

	"kex/examples/progs"
	"kex/internal/analysis/concheck"
	"kex/internal/exec"
	"kex/internal/safext/compile"
	"kex/internal/safext/lang"
	"kex/internal/safext/runtime"
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

type concRow struct {
	Program           string  `json:"program"`
	WallNsPerAnalysis float64 `json:"wall_ns_per_analysis,omitempty"`
	Sites             int     `json:"sites,omitempty"`
	Proven            int     `json:"proven_sites,omitempty"`
	ProvenRate        float64 `json:"proven_rate,omitempty"`
	Verdict           string  `json:"verdict,omitempty"`
	BenchmarkIter     int     `json:"benchmark_iters,omitempty"`
	// Gate-row fields (zero elsewhere).
	WallNsPerOp float64 `json:"wall_ns_per_op,omitempty"`
	// Summary-row fields (zero elsewhere).
	MedianWallNs     float64 `json:"corpus_median_wall_ns,omitempty"`
	CorpusProvenRate float64 `json:"corpus_proven_rate,omitempty"`
	DemotionRate     float64 `json:"corpus_demotion_rate,omitempty"`
	GateOverheadPct  float64 `json:"certified_gate_overhead_pct,omitempty"`
}

var concBench = newArtifact[concRow]("BENCH_conc.json", summarizeConc)

func benchConc(b *testing.B, name, src string) {
	f, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		b.Fatal(err)
	}
	obj, arts, err := compile.CompileWithOptions(name, checked, compile.Options{})
	if err != nil {
		b.Fatal(err)
	}

	var rep *compile.ConcReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = concheck.AnalyzeSLX(arts, obj.Maps)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	wallPer := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	rate := 1.0
	if rep.Sites > 0 {
		rate = float64(rep.Proven) / float64(rep.Sites)
	}
	concBench.record(name, concRow{
		Program:           name,
		WallNsPerAnalysis: wallPer,
		Sites:             rep.Sites,
		Proven:            rep.Proven,
		ProvenRate:        rate,
		Verdict:           rep.Verdict,
		BenchmarkIter:     b.N,
	})
	b.ReportMetric(wallPer, "ns/analysis")
	b.ReportMetric(rate*100, "proven-%")
}

func BenchmarkConc(b *testing.B) {
	names := make([]string, 0, len(progs.All))
	for name := range progs.All {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := progs.All[name]
		b.Run(name, func(b *testing.B) { benchConc(b, name, src) })
	}
}

// benchConcGate measures dispatch cost through a multi-shard plane running
// a CONC-certified program with the given enforcement mode — the strict
// row against the off row is the hot-path overhead of enforcement.
func benchConcGate(b *testing.B, mode exec.ConcMode, config string) {
	const shards, batch = 4, 16
	rt := runtime.New(tputKernel(), runtime.DefaultConfig())
	ext := loadSLX(b, rt, "conc_gate", tputSLX, 0)
	if ext.Conc == nil || ext.Conc.Racy() {
		b.Fatalf("gate benchmark program must be certified, got %+v", ext.Conc)
	}
	sh := rt.NewSharded(exec.ShardedConfig{Shards: shards, RingSize: 256, Conc: mode})
	defer sh.Close()
	wall := driveSafextPlane(b, ext, sh, shards, batch)
	wallPer := float64(wall.Nanoseconds()) / float64(b.N)
	concBench.record(config, concRow{Program: config, WallNsPerOp: wallPer, BenchmarkIter: b.N})
	b.ReportMetric(wallPer, "wall-ns/op")
}

func BenchmarkConc_GateOff(b *testing.B)    { benchConcGate(b, exec.ConcOff, "gate/off") }
func BenchmarkConc_GateStrict(b *testing.B) { benchConcGate(b, exec.ConcStrict, "gate/strict") }

// summarizeConc appends a corpus summary row: median analysis wall time,
// corpus-wide proven-site rate, the demotion (racy) rate, and the
// certified strict-gate overhead when both gate rows ran.
func summarizeConc(rows []concRow) any {
	var walls []float64
	var gateOff, gateStrict float64
	sites, proven, racy := 0, 0, 0
	for _, r := range rows {
		switch {
		case r.Program == "gate/off":
			gateOff = r.WallNsPerOp
		case r.Program == "gate/strict":
			gateStrict = r.WallNsPerOp
		case r.Verdict != "":
			walls = append(walls, r.WallNsPerAnalysis)
			sites += r.Sites
			proven += r.Proven
			if r.Verdict == compile.VerdictRacy {
				racy++
			}
		}
	}
	summary := concRow{Program: "corpus-summary"}
	if len(walls) > 0 {
		summary.MedianWallNs = median(walls)
		if sites > 0 {
			summary.CorpusProvenRate = float64(proven) / float64(sites)
		}
		summary.DemotionRate = float64(racy) / float64(len(walls))
	}
	if gateOff > 0 && gateStrict > 0 {
		summary.GateOverheadPct = overheadPct(gateStrict, gateOff)
	}
	return append(rows, summary)
}
