package kexbench

import (
	"testing"

	"kex/examples/progs"
	"kex/internal/analysis/transval"
	"kex/internal/safext/compile"
	"kex/internal/safext/toolchain"
)

// The BenchmarkTVal family measures what translation validation costs at
// build time: per-corpus-program validation wall time and the serialized
// certificate's size in the SLXO container. A demoted corpus program fails
// its benchmark: a validator that demotes correct optimizer output is too
// imprecise to leave in the build loop. The rows persist to
// BENCH_tval.json; the acceptance bar is a corpus median under 250ms.

var tvalBench = newTable("BENCH_tval.json", deriveTVal)

func benchTVal(b *testing.B, name, src string) {
	obj, arts := compileSLX(b, name, src, compile.Options{Level: compile.OptMIR})
	var res *transval.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = transval.Validate(name, arts, obj.Checks)
	}
	b.StopTimer()
	if !res.OK {
		b.Fatalf("corpus program %s demoted in benchmark: %s", name, res.Reason)
	}

	// Certificate size = container growth from attaching the TVAL section.
	obj.TVal = res.Certificate(0)
	withCert, err := toolchain.Serialize(obj)
	if err != nil {
		b.Fatal(err)
	}
	obj.TVal = nil
	withoutCert, err := toolchain.Serialize(obj)
	if err != nil {
		b.Fatal(err)
	}

	tvalBench.record(b, row{Config: name, Metrics: metrics{
		"wall_ns_per_validation": float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		"certificate_bytes":      float64(len(withCert) - len(withoutCert)),
		"vectors":                float64(res.Vectors),
		"bounded_vectors":        float64(res.Bounded),
		"functions":              float64(len(res.Funcs)),
	}})
}

func BenchmarkTVal(b *testing.B) {
	benchCorpus(b, benchTVal)
	b.Run("buggy", func(b *testing.B) { benchTVal(b, "buggy", progs.ProfilerBuggy) })
}

// deriveTVal adds a corpus summary row carrying the median validation
// wall time. There is no demotion figure: a demoted corpus program fails
// its benchmark.
func deriveTVal(rows []row) []row {
	walls := make([]float64, len(rows))
	for i, r := range rows {
		walls[i] = r.Metrics["wall_ns_per_validation"]
	}
	return append(rows, row{Config: "corpus-summary", Metrics: metrics{"corpus_median_wall_ns": median(walls)}})
}
