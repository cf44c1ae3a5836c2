package kexbench

import (
	"sort"
	"testing"

	"kex/examples/progs"
	"kex/internal/analysis/transval"
	"kex/internal/safext/compile"
	"kex/internal/safext/lang"
	"kex/internal/safext/toolchain"
)

// The BenchmarkTVal family measures what translation validation costs at
// build time: per-corpus-program validation wall time, the serialized
// certificate's size in the SLXO container, and the demotion rate (pinned
// at zero — a validator that demotes correct optimizer output is too
// imprecise to leave in the build loop). The rows persist to
// BENCH_tval.json; the acceptance bar is a corpus median under 250ms.

type tvalRow struct {
	Program       string  `json:"program"`
	WallNsPerVal  float64 `json:"wall_ns_per_validation"`
	CertBytes     int     `json:"certificate_bytes"`
	Vectors       int     `json:"vectors"`
	Bounded       int     `json:"bounded_vectors"`
	Funcs         int     `json:"functions"`
	Demoted       bool    `json:"demoted"`
	BenchmarkIter int     `json:"benchmark_iters"`
	// Summary-row fields (zero elsewhere).
	MedianWallNs float64 `json:"corpus_median_wall_ns,omitempty"`
	DemotionRate float64 `json:"corpus_demotion_rate,omitempty"`
}

var tvalBench = newArtifact[tvalRow]("BENCH_tval.json", summarizeTVal)

func benchTVal(b *testing.B, name, src string) {
	f, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		b.Fatal(err)
	}
	obj, arts, err := compile.CompileWithOptions(name, checked, compile.Options{Level: compile.OptMIR})
	if err != nil {
		b.Fatal(err)
	}

	var res *transval.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = transval.Validate(name, arts, obj.Checks, transval.Options{})
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

	wallPer := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	tvalBench.record(name, tvalRow{
		Program:       name,
		WallNsPerVal:  wallPer,
		CertBytes:     len(withCert) - len(withoutCert),
		Vectors:       res.Vectors,
		Bounded:       res.Bounded,
		Funcs:         len(res.Funcs),
		Demoted:       false,
		BenchmarkIter: b.N,
	})
	b.ReportMetric(wallPer, "ns/validation")
	b.ReportMetric(float64(len(withCert)-len(withoutCert)), "cert-bytes")
}

func BenchmarkTVal(b *testing.B) {
	names := make([]string, 0, len(progs.All))
	for name := range progs.All {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := progs.All[name]
		b.Run(name, func(b *testing.B) { benchTVal(b, name, src) })
	}
	b.Run("buggy", func(b *testing.B) { benchTVal(b, "buggy", progs.ProfilerBuggy) })
}

// summarizeTVal appends a corpus summary row carrying the median
// validation wall time and the demotion rate.
func summarizeTVal(rows []tvalRow) any {
	walls := make([]float64, len(rows))
	demoted := 0
	for i, r := range rows {
		walls[i] = r.WallNsPerVal
		if r.Demoted {
			demoted++
		}
	}
	return append(rows, tvalRow{
		Program:      "corpus-summary",
		MedianWallNs: median(walls),
		DemotionRate: float64(demoted) / float64(len(rows)),
	})
}
