// Package kexbench is the benchmark harness that regenerates every table
// and figure of the paper under testing.B, one benchmark per artifact
// (DESIGN.md's experiment index maps each to its implementation), plus
// microbenchmarks of the execution engines the ablations build on.
//
// Run with: go test -bench=. -benchmem
package kexbench

import (
	"fmt"
	"testing"

	"kex/internal/bugcorpus"
	"kex/internal/ebpf"
	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/ebpf/verifier"
	"kex/internal/evo"
	"kex/internal/experiments"
	"kex/internal/helperstudy"
	"kex/internal/kernel"
	"kex/internal/kernel/callgraph"
	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

// ---- figures -------------------------------------------------------------

// BenchmarkFig2VerifierGrowth verifies one canonical program under each
// historical feature set, reporting the era's dataset LoC and the feature
// count as metrics — the Figure 2 series.
func BenchmarkFig2VerifierGrowth(b *testing.B) {
	reg := helpers.NewRegistry()
	prog := &isa.Program{Name: "canon", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R6, 0),
		isa.Mov64Imm(isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R6, 1),
		isa.JmpImm(isa.OpJlt, isa.R6, 16, -2),
		isa.Exit(),
	}}
	for _, p := range evo.History {
		p := p
		b.Run(p.Version, func(b *testing.B) {
			cfg := verifier.EraConfig(p.Version)
			accepted := 0.0
			for i := 0; i < b.N; i++ {
				if _, err := verifier.Verify(prog, reg, nil, cfg); err == nil {
					accepted = 1 // loop support arrives with the v5.4 era
				}
			}
			b.ReportMetric(float64(p.VerifierLoC), "verifier-LoC")
			b.ReportMetric(float64(cfg.FeatureCount()), "features")
			b.ReportMetric(accepted, "accepts-loops")
		})
	}
}

// BenchmarkFig3HelperCallgraph synthesizes the 249-helper kernel call
// graph and measures every helper's reachable set — the Figure 3 analysis.
func BenchmarkFig3HelperCallgraph(b *testing.B) {
	specs := helpers.NewRegistry().CallGraphSpecs()
	var d callgraph.Distribution
	for i := 0; i < b.N; i++ {
		sk, err := callgraph.Synthesize(specs, 2023)
		if err != nil {
			b.Fatal(err)
		}
		d = callgraph.Summarize(sk.Counts())
	}
	b.ReportMetric(float64(d.N), "helpers")
	b.ReportMetric(float64(d.Max), "max-nodes")
	b.ReportMetric(100*d.FracAtLeast30, "pct>=30")
	b.ReportMetric(100*d.FracAtLeast500, "pct>=500")
}

// BenchmarkFig4HelperGrowth recomputes the helper-count-by-version series
// from registry metadata — the Figure 4 data.
func BenchmarkFig4HelperGrowth(b *testing.B) {
	var last helpers.GrowthPoint
	for i := 0; i < b.N; i++ {
		reg := helpers.NewRegistry()
		series := reg.GrowthSeries()
		last = series[len(series)-1]
	}
	b.ReportMetric(float64(last.Count), "helpers@v6.1")
}

// ---- tables ----------------------------------------------------------------

// BenchmarkTable1BugCorpus executes every runnable exploit in the Table 1
// corpus, once per iteration.
func BenchmarkTable1BugCorpus(b *testing.B) {
	bugs := bugcorpus.All()
	reproduced := 0
	for i := 0; i < b.N; i++ {
		reproduced = 0
		for _, bug := range bugs {
			if !bug.Executable() {
				continue
			}
			if _, err := bug.Reproduce(); err != nil {
				b.Fatalf("%s: %v", bug.ID, err)
			}
			reproduced++
		}
	}
	b.ReportMetric(float64(len(bugs)), "corpus-size")
	b.ReportMetric(float64(reproduced), "exploits-run")
}

// BenchmarkTable2Properties demonstrates the six safety properties of
// Table 2 per iteration.
func BenchmarkTable2Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2()
		if !r.Holds {
			b.Fatalf("table 2 failed:\n%s", r)
		}
	}
	b.ReportMetric(6, "properties")
}

// ---- §2.2 exploit experiments ---------------------------------------------------

// BenchmarkE1HelperCrash runs the bpf_sys_bpf exploit end to end: verify,
// load, crash.
func BenchmarkE1HelperCrash(b *testing.B) {
	var bug *bugcorpus.Bug
	for _, candidate := range bugcorpus.All() {
		if candidate.ID == "H01" {
			bug = candidate
		}
	}
	for i := 0; i < b.N; i++ {
		ev, err := bug.Reproduce()
		if err != nil {
			b.Fatal(err)
		}
		if ev.OopsKind != string(kernel.OopsNullDeref) {
			b.Fatalf("oops = %s", ev.OopsKind)
		}
	}
}

// BenchmarkE2LoopStall runs the nested-loop program at several sizes and
// reports virtual runtime per outer iteration — the linearity behind the
// "millions of years" extrapolation.
func BenchmarkE2LoopStall(b *testing.B) {
	for _, outer := range []int32{100, 400} {
		outer := outer
		b.Run(fmt.Sprintf("outer=%d", outer), func(b *testing.B) {
			var perIter, wallPerIter float64
			for i := 0; i < b.N; i++ {
				k := kernel.NewDefault()
				s := ebpf.NewStack(k)
				l, err := s.Load(bugcorpus.StallProgram(s, outer, 200))
				if err != nil {
					b.Fatal(err)
				}
				rep, err := l.Run(ebpf.RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				// The stall extrapolation is defined over the virtual
				// clock; the perf figure is the report's wall latency.
				perIter = float64(rep.RuntimeNs) / float64(outer)
				wallPerIter = float64(rep.WallNs) / float64(outer)
			}
			b.ReportMetric(perIter, "virtual-ns/outer-iter")
			b.ReportMetric(wallPerIter, "wall-ns/outer-iter")
		})
	}
}

// BenchmarkE3HelperStudy classifies the helper interface and runs the
// worked SLX ports per iteration.
func BenchmarkE3HelperStudy(b *testing.B) {
	var retire int
	for i := 0; i < b.N; i++ {
		s := helperstudy.Summarize(helperstudy.Classify(helpers.NewRegistry()))
		retire = s.Retire
	}
	b.ReportMetric(float64(retire), "retirable")
}

// ---- ablations ---------------------------------------------------------------------

// BenchmarkA1VerifierScaling measures verification cost against branch
// density: the state-explosion wall that motivates the complexity budget.
func BenchmarkA1VerifierScaling(b *testing.B) {
	reg := helpers.NewRegistry()
	for _, diamonds := range []int{8, 12, 16} {
		diamonds := diamonds
		b.Run(fmt.Sprintf("diamonds=%d", diamonds), func(b *testing.B) {
			b.ReportAllocs()
			prog := branchy(diamonds)
			cfg := verifier.DefaultConfig()
			var processed int
			for i := 0; i < b.N; i++ {
				res, err := verifier.Verify(prog, reg, nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				processed = res.InsnsProcessed
			}
			b.ReportMetric(float64(processed), "insns-processed")
		})
	}
}

func branchy(n int) *isa.Program {
	insns := []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R2, isa.R1, 0),
		isa.Mov64Imm(isa.R3, 0),
	}
	for i := 0; i < n; i++ {
		insns = append(insns,
			isa.JmpImm(isa.OpJset, isa.R2, 1<<uint(i%32), 1),
			isa.ALU64Imm(isa.OpAdd, isa.R3, int32(1<<uint(i%16))),
		)
	}
	insns = append(insns, isa.Mov64Reg(isa.R0, isa.R3), isa.Exit())
	return &isa.Program{Name: "branchy", Type: isa.Tracing, Insns: insns}
}

// BenchmarkA2LoadPath compares the two load pipelines on a 512-insn
// program: verify+JIT versus signature-check+fixup.
func BenchmarkA2LoadPath(b *testing.B) {
	insns := make([]isa.Instruction, 0, 514)
	insns = append(insns, isa.Mov64Imm(isa.R0, 0))
	for i := 0; i < 512; i++ {
		insns = append(insns, isa.ALU64Imm(isa.OpAdd, isa.R0, int32(i)))
	}
	insns = append(insns, isa.Exit())
	prog := &isa.Program{Name: "line", Type: isa.Tracing, Insns: insns}

	b.Run("verify+jit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := ebpf.NewStack(kernel.NewDefault())
			l, err := s.Load(prog)
			if err != nil {
				b.Fatal(err)
			}
			l.Close()
		}
	})

	signer, err := toolchain.NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	so, err := signer.BuildAndSign("line", slxLine(64))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("signature+fixup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rt := runtime.New(kernel.NewDefault(), runtime.DefaultConfig())
			rt.AddKey(signer.PublicKey())
			ext, err := rt.Load(so)
			if err != nil {
				b.Fatal(err)
			}
			ext.Close()
		}
	})
}

func slxLine(n int) string {
	src := "fn main() -> i64 {\n\tlet mut x: i64 = 0;\n"
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("\tx += %d;\n", i)
	}
	return src + "\treturn x;\n}\n"
}

// BenchmarkA3RuntimeTax runs the same hot loop on every engine
// configuration the ablation compares.
func BenchmarkA3RuntimeTax(b *testing.B) {
	const iters = 10_000
	loop := &isa.Program{Name: "hot", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R6, 0),
		isa.Mov64Imm(isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R6, 1),
		isa.ALU64Imm(isa.OpAdd, isa.R0, 3),
		isa.JmpImm(isa.OpJlt, isa.R6, iters, -3),
		isa.Exit(),
	}}
	engines := []struct {
		name   string
		useJIT bool
		fuel   uint64
	}{
		{"interp", false, 0},
		{"interp+fuel", false, 1 << 62},
		{"jit", true, 0},
		{"jit+fuel", true, 1 << 62},
	}
	for _, e := range engines {
		e := e
		b.Run(e.name, func(b *testing.B) {
			s := ebpf.NewStack(kernel.NewDefault())
			s.UseJIT = e.useJIT
			l, err := s.Load(loop)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var insns uint64
			for i := 0; i < b.N; i++ {
				rep, err := l.Run(ebpf.RunOptions{Fuel: e.fuel})
				if err != nil {
					b.Fatal(err)
				}
				insns = rep.Instructions
			}
			b.ReportMetric(float64(insns), "insns/run")
		})
	}

	b.Run("safext-slx", func(b *testing.B) {
		rt := runtime.New(kernel.NewDefault(), runtime.DefaultConfig())
		ext := loadSLX(b, rt, "hot", fmt.Sprintf(`
fn main() -> i64 {
	let mut x: i64 = 0;
	for i in 0..%d {
		x += 3;
	}
	return 0;
}`, iters), 0)
		b.ResetTimer()
		var insns uint64
		for i := 0; i < b.N; i++ {
			v, err := ext.Run(runtime.RunOptions{})
			if err != nil || !v.Completed {
				b.Fatalf("%+v %v", v, err)
			}
			insns = v.Instructions
		}
		b.ReportMetric(float64(insns), "insns/run")
	})
}

// BenchmarkA4Expressiveness measures the full reject-vs-complete cycle on
// the oversized-program case.
func BenchmarkA4Expressiveness(b *testing.B) {
	reg := helpers.NewRegistry()
	big := make([]isa.Instruction, 0, 5002)
	big = append(big, isa.Mov64Imm(isa.R0, 0))
	for i := 0; i < 5000; i++ {
		big = append(big, isa.ALU64Imm(isa.OpAdd, isa.R0, 1))
	}
	big = append(big, isa.Exit())
	prog := &isa.Program{Name: "big", Type: isa.Tracing, Insns: big}

	b.Run("verifier-reject", func(b *testing.B) {
		cfg := verifier.DefaultConfig()
		for i := 0; i < b.N; i++ {
			if _, err := verifier.Verify(prog, reg, nil, cfg); err == nil {
				b.Fatal("oversized program accepted")
			}
		}
	})
	b.Run("safext-complete", func(b *testing.B) {
		rt := runtime.New(kernel.NewDefault(), runtime.DefaultConfig())
		ext := loadSLX(b, rt, "big", slxLine(2000), 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := ext.Run(runtime.RunOptions{})
			if err != nil || !v.Completed {
				b.Fatalf("%+v %v", v, err)
			}
		}
	})
}

// ---- engine microbenchmarks ------------------------------------------------------

// BenchmarkMapLookupHelper measures one verified map lookup through the
// full helper path (JIT engine).
func BenchmarkMapLookupHelper(b *testing.B) {
	k := kernel.NewDefault()
	s := ebpf.NewStack(k)
	if _, err := s.CreateMap(maps.Spec{Name: "bench", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 16}); err != nil {
		b.Fatal(err)
	}
	lookup, _ := s.Helpers.ByName("bpf_map_lookup_elem")
	prog := &isa.Program{Name: "lookup", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R1, "bench"),
		isa.Call(int32(lookup.ID)),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}}
	l, err := s.Load(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Run(ebpf.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSLXToolchain measures the full compile+sign path.
func BenchmarkSLXToolchain(b *testing.B) {
	signer, err := toolchain.NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	src := `
map counts: hash<u32, u64>(256);
fn main() -> i64 {
	let mut total: u64 = 0;
	for i in 0..16 {
		total += kernel::map_get(counts, i);
	}
	kernel::map_set(counts, 0, total);
	return 0;
}`
	for i := 0; i < b.N; i++ {
		if _, err := signer.BuildAndSign("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignatureValidation isolates the loader's cryptographic check.
func BenchmarkSignatureValidation(b *testing.B) {
	signer, err := toolchain.NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	so, err := signer.BuildAndSign("bench", "fn main() -> i64 { return 0; }")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !so.Verify(signer.PublicKey()) {
			b.Fatal("signature rejected")
		}
	}
}
