package runtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kex/internal/analysis/mirrun"
	"kex/internal/kernel"
	"kex/internal/safext/compile"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
	"kex/internal/safext/toolchain"
)

// Differential fuzz for the SLX toolchain: random programs are generated
// together with a Go reference evaluation of their semantics (64-bit
// two's-complement arithmetic, masked shifts, signed i64 comparisons,
// lexical scoping). The compiled program must return exactly the value the
// reference computed — any divergence is a code-generation bug. The Go
// model skips programs that trap or return early; for every verdict the
// compiled program must also match the reference MIR machine running the
// program's naive lowering (see referenceVerdict).

type slxGen struct {
	rng  *rand.Rand
	sb   strings.Builder
	vars map[string]int64 // reference state
	loop int              // unique loop-variable counter
}

func (g *slxGen) lit() int64 { return g.rng.Int63n(2001) - 1000 }

// expr emits an expression string and returns its reference value, given
// the current variable state plus any loop variables in scope.
func (g *slxGen) expr(depth int, scope map[string]int64) (string, int64) {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		if len(scope) > 0 && g.rng.Intn(2) == 0 {
			// Pick a variable deterministically.
			names := sortedNames(scope)
			n := names[g.rng.Intn(len(names))]
			return n, scope[n]
		}
		v := g.lit()
		if v < 0 {
			return fmt.Sprintf("(0 - %d)", -v), v
		}
		return fmt.Sprintf("%d", v), v
	}
	ls, lv := g.expr(depth-1, scope)
	rs, rv := g.expr(depth-1, scope)
	switch g.rng.Intn(9) {
	case 0:
		return fmt.Sprintf("(%s + %s)", ls, rs), lv + rv
	case 1:
		return fmt.Sprintf("(%s - %s)", ls, rs), lv - rv
	case 2:
		return fmt.Sprintf("(%s * %s)", ls, rs), lv * rv
	case 3:
		return fmt.Sprintf("(%s & %s)", ls, rs), lv & rv
	case 4:
		return fmt.Sprintf("(%s | %s)", ls, rs), lv | rv
	case 5:
		return fmt.Sprintf("(%s ^ %s)", ls, rs), lv ^ rv
	case 6:
		// SLX / and % are unsigned 64-bit. `| 1` pins the divisor nonzero,
		// which the analyzer can prove via known bits — so optimized builds
		// elide this div-by-zero check and the differential covers the
		// elision. Rarely, emit a literal zero divisor instead: both builds
		// must then agree on the trap verdict.
		if g.rng.Intn(8) == 0 {
			op := "/"
			if g.rng.Intn(2) == 0 {
				op = "%"
			}
			// The trap aborts before any fold; the value never matters.
			return fmt.Sprintf("(%s %s 0)", ls, op), 0
		}
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("(%s / (%s | 1))", ls, rs), int64(uint64(lv) / uint64(rv|1))
		}
		return fmt.Sprintf("(%s %% (%s | 1))", ls, rs), int64(uint64(lv) % uint64(rv|1))
	case 7:
		// Variable shift amounts: SLX masks src & 63 in compile/interp/jit
		// alike, the reference must mirror it. Amounts routinely exceed 63
		// and go negative, exercising the masking edge.
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("(%s << %s)", ls, rs), lv << uint(uint64(rv)&63)
		}
		return fmt.Sprintf("(%s >> %s)", ls, rs), int64(uint64(lv) >> uint(uint64(rv)&63))
	default:
		s := g.rng.Intn(8) // small shifts keep values interesting
		// SLX << and >> are 64-bit with masked amounts; >> is logical.
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("(%s << %d)", ls, s), lv << uint(s)
		}
		return fmt.Sprintf("(%s >> %d)", ls, s), int64(uint64(lv) >> uint(s))
	}
}

// cond emits a boolean expression and its reference truth value.
func (g *slxGen) cond(scope map[string]int64) (string, bool) {
	ls, lv := g.expr(2, scope)
	rs, rv := g.expr(2, scope)
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("%s == %s", ls, rs), lv == rv
	case 1:
		return fmt.Sprintf("%s != %s", ls, rs), lv != rv
	case 2:
		return fmt.Sprintf("%s < %s", ls, rs), lv < rv // signed: both i64
	case 3:
		return fmt.Sprintf("%s <= %s", ls, rs), lv <= rv
	case 4:
		return fmt.Sprintf("%s > %s", ls, rs), lv > rv
	default:
		return fmt.Sprintf("%s >= %s", ls, rs), lv >= rv
	}
}

// stmts emits a statement list at the given indent, mutating the reference
// state exactly as the program will.
func (g *slxGen) stmts(n, depth int, indent string, scope map[string]int64) {
	for i := 0; i < n; i++ {
		names := sortedNames(g.vars)
		target := names[g.rng.Intn(len(names))]
		switch g.rng.Intn(6) {
		case 0, 1: // assignment
			es, ev := g.expr(3, scope)
			fmt.Fprintf(&g.sb, "%s%s = %s;\n", indent, target, es)
			g.vars[target] = ev
			scope[target] = ev
		case 2: // compound assignment
			es, ev := g.expr(2, scope)
			op := []string{"+=", "-=", "*=", "^=", "|=", "&="}[g.rng.Intn(6)]
			fmt.Fprintf(&g.sb, "%s%s %s %s;\n", indent, target, op, es)
			cur := g.vars[target]
			switch op {
			case "+=":
				cur += ev
			case "-=":
				cur -= ev
			case "*=":
				cur *= ev
			case "^=":
				cur ^= ev
			case "|=":
				cur |= ev
			case "&=":
				cur &= ev
			}
			g.vars[target] = cur
			scope[target] = cur
		case 3: // if/else
			if depth <= 0 {
				continue
			}
			cs, cv := g.cond(scope)
			fmt.Fprintf(&g.sb, "%sif %s {\n", indent, cs)
			if cv {
				g.stmts(1+g.rng.Intn(2), depth-1, indent+"\t", scope)
				fmt.Fprintf(&g.sb, "%s} else {\n", indent)
				g.discard(1+g.rng.Intn(2), depth-1, indent+"\t", scope)
			} else {
				g.discard(1+g.rng.Intn(2), depth-1, indent+"\t", scope)
				fmt.Fprintf(&g.sb, "%s} else {\n", indent)
				g.stmts(1+g.rng.Intn(2), depth-1, indent+"\t", scope)
			}
			fmt.Fprintf(&g.sb, "%s}\n", indent)
		case 4: // counted for loop accumulating into a var
			if depth <= 0 {
				continue
			}
			k := 1 + g.rng.Intn(6)
			g.loop++
			iv := fmt.Sprintf("i%d", g.loop)
			es, _ := "", int64(0)
			// Body: target += expr(iv); replay the loop on the model.
			inner := cloneScope(scope)
			fmt.Fprintf(&g.sb, "%sfor %s in 0..%d {\n", indent, iv, k)
			// Build the body expression once; evaluate per iteration.
			bodyExpr, _ := g.exprWithVar(2, inner, iv)
			es = bodyExpr
			fmt.Fprintf(&g.sb, "%s\t%s += %s;\n", indent, target, es)
			fmt.Fprintf(&g.sb, "%s}\n", indent)
			cur := g.vars[target]
			for it := int64(0); it < int64(k); it++ {
				inner[iv] = it
				inner[target] = cur
				cur += evalRef(bodyExpr, inner)
			}
			delete(inner, iv)
			g.vars[target] = cur
			scope[target] = cur
		case 5: // early return, rarely, only at top level
			if indent == "\t" && g.rng.Intn(8) == 0 {
				fmt.Fprintf(&g.sb, "%sreturn %s;\n", indent, target)
				// The caller detects the early return via returned flag.
			}
		}
	}
}

// discard emits statements into a branch the reference knows is dead, with
// a throwaway state copy so the model is unaffected.
func (g *slxGen) discard(n, depth int, indent string, scope map[string]int64) {
	savedVars := cloneScope(g.vars)
	g.stmts(n, depth, indent, cloneScope(scope))
	g.vars = savedVars
}

// exprWithVar builds an expression that may reference the loop variable.
func (g *slxGen) exprWithVar(depth int, scope map[string]int64, loopVar string) (string, int64) {
	scope[loopVar] = 0
	s, v := g.expr(depth, scope)
	return s, v
}

func cloneScope(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sortedNames(m map[string]int64) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// evalRef re-evaluates a generated expression string against a scope. The
// generator only emits a small grammar, so a tiny recursive parser covers
// it. (Expressions are fully parenthesised except at the leaves.)
func evalRef(s string, scope map[string]int64) int64 {
	v, rest := evalPrefix(s, scope)
	if strings.TrimSpace(rest) != "" {
		panic("evalRef: trailing " + rest)
	}
	return v
}

func evalPrefix(s string, scope map[string]int64) (int64, string) {
	s = strings.TrimLeft(s, " ")
	if strings.HasPrefix(s, "(") {
		l, rest := evalPrefix(s[1:], scope)
		rest = strings.TrimLeft(rest, " ")
		var op string
		for _, cand := range []string{"<<", ">>", "+", "-", "*", "/", "%", "&", "|", "^"} {
			if strings.HasPrefix(rest, cand) {
				op = cand
				break
			}
		}
		r, rest2 := evalPrefix(rest[len(op):], scope)
		rest2 = strings.TrimLeft(rest2, " ")
		if !strings.HasPrefix(rest2, ")") {
			panic("evalPrefix: missing ) in " + rest2)
		}
		var v int64
		switch op {
		case "+":
			v = l + r
		case "-":
			v = l - r
		case "*":
			v = l * r
		case "/":
			// SLX division is unsigned; a zero divisor traps at runtime, so
			// the value is never observed — 0 keeps the model total.
			if r != 0 {
				v = int64(uint64(l) / uint64(r))
			}
		case "%":
			if r != 0 {
				v = int64(uint64(l) % uint64(r))
			}
		case "&":
			v = l & r
		case "|":
			v = l | r
		case "^":
			v = l ^ r
		case "<<":
			v = l << uint(r&63)
		case ">>":
			v = int64(uint64(l) >> uint(r&63))
		}
		return v, rest2[1:]
	}
	// leaf: number or identifier
	i := 0
	for i < len(s) && (s[i] == '_' || s[i] >= 'a' && s[i] <= 'z' || s[i] >= '0' && s[i] <= '9') {
		i++
	}
	tok := s[:i]
	if tok == "" {
		panic("evalPrefix: empty token in " + s)
	}
	if tok[0] >= '0' && tok[0] <= '9' {
		var v int64
		for _, c := range tok {
			v = v*10 + int64(c-'0')
		}
		return v, s[i:]
	}
	return scope[tok], s[i:]
}

// meteredRun is Extension.Run with the fuel meter forced on, and it also
// returns the instructions the program retired. Run turns the meter off
// when the object's static bound fits the budget; the bound oracle must
// see a real count instead of trusting the bound it checks.
func meteredRun(ext *Extension, opts RunOptions) (Verdict, uint64, error) {
	p := ext.Prepare(opts)
	req := p.Request()
	req.Fuel, req.FuelElided = ext.rt.Cfg.Fuel, false
	rep, runErr := ext.rt.Core.Run(ext.Engine(), req, ext.Revalidate())
	used := rep.FuelUsed
	v, err := p.Finish(rep, runErr)
	return v, used, err
}

// referenceVerdict runs src's naive lowering — no elision pass, no
// passes, no register allocation, no emitter — on the reference MIR
// machine (internal/analysis/mirrun). The three build tiers share one
// emitter and one allocator, so their agreement alone does not check code
// generation; this oracle does, for the return value, the trap verdict and
// the trap code alike. Fuzz programs make no crate calls, so the machine
// needs no crate hook.
func referenceVerdict(tb testing.TB, seed int64, src string) (uint64, *mirrun.Stop) {
	tb.Helper()
	file, err := lang.Parse(src)
	if err != nil {
		tb.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
	}
	checked, err := lang.Check(file)
	if err != nil {
		tb.Fatalf("seed %d: check: %v\n%s", seed, err, src)
	}
	m := &mirrun.Machine{Funcs: make(map[string]mirrun.Code), Fuel: 1 << 22}
	for _, fn := range checked.File.Funcs {
		f, err := mir.LowerFunc(fn, checked)
		if err != nil {
			tb.Fatalf("seed %d: lower %s: %v\n%s", seed, fn.Name, err, src)
		}
		m.Funcs[fn.Name] = mirrun.Code{F: f}
	}
	return m.Run("main", nil)
}

// slxDifferentialTrial generates one random program from the seed, runs it
// through the full toolchain + runtime, and checks the result against the
// Go reference model. Shared by the table-driven test and the fuzz target.
func slxDifferentialTrial(tb testing.TB, signer *toolchain.Signer, seed int64) {
	tb.Helper()
	g := &slxGen{rng: rand.New(rand.NewSource(seed)), vars: map[string]int64{}}
	g.sb.WriteString("fn main() -> i64 {\n")
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("v%d", i)
		v := g.lit()
		init := fmt.Sprintf("%d", v)
		if v < 0 {
			init = fmt.Sprintf("0 - %d", -v)
		}
		fmt.Fprintf(&g.sb, "\tlet mut %s: i64 = %s;\n", name, init)
		g.vars[name] = v
	}
	scope := cloneScope(g.vars)
	g.stmts(6+g.rng.Intn(8), 2, "\t", scope)
	// Final result folds all variables.
	want := g.vars["v0"] + 3*g.vars["v1"] - g.vars["v2"] ^ g.vars["v3"]
	g.sb.WriteString("\treturn v0 + 3 * v1 - v2 ^ v3;\n}\n")
	src := g.sb.String()

	k := kernel.NewDefault()
	rt := New(k, DefaultConfig())
	rt.AddKey(signer.PublicKey())

	// Every input runs three times: the naive build with every runtime
	// check in place, the analyzer-optimized (elided) build, and the full
	// MIR-optimized build (fold/propagate, LICM, load elimination, register
	// allocation). All three must be bit-identical in result AND trap
	// verdict — an optimization is only sound if it is observationally
	// invisible.
	so, err := signer.BuildAndSign("fuzz-naive", src)
	if err != nil {
		tb.Fatalf("seed %d: build: %v\n%s", seed, err, src)
	}
	soOpt, err := signer.BuildAndSignOptimized("fuzz-opt", src)
	if err != nil {
		tb.Fatalf("seed %d: build optimized: %v\n%s", seed, err, src)
	}
	soMIR, err := signer.BuildAndSignOptimizedMIR("fuzz-mir", src)
	if err != nil {
		tb.Fatalf("seed %d: build mir: %v\n%s", seed, err, src)
	}
	// Verdict equality alone no longer closes the oracle: the MIR build
	// must also carry a valid translation-validation certificate, and a
	// fuzz input the validator demotes is a validator-precision bug worth
	// failing on (the optimizer corpus demotion rate is pinned at zero).
	mirObj, err := toolchain.Deserialize(soMIR.Payload)
	if err != nil {
		tb.Fatalf("seed %d: deserialize mir: %v", seed, err)
	}
	switch {
	case mirObj.TVal == nil:
		tb.Fatalf("seed %d: MIR build carries no translation-validation certificate\n%s", seed, src)
	case mirObj.TVal.Demoted:
		tb.Fatalf("seed %d: MIR build demoted by translation validation: %s\n%s", seed, mirObj.TVal.Reason, src)
	case mirObj.Opt.Level == compile.OptMIR && !mirObj.TVal.Validated:
		tb.Fatalf("seed %d: OptMIR object with unvalidated certificate\n%s", seed, src)
	}
	run := func(so *toolchain.SignedObject) *Verdict {
		ext, err := rt.Load(so)
		if err != nil {
			tb.Fatalf("seed %d: load: %v", seed, err)
		}
		v, used, err := meteredRun(ext, RunOptions{})
		if err != nil {
			tb.Fatalf("seed %d: run: %v\n%s", seed, err, src)
		}
		if b := ext.Checks.StaticInsnBound; b > 0 && used > uint64(b) {
			tb.Fatalf("seed %d: %s retired %d instructions past its static bound %d\n%s", seed, ext.Name, used, b, src)
		}
		return &v
	}
	v := run(so)
	vOpt := run(soOpt)
	vMIR := run(soMIR)
	switch ret, stop := referenceVerdict(tb, seed, src); {
	case stop == nil:
		if !v.Completed || v.R0 != int64(ret) {
			tb.Fatalf("seed %d: naive build %+v, reference machine returned %d\n%s", seed, v, int64(ret), src)
		}
	case stop.Kind == mirrun.StopTrap:
		if !v.Terminated || v.Reason != "trap" || v.TrapCode != stop.Trap {
			tb.Fatalf("seed %d: naive build %+v, reference machine trapped with code %d\n%s", seed, v, stop.Trap, src)
		}
	default:
		tb.Fatalf("seed %d: reference machine gave no verdict: %+v\n%s", seed, stop, src)
	}
	if v.Completed != vOpt.Completed || v.Terminated != vOpt.Terminated ||
		v.R0 != vOpt.R0 || v.Reason != vOpt.Reason || v.TrapCode != vOpt.TrapCode {
		tb.Fatalf("seed %d: naive and optimized builds diverged:\nnaive     %+v\noptimized %+v\n%s",
			seed, v, vOpt, src)
	}
	if v.Completed != vMIR.Completed || v.Terminated != vMIR.Terminated ||
		v.R0 != vMIR.R0 || v.Reason != vMIR.Reason || v.TrapCode != vMIR.TrapCode {
		tb.Fatalf("seed %d: naive and MIR builds diverged:\nnaive %+v\nmir   %+v\n%s",
			seed, v, vMIR, src)
	}
	if !v.Completed {
		// Early returns and seeded zero-divisor traps make the final fold
		// unreachable; the build-vs-build comparison above still counted.
		return
	}
	if strings.Contains(src, "return v") && strings.Count(src, "return") > 1 {
		return // an early return fired or not; oracle ambiguous
	}
	if v.R0 != want {
		tb.Fatalf("seed %d: compiled R0 = %d, reference = %d\n%s", seed, v.R0, want, src)
	}
}

func TestSLXDifferentialFuzz(t *testing.T) {
	signer, err := toolchain.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	const trials = 500
	for seed := int64(0); seed < trials; seed++ {
		slxDifferentialTrial(t, signer, seed)
	}
}

// FuzzSLXDifferential is the go test -fuzz entry point over the same
// differential oracle: the fuzzer explores generator seeds beyond the fixed
// corpus the table-driven test covers. Each input exercises the naive, the
// analyzer-optimized and the MIR-optimized build against each other, the
// reference MIR machine and the Go model (see slxDifferentialTrial).
//
// The checked-in corpus entry testdata/fuzz/FuzzSLXDifferential/
// shift-mask-div-trap pins a seed whose program shifts by variable amounts
// ≥64 and below zero: all three layers (compile's emitted mask, the
// interpreter's EvalALU, and the JIT that reuses it) mask shift amounts
// with src & 63, and this seed keeps that equivalence under test. The same
// seed also carries a literal zero divisor, pinning trap-verdict equality
// between builds.
func FuzzSLXDifferential(f *testing.F) {
	signer, err := toolchain.NewSigner()
	if err != nil {
		f.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		slxDifferentialTrial(t, signer, seed)
	})
}
