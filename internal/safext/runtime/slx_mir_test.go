package runtime

import (
	"testing"

	"kex/examples/progs"
	"kex/internal/kernel"
	"kex/internal/safext/toolchain"
)

// Equivalence tests for the MIR backend: every program in the shared
// example corpus must behave identically — result, trap verdict, helper
// effects — at all three optimization levels. The corpus covers what the
// random differential generator cannot: maps, arrays, crate calls,
// BPF-to-BPF calls, sync sections, and the watchdog path.

// runCorpus builds src with the given builder and runs it n times on a
// fresh kernel+runtime (deterministic helper state), returning verdicts.
func runCorpus(t *testing.T, signer *toolchain.Signer,
	build func(name, src string) (*toolchain.SignedObject, error),
	name, src string, n int) []*Verdict {
	t.Helper()
	so, err := build(name, src)
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	rt := New(kernel.NewDefault(), DefaultConfig())
	rt.AddKey(signer.PublicKey())
	ext, err := rt.Load(so)
	if err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	defer ext.Close()
	out := make([]*Verdict, n)
	for i := range out {
		v, err := ext.Run(RunOptions{})
		if err != nil {
			t.Fatalf("%s: run %d: %v", name, i, err)
		}
		out[i] = v
	}
	return out
}

func TestSLXCorpusMIREquivalence(t *testing.T) {
	signer, err := toolchain.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	for name, src := range progs.All {
		naive := runCorpus(t, signer, signer.BuildAndSign, name, src, runs)
		elided := runCorpus(t, signer, signer.BuildAndSignOptimized, name, src, runs)
		mir := runCorpus(t, signer, signer.BuildAndSignOptimizedMIR, name, src, runs)
		for i := range naive {
			for _, o := range []struct {
				tier string
				v    *Verdict
			}{{"elided", elided[i]}, {"mir", mir[i]}} {
				if naive[i].R0 != o.v.R0 || naive[i].Completed != o.v.Completed ||
					naive[i].Terminated != o.v.Terminated || naive[i].TrapCode != o.v.TrapCode ||
					naive[i].Reason != o.v.Reason {
					t.Errorf("%s run %d: naive and %s builds diverged:\nnaive %+v\n%s %+v",
						name, i, o.tier, naive[i], o.tier, o.v)
				}
			}
		}
	}
}

// mirStressProgs covers language constructs the example corpus and the
// random generator leave out: scoped sockets released on every exit path,
// while loops with break/continue, short-circuit operators in value and
// branch position, compound array assignment, per-CPU maps, explicit
// traps, watchdog termination, and compound assignments whose operand is
// their own destination.
var mirStressProgs = map[string]string{
	"sock_paths": `
fn main() -> i64 {
	let s = kernel::sk_lookup_tcp(1, 2, 3, 443);
	if kernel::sk_ok(s) {
		kernel::sk_mark(s, 7);
		return 1;
	}
	return 0;
}
`,
	"while_break_continue": `
fn main() -> i64 {
	let mut i: i64 = 0;
	let mut acc: i64 = 0;
	while i < 100 {
		i += 1;
		if i % 3 == 0 { continue; }
		if i > 40 { break; }
		acc += i;
	}
	return acc * 1000 + i;
}
`,
	"bool_ops": `
fn main() -> i64 {
	let a = kernel::rand() % 16;
	let b = kernel::rand() % 16;
	let mut both: i64 = 0;
	if a > 4 && b > 4 { both = 1; }
	let mut either: i64 = 0;
	if a > 12 || b > 12 { either = 1; }
	if (a < 8 || b < 8) && !(a == b) {
		return both * 2 + either;
	}
	return both * 4 + either;
}
`,
	"compound_array": `
fn main() -> i64 {
	let mut buf: [u8; 32];
	for i in 0..32 {
		buf[i & 31] = i * 7;
	}
	let k = kernel::rand() % 32;
	buf[k] += 3;
	buf[k] *= 2;
	let mut sum: i64 = 0;
	for i in 0..32 {
		sum += buf[i & 31];
	}
	return sum;
}
`,
	"percpu_counts": `
map percount: percpu_hash<u64, u64>(64);

fn main() -> i64 {
	let k = kernel::rand() % 64;
	kernel::map_inc(percount, k, 2);
	let a = kernel::map_get(percount, k);
	kernel::map_inc(percount, k, 3);
	let b = kernel::map_get(percount, k);
	return a * 1000 + b;
}
`,
	"explicit_trap": `
fn main() -> i64 {
	let v = kernel::rand() % 8;
	if v >= 0 {
		trap;
	}
	return v;
}
`,
	"div_by_zero_dynamic": `
fn main() -> i64 {
	let z = kernel::rand() % 1;
	return 100 / z;
}
`,
	"nested_call_chain": `
fn double(x: i64) -> i64 { return x * 2; }
fn addsq(x: i64, y: i64) -> i64 { return double(x) + y * y; }

fn main() -> i64 {
	let mut t: i64 = 0;
	for i in 0..10 {
		t += addsq(i, t % 97);
	}
	return t;
}
`,
	"self_compound": `
fn main() -> i64 {
	let mut v: i64 = 5;
	v += v;
	let mut w: i64 = kernel::rand() % 4 + 2;
	w *= w;
	let mut a: i64 = kernel::rand() % 8 + 1;
	let mut m: i64 = 3;
	for i in 0..4 {
		a += a;
		m *= m;
	}
	return v * 1000000000 + w * 10000000 + a * 100000 + m % 100000;
}
`,
}

func TestSLXStressMIREquivalence(t *testing.T) {
	signer, err := toolchain.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{"watchdog": progs.ProfilerBuggy}
	for n, s := range mirStressProgs {
		srcs[n] = s
	}
	const runs = 4
	for name, src := range srcs {
		naive := runCorpus(t, signer, signer.BuildAndSign, name, src, runs)
		mir := runCorpus(t, signer, signer.BuildAndSignOptimizedMIR, name, src, runs)
		for i := range naive {
			v, m := naive[i], mir[i]
			if v.R0 != m.R0 || v.Completed != m.Completed || v.Terminated != m.Terminated ||
				v.TrapCode != m.TrapCode || v.Reason != m.Reason ||
				v.CleanedSocks != m.CleanedSocks || v.CleanedLocks != m.CleanedLocks {
				t.Errorf("%s run %d: naive and MIR builds diverged:\nnaive %+v\nmir   %+v",
					name, i, v, m)
			}
		}
	}
}

// deadCheckSrc has a bounds check after a return. Every build lowers it
// as dead and counts its sites elided, none emitted.
const deadCheckSrc = `
fn main() -> i64 {
	let mut buf: [u8; 8];
	let i = kernel::rand() & 15;
	return 1;
	buf[i] = 3;
	return buf[i];
}`

// TestSLXCorpusMIRLedger checks the check-site ledger invariant at level 2:
// every check site of the naive build is accounted for — emitted, elided
// by the analyzer or as dead code, or folded by the optimizer — and the
// MIR build never emits more dynamic checks than the elided build. The
// corpus has no dead code, so its naive builds elide nothing; deadCheckSrc
// pins the sites a naive build does elide.
func TestSLXCorpusMIRLedger(t *testing.T) {
	srcs := map[string]string{"dead_check": deadCheckSrc}
	for name, src := range progs.All {
		srcs[name] = src
	}
	for name, src := range srcs {
		naive, err := toolchain.Build(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		elided, err := toolchain.BuildOptimized(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mir, err := toolchain.BuildOptimizedMIR(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nTotal := naive.Checks.Emitted() + naive.Checks.Elided()
		mTotal := mir.Checks.Emitted() + mir.Checks.Elided()
		if nTotal != mTotal {
			t.Errorf("%s: ledgers disagree: naive %d sites, mir %d", name, nTotal, mTotal)
		}
		if _, corpus := progs.All[name]; corpus && naive.Checks.Elided() != 0 {
			t.Errorf("%s: naive build of a program without dead code elides %d sites", name, naive.Checks.Elided())
		}
		if mir.Checks.Emitted() > elided.Checks.Emitted() {
			t.Errorf("%s: mir emits %d dynamic checks, elided build only %d",
				name, mir.Checks.Emitted(), elided.Checks.Emitted())
		}
		if mir.Opt.Level != 2 {
			t.Errorf("%s: Opt.Level = %d, want 2", name, mir.Opt.Level)
		}
		if len(mir.Insns) >= len(naive.Insns) {
			t.Errorf("%s: mir build has %d insns, naive %d — optimizer added code?",
				name, len(mir.Insns), len(naive.Insns))
		}
	}
}
