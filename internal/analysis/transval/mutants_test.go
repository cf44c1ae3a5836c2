//go:build tvmutants

package transval_test

import (
	"testing"

	"kex/internal/analysis/transval"
	"kex/internal/safext/compile/mir"
)

// The validator-mutant kill suite. Each entry pairs one intentionally
// miscompiling optimizer seam (see mir/mutants_on.go) with a program
// written to walk straight into it. The validator must reject every one;
// a mutant that validates is a soundness hole in the validator, and CI
// (`make tv`) fails on it. Run with -tags tvmutants.

var mutantTriggers = map[string]string{
	// A constant-propagated out-of-range index: the mutant discharges the
	// bounds site, so the naive trap becomes an optimized wild store.
	"drop-bounds-check": `
fn main() -> i64 {
	let mut buf: [u8; 8];
	let i = 2 * 8;
	buf[i] = 1;
	return 0;
}
`,
	// a+a at the 64-bit boundary: wraparound gives 0, the mutant's
	// saturating fold gives all-ones.
	"fold-overflow": `
fn main() -> i64 {
	let a = 1 << 63;
	return a + a;
}
`,
	// A volatile value shifted by a constant in [32,63]: &31 re-masks 40
	// down to 8 and the result changes.
	"fold-shift-mask-wrong": `
fn main() -> i64 {
	let x = kernel::pkt_len();
	let s = 5 * 8;
	return x << s;
}
`,
	// The loop stores to buf[0] then reloads it; hoisting the load past
	// the store replays the preheader value every iteration.
	"licm-past-store": `
fn main() -> i64 {
	let mut buf: [u8; 8];
	buf[0] = 1;
	let mut sum: i64 = 0;
	for i in 0..4 {
		buf[0] = i;
		sum += buf[0];
	}
	return sum;
}
`,
	// Two gets from a percpu slot are distinct observations (another CPU
	// may write between them); caching makes a-b collapse to zero.
	"rle-percpu": `
map c: percpu<u32, u64>(4);

fn main() -> i64 {
	let a = kernel::map_get(c, 0);
	let b = kernel::map_get(c, 0);
	return a - b;
}
`,
	// Eight simultaneously-live values overflow the four callee-saved
	// registers; the mutant shares a register instead of spilling.
	"regalloc-clobber": `
fn main() -> i64 {
	let a = kernel::pkt_len();
	let b = kernel::pkt_len();
	let c = kernel::pkt_len();
	let d = kernel::pkt_len();
	let e = kernel::pkt_len();
	let f = kernel::pkt_len();
	let g = kernel::pkt_len();
	let h = kernel::pkt_len();
	return a + 2*b + 3*c + 4*d + 5*e + 6*f + 7*g + 8*h;
}
`,
	// Adjacent writes to the same key: final state can coincide, the
	// observable effect order cannot.
	"reorder-map-update": `
map m: hash<u64, u64>(8);

fn main() -> i64 {
	kernel::map_set(m, 0, 1);
	kernel::map_set(m, 0, 2);
	return 0;
}
`,
	// map_set's result is unused; removing the call silences an effect
	// and changes the following get.
	"dce-effectful": `
map m: hash<u64, u64>(8);

fn main() -> i64 {
	kernel::map_set(m, 1, 2);
	return kernel::map_get(m, 1);
}
`,
	// x is always negative; signed x < 1 is true, unsigned is false.
	"cmp-sign-swap": `
fn main() -> i64 {
	let x = 0 - kernel::pkt_len();
	let one = 2 - 1;
	if x < one { return 10; }
	return 20;
}
`,
	// Crosswise edge forwarding inverts the branch on every input.
	"thread-wrong-edge": `
fn main() -> i64 {
	let x = kernel::pkt_len();
	if x > 100 { return 1; }
	return 2;
}
`,
	// Folding makes the guarded block unreachable; sweep drops it but the
	// mutant leaves its bounds site in Emit state — a check the ledger
	// claims and the code no longer has.
	// The elision pass refines the false edge of i < 8 as if it held, so
	// the unguarded a[i] after the branch looks in range and loses its
	// check: the naive side traps on i >= 8, the optimized side stores.
	"refine-false-edge": `
fn main() -> i64 {
	let mut a: [u8; 8];
	let i = kernel::pid_tgid();
	if i < 8 {
		a[i] = 1;
	}
	a[i] = 2;
	return 0;
}
`,
	"sweep-ledger-leak": `
fn main() -> i64 {
	let mut buf: [u8; 8];
	let x = kernel::pkt_len();
	if 1 == 2 {
		buf[x] = 1;
		return 1;
	}
	return 0;
}
`,
}

// TestMutantKillSuite proves the validator rejects every seeded
// miscompilation. It also proves the kill table is total: a seam added to
// the mir package without a trigger program here fails the suite.
func TestMutantKillSuite(t *testing.T) {
	names := mir.MutantNames()
	if len(names) < 10 {
		t.Fatalf("mutant inventory shrank to %d, ISSUE floor is 10", len(names))
	}
	for _, name := range names {
		src, ok := mutantTriggers[name]
		if !ok {
			t.Errorf("mutant %q has no trigger program in the kill suite", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			if !mir.SetMutant(name) {
				t.Fatalf("unknown mutant %q", name)
			}
			defer mir.SetMutant("")
			obj, arts := buildArtifacts(t, "mutant-"+name, src)
			mir.SetMutant("") // validation itself must run unmutated
			res := transval.Validate("mutant-"+name, arts, obj.Checks, transval.Options{})
			if res.OK {
				t.Fatalf("validator PASSED mutant %q — soundness hole", name)
			}
			t.Logf("killed: %s", res.Reason)
		})
	}
	for name := range mutantTriggers {
		if !mir.SetMutant(name) {
			t.Errorf("kill suite names unknown mutant %q", name)
		}
		mir.SetMutant("")
	}
}

// TestMutantsValidateClean double-checks the triggers themselves: with no
// mutant selected, every trigger program must validate. Otherwise a kill
// could be validator imprecision on the program rather than detection of
// the seam.
func TestMutantsValidateClean(t *testing.T) {
	mir.SetMutant("")
	for name, src := range mutantTriggers {
		t.Run(name, func(t *testing.T) {
			obj, arts := buildArtifacts(t, "clean-"+name, src)
			res := transval.Validate("clean-"+name, arts, obj.Checks, transval.Options{})
			if !res.OK {
				t.Fatalf("trigger program for %q fails validation unmutated: %s", name, res.Reason)
			}
		})
	}
}
