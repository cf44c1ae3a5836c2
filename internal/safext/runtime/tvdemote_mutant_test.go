//go:build tvmutants

package runtime

import (
	"strings"
	"testing"

	"kex/internal/safext/compile"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/toolchain"
)

// TestSeededMutantDemotesEndToEnd drives the whole fail-closed path with a
// real miscompilation: a seeded optimizer mutant makes the OptMIR build
// fail refinement, the toolchain demotes to OptElide with the refutation in
// the certificate, the loader accepts the demoted object, the program runs
// correctly (the demoted build is unmutated), and the demotion reason is
// visible in exec.Stats.
func TestSeededMutantDemotesEndToEnd(t *testing.T) {
	if !mir.SetMutant("fold-overflow") {
		t.Fatal("fold-overflow mutant unavailable")
	}
	defer mir.SetMutant("")

	const src = `
fn main() -> i64 {
	let a = 1 << 63;
	return a + a;
}
`
	f := newFixture(t, DefaultConfig())
	so, err := f.signer.BuildAndSignOptimizedMIR("mutant-e2e", src)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := toolchain.Deserialize(so.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Opt.Level != compile.OptElide {
		t.Fatalf("mutated build shipped at level %d, want fail-closed demotion to OptElide", obj.Opt.Level)
	}
	tv := obj.TVal
	if tv == nil || !tv.Demoted || tv.Validated {
		t.Fatalf("certificate = %+v, want demotion record", tv)
	}
	if !strings.Contains(tv.Reason, "diverges") {
		t.Fatalf("demotion reason %q does not carry the refutation", tv.Reason)
	}

	ext, err := f.rt.Load(so)
	if err != nil {
		t.Fatalf("load of demoted object: %v", err)
	}
	v := f.run(t, ext)
	if !v.Completed || v.R0 != 0 {
		t.Fatalf("demoted build must compute the correct wraparound 0, got %+v", v)
	}
	ps := f.rt.Core.Stats.Snapshot().Programs["mutant-e2e"]
	if ps.TVDemotions != 1 || !strings.Contains(ps.LastTVDemotionReason, "diverges") {
		t.Fatalf("stats did not surface the demotion: %+v", ps)
	}
}

// allocMutantSrc keeps eight values derived from a parameter live at once,
// so linear scan must spill: g(1) is 2·1 + 3·2 + … + 9·8 = 240. A pkt_len
// trigger would read 0 on the fixture's empty packet and hide a clobber.
const allocMutantSrc = `
fn g(x: i64) -> i64 {
	let a = x + 1;
	let b = x + 2;
	let c = x + 3;
	let d = x + 4;
	let e = x + 5;
	let f = x + 6;
	let h = x + 7;
	let k = x + 8;
	return a + 2*b + 3*c + 4*d + 5*e + 6*f + 7*h + 8*k;
}
fn main() -> i64 {
	return g(1);
}
`

// TestSeededAllocatorMutantFailsClosed drives the other fail-closed exit:
// the seeded bug sits in register allocation, which the demoted build
// shares with the optimized one. Validation refutes the OptMIR build, the
// demoted rebuild is validated in turn and refuted as well, so the build
// fails naming both refutations and no object ships.
func TestSeededAllocatorMutantFailsClosed(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	so, err := f.signer.BuildAndSignOptimizedMIR("alloc-clean", allocMutantSrc)
	if err != nil {
		t.Fatalf("unmutated build: %v", err)
	}
	ext, err := f.rt.Load(so)
	if err != nil {
		t.Fatal(err)
	}
	if v := f.run(t, ext); !v.Completed || v.R0 != 240 {
		t.Fatalf("unmutated build: verdict %+v, want 240", v)
	}

	if !mir.SetMutant("regalloc-clobber") {
		t.Fatal("regalloc-clobber mutant unavailable")
	}
	defer mir.SetMutant("")
	so, err = f.signer.BuildAndSignOptimizedMIR("alloc-mutant", allocMutantSrc)
	if err == nil {
		t.Fatalf("allocator mutant shipped a build (%d payload bytes); want a fail-closed build error", len(so.Payload))
	}
	msg := err.Error()
	if !strings.Contains(msg, "optimized build") || !strings.Contains(msg, "demoted build") || strings.Count(msg, "diverges") < 2 {
		t.Fatalf("build error %q does not name both refutations", msg)
	}
}
