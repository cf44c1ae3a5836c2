//go:build tvmutants

package analyze_test

import (
	"strings"
	"testing"

	"kex/internal/safext/compile/mir"
	"kex/internal/safext/toolchain"
)

// branchGuard is TestBranchRefinementProof's program: one access guarded
// by i < 8 and one after the branch that nothing guards.
const branchGuard = `
fn main() -> i64 {
    let mut a: [u8; 8];
    let i = kernel::pid_tgid();
    if i < 8 {
        a[i] = 1;
    }
    a[i] = 2;
    return 0;
}`

// TestUnsoundRefinementRefutedAtBuild seeds an unsound refinement into the
// elision pass (the false edge of a branch refined with the true edge's
// relation) and requires the toolchain's own translation validation to
// refuse the build: the validator's naive side is the lowering from before
// the pass, so an elided check the program can fail shows up as a verdict
// divergence on a plain input vector, with no fuzzing. The demoted OptElide
// rebuild runs the same pass, so it is refuted too and nothing ships.
func TestUnsoundRefinementRefutedAtBuild(t *testing.T) {
	if _, err := toolchain.BuildOptimizedMIR("branch-guard", branchGuard); err != nil {
		t.Fatalf("unmutated build: %v", err)
	}
	if !mir.SetMutant("refine-false-edge") {
		t.Fatal("refine-false-edge seam missing")
	}
	defer mir.SetMutant("")
	_, err := toolchain.BuildOptimizedMIR("branch-guard", branchGuard)
	if err == nil || !strings.Contains(err.Error(), "translation validation refuted") {
		t.Fatalf("mutated elision pass shipped: err = %v", err)
	}
	t.Logf("refuted: %v", err)
}
