package kexlint

import (
	"path/filepath"
	"strings"
	"testing"
)

// fixtureConfig points the checkers at the seeded-violation tree.
func fixtureConfig() Config {
	return Config{
		Root:              filepath.Join("testdata", "src"),
		DeterministicDirs: []string{"determ"},
		HelperDirs:        []string{"helpers"},
	}
}

func findingsBy(t *testing.T, checker string, all []Finding) []Finding {
	t.Helper()
	var out []Finding
	for _, f := range all {
		if f.Checker == checker {
			out = append(out, f)
		}
	}
	return out
}

func TestFixtureViolations(t *testing.T) {
	all, err := Run(fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}

	rcu := findingsBy(t, "rcubalance", all)
	if len(rcu) != 1 {
		t.Fatalf("rcubalance findings = %v, want exactly the Leak site", rcu)
	}
	if !strings.HasSuffix(rcu[0].Pos.Filename, "rcu.go") || !strings.Contains(rcu[0].Message, "deferred ReadUnlock") {
		t.Errorf("unexpected rcubalance finding: %v", rcu[0])
	}

	he := findingsBy(t, "helpereffects", all)
	if len(he) != 1 {
		t.Fatalf("helpereffects findings = %v, want exactly bad_lookup", he)
	}
	if !strings.Contains(he[0].Message, "implBad") || !strings.Contains(he[0].Message, "bad_lookup") {
		t.Errorf("unexpected helpereffects finding: %v", he[0])
	}

	am := findingsBy(t, "atomicmix", all)
	if len(am) != 2 {
		t.Fatalf("atomicmix findings = %v, want the plain hits load and the plain misses store", am)
	}
	amMsgs := am[0].Message + " " + am[1].Message
	for _, want := range []string{"hits", "misses"} {
		if !strings.Contains(amMsgs, want) {
			t.Errorf("atomicmix missed field %s: %v", want, am)
		}
	}
	for _, f := range am {
		if !strings.HasSuffix(f.Pos.Filename, "counter.go") {
			t.Errorf("atomicmix finding outside the fixture: %v", f)
		}
	}

	rd := findingsBy(t, "randdeterminism", all)
	if len(rd) != 4 {
		t.Fatalf("randdeterminism findings = %v, want Seed, Intn, the trace-hook Int63n and the oracle Perturb", rd)
	}
	var msgs string
	for _, f := range rd {
		msgs += f.Message + " "
	}
	for _, want := range []string{"rand.Seed", "rand.Intn", "rand.Int63n"} {
		if !strings.Contains(msgs, want) {
			t.Errorf("randdeterminism missed %s: %v", want, rd)
		}
	}
	oracleHit := false
	for _, f := range rd {
		if strings.HasSuffix(f.Pos.Filename, "oracle.go") {
			oracleHit = true
		}
	}
	if !oracleHit {
		t.Errorf("randdeterminism missed the oracle fixture: %v", rd)
	}

	if len(all) != 8 {
		t.Errorf("total findings = %d, want 8: %v", len(all), all)
	}
}

// TestFindingsSorted pins the stable-output contract CI depends on.
func TestFindingsSorted(t *testing.T) {
	all, err := Run(fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(all); i++ {
		a, b := all[i-1].Pos, all[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Fatalf("findings out of order: %v before %v", all[i-1], all[i])
		}
	}
}

// TestRepoIsClean runs the default configuration over the real tree — the
// same invocation as `make lint`. The execution core's nested-closure
// unlock, the ringbuf AcquiresRef-without-TrackRef spec, and the
// callgraph's owned rand.New generator must all pass.
func TestRepoIsClean(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	all, err := Run(DefaultConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range all {
		t.Errorf("unexpected finding in clean tree: %v", f)
	}
}

// TestDirMatching covers the suffix rule used to scope directory checks.
func TestDirMatching(t *testing.T) {
	cases := []struct {
		rel  string
		dirs []string
		want bool
	}{
		{"internal/faultinject", []string{"internal/faultinject"}, true},
		{"repo/internal/faultinject", []string{"internal/faultinject"}, true},
		{"internal/faultinject2", []string{"internal/faultinject"}, false},
		{"internal", []string{"internal/faultinject"}, false},
		// Nested subpackages of a listed directory inherit the invariant.
		{"internal/safext/compile/mir", []string{"internal/safext/compile"}, true},
		{"repo/internal/safext/compile/mir", []string{"internal/safext/compile"}, true},
		{"internal/safext/compiler", []string{"internal/safext/compile"}, false},
		{"internal/safext", []string{"internal/safext/compile"}, false},
	}
	for _, c := range cases {
		if got := matchDir(c.rel, c.dirs); got != c.want {
			t.Errorf("matchDir(%q, %v) = %v, want %v", c.rel, c.dirs, got, c.want)
		}
	}
}

// TestDeterministicCoverage pins the replayable packages the repo-wide
// configuration must hold to the determinism rule, listed or inherited.
func TestDeterministicCoverage(t *testing.T) {
	dirs := DefaultConfig(".").DeterministicDirs
	for _, rel := range []string{
		"internal/analysis/mirrun",
		"internal/analysis/transval",
		"internal/analysis/concheck",
		"internal/safext/compile",
		"internal/safext/compile/mir",
	} {
		if !matchDir(rel, dirs) {
			t.Errorf("%s is not held to the determinism rule", rel)
		}
	}
}
