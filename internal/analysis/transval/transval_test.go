package transval_test

import (
	"os"
	"path/filepath"
	"testing"

	"kex/examples/progs"
	"kex/internal/analysis/transval"
	"kex/internal/safext/compile"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
)

// buildArtifacts compiles one program at OptMIR with artifact capture.
func buildArtifacts(t testing.TB, name, src string) (*compile.Object, []compile.MIRFuncArtifact) {
	t.Helper()
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		t.Fatalf("%s: check: %v", name, err)
	}
	obj, arts, err := compile.CompileWithOptions(name, checked, compile.Options{Level: compile.OptMIR})
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	return obj, arts
}

// writeCounterexample persists a refutation for CI artifact upload.
func writeCounterexample(t testing.TB, name string, res *transval.Result) {
	t.Helper()
	if res.Counterexample == "" {
		return
	}
	dir := "tval_counterexamples"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("counterexample dir: %v", err)
		return
	}
	path := filepath.Join(dir, name+".txt")
	if err := os.WriteFile(path, []byte(res.Counterexample), 0o644); err != nil {
		t.Logf("counterexample write: %v", err)
		return
	}
	t.Logf("counterexample written to %s", path)
}

// TestTValCorpusValidates is the zero-demotion gate: every corpus program
// must validate at -opt 2. This is the same corpus the differential fuzzer
// and the MIR equivalence suite run, so a failure here is a validator
// precision bug, not an optimizer bug.
func TestTValCorpusValidates(t *testing.T) {
	for name, src := range progs.All {
		t.Run(name, func(t *testing.T) {
			obj, arts := buildArtifacts(t, name, src)
			res := transval.Validate(name, arts, obj.Checks)
			if !res.OK {
				writeCounterexample(t, name, res)
				t.Fatalf("corpus program %s demoted: %s", name, res.Reason)
			}
			if res.Vectors == 0 {
				t.Fatalf("no vectors executed")
			}
			for _, fr := range res.Funcs {
				if fr.BlocksTotal > 0 && fr.BlocksCovered == 0 {
					t.Errorf("function %s: no blocks covered", fr.Name)
				}
			}
		})
	}
}

// TestTValBoundedRefinement pins the fuel-bound semantics: a program that
// never terminates (ProfilerBuggy's runaway loop) validates as a bounded
// pass on every vector instead of being demoted — the watchdog, not the
// validator, owns nontermination.
func TestTValBoundedRefinement(t *testing.T) {
	obj, arts := buildArtifacts(t, "buggy", progs.ProfilerBuggy)
	res := transval.Validate("buggy", arts, obj.Checks)
	if !res.OK {
		writeCounterexample(t, "buggy", res)
		t.Fatalf("nonterminating program must validate bounded, got: %s", res.Reason)
	}
	if res.Bounded == 0 {
		t.Fatalf("expected bounded vectors for a nonterminating program, got none (of %d)", res.Vectors)
	}
}

// TestTValCertificateShape checks the Result→TValCert conversion.
func TestTValCertificateShape(t *testing.T) {
	obj, arts := buildArtifacts(t, "counter", progs.All["counter"])
	res := transval.Validate("counter", arts, obj.Checks)
	if !res.OK {
		t.Fatalf("counter demoted: %s", res.Reason)
	}
	cert := res.Certificate(12345)
	if !cert.Validated || cert.Demoted || cert.Reason != "" {
		t.Fatalf("bad certificate flags: %+v", cert)
	}
	if cert.WallNanos != 12345 || cert.Vectors != res.Vectors || len(cert.Funcs) != len(res.Funcs) {
		t.Fatalf("certificate fields not carried over: %+v", cert)
	}
}

// TestTValRejectsLedgerLie seeds a ledger inconsistency by hand (no build
// tag needed): claiming a still-emitted site was folded must fail the
// re-derived count audit against the object's CheckStats.
func TestTValRejectsLedgerLie(t *testing.T) {
	obj, arts := buildArtifacts(t, "histogram", progs.All["histogram"])
	lied := false
	for i := range arts {
		for s := range arts[i].Opt.Sites {
			if arts[i].Opt.Sites[s].State == mir.SiteEmit {
				arts[i].Opt.Sites[s].State = mir.SiteFolded
				lied = true
				break
			}
		}
		if lied {
			break
		}
	}
	if !lied {
		t.Fatalf("histogram build has no emitted check sites to lie about")
	}
	res := transval.Validate("histogram", arts, obj.Checks)
	if res.OK {
		t.Fatalf("validator accepted a ledger inconsistent with the object's CheckStats")
	}
}
