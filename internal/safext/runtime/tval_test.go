package runtime

import (
	"errors"
	"strings"
	"testing"

	"kex/internal/safext/compile"
	"kex/internal/safext/lang"
	"kex/internal/safext/toolchain"
)

const tvalProg = `
map m: hash<u64, u64>(8);

fn main() -> i64 {
	kernel::map_inc(m, 1, 1);
	return kernel::map_get(m, 1);
}
`

// compileMIRUnvalidated builds an OptMIR object around the toolchain, so
// no translation validation runs and no certificate is attached — the
// forgery a loader without the TVAL gate would accept.
func compileMIRUnvalidated(t *testing.T, name, src string) *compile.Object {
	t.Helper()
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := compile.CompileWithOptions(name, checked, compile.Options{
		Level: compile.OptMIR,
	})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestLoadCarriesTValCertificate: an OptMIR object built through the
// toolchain arrives with a validated certificate, the loader accepts it,
// and the extension exposes the proof metadata.
func TestLoadCarriesTValCertificate(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	so, err := f.signer.BuildAndSignOptimizedMIR("tval-ok", tvalProg)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := f.rt.Load(so)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	tv := ext.TVal
	if tv == nil || !tv.Validated || tv.Demoted {
		t.Fatalf("certificate = %+v, want validated", tv)
	}
	if tv.Vectors == 0 || len(tv.Funcs) == 0 {
		t.Fatalf("empty certificate: %+v", tv)
	}
	v := f.run(t, ext)
	if !v.Completed || v.R0 != 1 {
		t.Fatalf("verdict = %+v", v)
	}
}

// TestLoadRejectsUncertifiedOptMIR: an OptMIR object with no TVAL section
// is refused outright — optimizer output nothing vouched for does not run.
func TestLoadRejectsUncertifiedOptMIR(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	obj := compileMIRUnvalidated(t, "tval-naked", tvalProg)
	if obj.TVal != nil {
		t.Fatalf("direct compile attached a certificate: %+v", obj.TVal)
	}
	so, err := f.signer.Sign(obj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.Load(so); !errors.Is(err, ErrUnvalidatedOptimizer) {
		t.Fatalf("load of uncertified OptMIR object: err = %v, want ErrUnvalidatedOptimizer", err)
	}

	// Same refusal when a certificate exists but is marked demoted — a
	// demotion must ship the OptElide rebuild, never the rejected code.
	obj2 := compileMIRUnvalidated(t, "tval-demoted-mir", tvalProg)
	obj2.TVal = &compile.TValCert{Demoted: true, Reason: "seeded"}
	so2, err := f.signer.Sign(obj2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.Load(so2); !errors.Is(err, ErrUnvalidatedOptimizer) {
		t.Fatalf("load of demoted-cert OptMIR object: err = %v, want ErrUnvalidatedOptimizer", err)
	}
}

// TestLoadSurfacesTVDemotion pins the fail-closed reporting path end to
// end without needing the mutant build tag: an OptElide object carrying a
// demotion certificate (what the toolchain ships when validation refutes
// an OptMIR build) loads fine, and the demotion count and refutation text
// surface through exec.Stats.
func TestLoadSurfacesTVDemotion(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	fl, err := lang.Parse(tvalProg)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := lang.Check(fl)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := compile.CompileWithOptions("tval-demoted", checked, compile.Options{
		Level: compile.OptElide,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj.TVal = &compile.TValCert{
		Demoted: true,
		Reason:  "main: vector 3: return value diverges: naive 1, optimized 2",
		Vectors: 12,
	}
	so, err := f.signer.Sign(obj)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := f.rt.Load(so)
	if err != nil {
		t.Fatalf("load of demoted OptElide object: %v", err)
	}
	if ext.TVal == nil || !ext.TVal.Demoted {
		t.Fatalf("extension lost the demotion certificate: %+v", ext.TVal)
	}
	v := f.run(t, ext)
	if !v.Completed {
		t.Fatalf("verdict = %+v", v)
	}
	ps := f.rt.Core.Stats.Snapshot().Programs["tval-demoted"]
	if ps.TVDemotions != 1 {
		t.Fatalf("TVDemotions = %d, want 1", ps.TVDemotions)
	}
	if !strings.Contains(ps.LastTVDemotionReason, "return value diverges") {
		t.Fatalf("LastTVDemotionReason = %q, refutation text lost", ps.LastTVDemotionReason)
	}
	totals := f.rt.Core.Stats.Snapshot().Totals()
	if totals.TVDemotions != 1 || totals.LastTVDemotionReason == "" {
		t.Fatalf("totals dropped demotion accounting: %+v", totals)
	}
}

// TestTValCertRoundTrip pins the TVAL section through serialize +
// deserialize, including the truncation and cap rejections that keep the
// pre-trust parser safe.
func TestTValCertRoundTrip(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	so, err := f.signer.BuildAndSignOptimizedMIR("tval-rt", tvalProg)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := toolchain.Deserialize(so.Payload)
	if err != nil {
		t.Fatal(err)
	}
	tv := obj.TVal
	if tv == nil || !tv.Validated || tv.Demoted || len(tv.Funcs) == 0 {
		t.Fatalf("certificate did not round-trip: %+v", tv)
	}
	if tv.Funcs[0].Name != "main" || tv.Funcs[0].Vectors == 0 || tv.Funcs[0].BlocksTotal == 0 {
		t.Fatalf("per-func certificate did not round-trip: %+v", tv.Funcs[0])
	}
}
