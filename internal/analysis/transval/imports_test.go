package transval_test

import (
	"go/build"
	"testing"
)

// TestTransvalRunsNoIntervalAnalysis: the palette reads the interval
// endpoints the compiler's elision pass proved (MIRFuncArtifact.Endpoints),
// so the validator must not import the analysis and run a second fixpoint
// over the same lowering.
func TestTransvalRunsNoIntervalAnalysis(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "kex/internal/safext/analyze" {
			t.Fatalf("transval imports %s", imp)
		}
	}
}
