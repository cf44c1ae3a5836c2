// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations DESIGN.md calls out. Each experiment
// returns a Result with the series/rows it produced, the paper's claim,
// and whether the reproduction upholds it; cmd/kexrepro prints them and
// the benchmark suite re-runs them under testing.B.
package experiments

import (
	"fmt"
	"strings"

	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

// Result is one regenerated artifact.
type Result struct {
	ID    string // "F2", "T1", "E1", "A3", ...
	Title string
	// Lines is the rendered series/table, one row per line.
	Lines []string
	// PaperClaim quotes what the paper reports.
	PaperClaim string
	// Measured summarises what the reproduction got.
	Measured string
	// Holds records whether the claim's shape is upheld.
	Holds bool
}

func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		fmt.Fprintf(&sb, "  %s\n", l)
	}
	fmt.Fprintf(&sb, "  paper:    %s\n", r.PaperClaim)
	fmt.Fprintf(&sb, "  measured: %s\n", r.Measured)
	status := "HOLDS"
	if !r.Holds {
		status = "DOES NOT HOLD"
	}
	fmt.Fprintf(&sb, "  status:   %s\n", status)
	return sb.String()
}

// All runs every experiment in paper order.
func All() []*Result {
	return []*Result{
		Figure2(),
		Figure3(),
		Figure4(),
		Table1(),
		Table2(),
		E1Crash(),
		E2Stall(),
		E3HelperStudy(),
		A1VerifierScaling(),
		A2LoadPath(),
		A3RuntimeTax(),
		A4Expressiveness(),
		X1Protection(),
		X2ExecCore(),
		X3FaultCampaign(),
		X4Throughput(),
		X5FleetRollout(),
		SC1Soundness(),
	}
}

// ByID runs one experiment.
func ByID(id string) (*Result, bool) {
	funcs := map[string]func() *Result{
		"F2": Figure2, "F3": Figure3, "F4": Figure4,
		"T1": Table1, "T2": Table2,
		"E1": E1Crash, "E2": E2Stall, "E3": E3HelperStudy,
		"A1": A1VerifierScaling, "A2": A2LoadPath,
		"A3": A3RuntimeTax, "A4": A4Expressiveness,
		"X1": X1Protection, "X2": X2ExecCore,
		"X3":  X3FaultCampaign,
		"X4":  X4Throughput,
		"X5":  X5FleetRollout,
		"SC1": SC1Soundness,
	}
	f, ok := funcs[strings.ToUpper(id)]
	if !ok {
		return nil, false
	}
	return f(), true
}

// LoadSLX builds src at the given optimization tier (0 naive, 1 elided,
// 2 MIR), signs it with a fresh key, enrols the key in rt and loads the
// extension.
func LoadSLX(rt *runtime.Runtime, name, src string, opt int) (*runtime.Extension, error) {
	signer, err := toolchain.NewSigner()
	if err != nil {
		return nil, err
	}
	build := [...]func(name, src string) (*toolchain.SignedObject, error){
		signer.BuildAndSign, signer.BuildAndSignOptimized, signer.BuildAndSignOptimizedMIR,
	}[opt]
	so, err := build(name, src)
	if err != nil {
		return nil, err
	}
	rt.AddKey(signer.PublicKey())
	return rt.Load(so)
}
