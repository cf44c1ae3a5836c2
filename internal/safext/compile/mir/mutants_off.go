//go:build !tvmutants

package mir

// The translation validator's kill suite needs optimizer builds that are
// wrong in precise, realistic ways. Those seams live behind the tvmutants
// build tag; in a normal build every hook below compiles to a constant and
// the optimizer is exactly the shipped one.

// SetMutant selects an intentionally-miscompiling optimizer seam by name.
// Without -tags tvmutants no seams exist; the call reports false.
func SetMutant(string) bool { return false }

// ActiveMutant reports the selected seam name ("" without the build tag).
func ActiveMutant() string { return "" }

// MutantNames lists the available seams (nil without the build tag).
func MutantNames() []string { return nil }

func mutantActive(string) bool { return false }

// MutantActive reports whether the named seam is selected (never, without
// the build tag).
func MutantActive(string) bool { return false }

func applyMutantReorder(*Func) {}
