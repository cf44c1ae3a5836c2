package compile

import "kex/internal/safext/compile/mir"

// MIRFuncArtifact is what compiling one function produced: the freshly
// lowered (naive) IR from before the elision pass, the IR the emitter
// compiled (optimized at OptMIR, only swept below it), the register
// assignment it used, and the interval endpoints the elision pass proved
// at block entries (none at OptNaive). The translation validator replays
// both sides over the same deterministic model and proves refinement; the
// optimized side executes *through* the allocation so register-allocation
// bugs are as observable as wrong folds. The shard-safety analyzer reads
// the naive IR.
type MIRFuncArtifact struct {
	Name      string
	Naive     *mir.Func
	Opt       *mir.Func
	Alloc     *mir.Alloc
	Endpoints []int64
}

// TValCert is the translation-validation certificate carried in the SLXO
// container's TVAL section, under the toolchain signature. A Validated
// certificate records that the optimized build refines the naive lowering
// (same verdict, same ordered observable-effect sequence, consistent check
// ledger) over every explored input vector; a Demoted certificate records
// that validation failed or was inconclusive and the build fell back to
// OptElide, with the reason preserved for exec.Stats and kexload. The
// OptElide rebuild shares the register allocator, so it is validated
// before it ships; a build whose rebuild is refuted too fails instead.
type TValCert struct {
	Validated bool
	Demoted   bool
	// Reason is the first refinement violation (empty when Validated).
	Reason string
	// Vectors / Bounded count input vectors executed across all functions
	// and how many were cut by the step budget on both sides (bounded
	// refinement: equal effect prefixes up to the budget).
	Vectors int
	Bounded int
	// WallNanos is the validation wall time for this build. It rides in
	// memory only (for benchmarks and kexload display) and is not
	// serialized into the TVAL section: the container must stay
	// byte-identical across rebuilds of the same source.
	WallNanos int64
	Funcs     []TValFuncCert
}

// TValFuncCert is one function's slice of the certificate.
type TValFuncCert struct {
	Name          string
	Vectors       int
	Bounded       int
	BlocksCovered int
	BlocksTotal   int
	SitesEmitted  int
	SitesElided   int
	SitesFolded   int
}
