// Package toolchain is the trusted userspace half of the safext framework
// (Figure 5): it drives the SLX compiler, audits the capabilities the
// program requests, serialises the result into an object container, and
// signs it with ed25519. The kernel-side loader (package runtime) validates
// the signature instead of re-deriving safety — the paper's "decoupling
// static code analysis from the kernel".
package toolchain

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"strings"
	"time"

	"kex/internal/analysis/concheck"
	"kex/internal/analysis/transval"
	"kex/internal/exec"
	"kex/internal/safext/compile"
	"kex/internal/safext/lang"
)

// Policy is the signer's gate: which kernel-crate capabilities it is
// willing to vouch for, and how large a program it will sign.
type Policy struct {
	// DeniedCaps lists crate entry points the signer refuses (e.g. an
	// operator may deny pkt_write_u8 for observability-only deployments).
	DeniedCaps []string
	// MaxInsns caps the compiled size; zero means unlimited. Unlike the
	// verifier's limit this is a policy choice, not an analysis budget.
	MaxInsns int
}

// Signer holds the toolchain's signing identity.
type Signer struct {
	Policy Policy
	priv   ed25519.PrivateKey
	pub    ed25519.PublicKey
}

// NewSigner generates a fresh toolchain identity.
func NewSigner() (*Signer, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Signer{priv: priv, pub: pub}, nil
}

// PublicKey returns the verification key to enrol in kernel keyrings.
func (s *Signer) PublicKey() ed25519.PublicKey { return s.pub }

// SignedObject is the on-disk/wire form of a compiled extension.
type SignedObject struct {
	Payload   []byte
	Signature []byte
	PublicKey ed25519.PublicKey

	// Phases times the userspace half of the Figure 5 load pipeline
	// (parse / typecheck / compile when built through BuildAndSign, plus
	// sign). It rides alongside the container in memory only — it is not
	// serialized and not covered by the signature; the kernel-side loader
	// appends its own validate/fixup phases.
	Phases exec.PhaseTimings
}

// build is the one trusted build pipeline, at optimization level level
// (compile.OptNaive, OptElide or OptMIR). Each phase is timed under its
// name: parse, typecheck, then analyze above OptNaive (lowering and the
// elision pass), compile, transval at OptMIR, and concheck. The elision
// pass's proofs elide redundant runtime checks, and the elision ledger
// travels in the object.
//
// Every OptMIR build is translation-validated: the naive lowering (from
// before the elision pass, so the validator checks every elision too) and
// the optimized MIR are executed on the reference MIR machine over the
// engine's exact wraparound semantics and compared for refinement (same
// verdict, same ordered effect log, consistent check ledger). A passing run
// attaches a TVAL certificate that travels under the object signature; a
// failing or inconclusive run fails closed by demoting the build to
// OptElide — the same lowering with the optimizer's passes off — with the
// refutation recorded in the demotion certificate. The demoted build still
// goes through register allocation, which may be the very bug validation
// caught, so it is validated too (fresh lowering against itself through
// its allocation); if that also fails, the build fails with both
// refutations and nothing ships.
//
// Every build then runs the shard-safety analyzer over the fresh lowering
// the compiler returned: the verdict is cheap (one MIR walk), travels
// under the signature, and the per-CPU data plane needs it to decide
// whether the program may fan out. The analyzer itself is wall-clock-free;
// the measurement lives here.
func build(name, src string, level int) (*compile.Object, exec.PhaseTimings, error) {
	rec := exec.NewPhaseRecorder()
	f, err := lang.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	rec.Mark("parse")
	checked, err := lang.Check(f)
	if err != nil {
		return nil, nil, err
	}
	rec.Mark("typecheck")
	obj, arts, err := compile.CompileWithOptions(name, checked, compile.Options{Level: level, Mark: rec.Mark})
	if err != nil {
		return nil, nil, err
	}
	rec.Mark("compile")
	if level >= compile.OptMIR {
		tvStart := time.Now()
		res := transval.Validate(name, arts, obj.Checks, transval.Options{})
		tvWall := time.Since(tvStart).Nanoseconds()
		if res.OK {
			obj.TVal = res.Certificate(tvWall)
		} else {
			if obj, arts, err = compile.CompileWithOptions(name, checked, compile.Options{Level: compile.OptElide}); err != nil {
				return nil, nil, err
			}
			if dres := transval.Validate(name, arts, obj.Checks, transval.Options{}); !dres.OK {
				return nil, nil, fmt.Errorf("toolchain: translation validation refuted the optimized build (%s) and the demoted build (%s)", res.Reason, dres.Reason)
			}
			tvWall = time.Since(tvStart).Nanoseconds()
			obj.TVal = &compile.TValCert{
				Demoted:   true,
				Reason:    res.Reason,
				Vectors:   res.Vectors,
				Bounded:   res.Bounded,
				WallNanos: tvWall,
			}
		}
		rec.Mark("transval")
	}
	ccStart := time.Now()
	cc, err := concheck.AnalyzeSLX(arts, obj.Maps)
	if err != nil {
		return nil, nil, fmt.Errorf("toolchain: shard-safety analysis: %w", err)
	}
	cc.WallNanos = time.Since(ccStart).Nanoseconds()
	obj.Conc = cc
	rec.Mark("concheck")
	return obj, rec.Phases(), nil
}

// Build compiles SLX source through the full trusted pipeline —
// parse, type-check, compile — without signing (for inspection).
func Build(name, src string) (*compile.Object, error) {
	obj, _, err := build(name, src, compile.OptNaive)
	return obj, err
}

// BuildOptimized compiles SLX source with the elision pass in the loop:
// its proofs elide redundant runtime checks, and the elision ledger
// travels in the object (behind the signature once signed).
func BuildOptimized(name, src string) (*compile.Object, error) {
	obj, _, err := build(name, src, compile.OptElide)
	return obj, err
}

// BuildOptimizedMIR compiles SLX source through the full optimizing
// pipeline: the elision pass's proofs plus the mid-level IR backend
// (constant folding/propagation, loop-invariant code motion,
// redundant-load elimination, linear-scan register allocation), checked
// by translation validation (see build).
func BuildOptimizedMIR(name, src string) (*compile.Object, error) {
	obj, _, err := build(name, src, compile.OptMIR)
	return obj, err
}

// DumpMIR renders every function's mid-level IR as lowered and as
// compiled at OptMIR (after the elision pass and the optimizer's passes),
// for inspection (`kexload -opt 2 -dump-mir`). It compiles through the
// same path as build. The dump is deterministic: two builds of the same
// source render identically.
func DumpMIR(src string) (string, error) {
	f, err := lang.Parse(src)
	if err != nil {
		return "", err
	}
	checked, err := lang.Check(f)
	if err != nil {
		return "", err
	}
	obj, arts, err := compile.CompileWithOptions("dump", checked, compile.Options{Level: compile.OptMIR})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, fa := range arts {
		fmt.Fprintf(&sb, "---- %s (lowered) ----\n%s", fa.Name, fa.Naive.String())
		fmt.Fprintf(&sb, "---- %s (optimized) ----\n%s", fa.Name, fa.Opt.String())
		fmt.Fprintf(&sb, "---- %s: spills %d\n", fa.Name, fa.Alloc.NumSpills)
	}
	o := obj.Opt
	fmt.Fprintf(&sb, "---- object: folded %d, hoisted %d, loads eliminated %d, dead removed %d, static insn bound %d\n",
		o.Folded, o.Hoisted, o.LoadsEliminated, o.DeadRemoved, obj.Checks.StaticInsnBound)
	return sb.String(), nil
}

// BuildAndSign runs the full pipeline and signs the result.
func (s *Signer) BuildAndSign(name, src string) (*SignedObject, error) {
	return s.buildAndSign(name, src, compile.OptNaive)
}

// BuildAndSignOptimized runs the elision-enabled pipeline and signs the
// result: the signature then vouches for the elisions, which is the trust
// argument — the kernel loader accepts proven-away checks because the
// toolchain that proved them is the thing being trusted, exactly as it is
// trusted for codegen itself.
func (s *Signer) BuildAndSignOptimized(name, src string) (*SignedObject, error) {
	return s.buildAndSign(name, src, compile.OptElide)
}

// BuildAndSignOptimizedMIR runs the MIR pipeline and signs the result.
// The same trust argument as BuildAndSignOptimized extends to the
// optimizer: the kernel loader accepts folded checks and rewritten code
// because the toolchain that rewrote it is what the signature vouches for.
func (s *Signer) BuildAndSignOptimizedMIR(name, src string) (*SignedObject, error) {
	return s.buildAndSign(name, src, compile.OptMIR)
}

func (s *Signer) buildAndSign(name, src string, level int) (*SignedObject, error) {
	obj, phases, err := build(name, src, level)
	if err != nil {
		return nil, err
	}
	so, err := s.Sign(obj)
	if err != nil {
		return nil, err
	}
	so.Phases = append(phases, so.Phases...)
	return so, nil
}

// Sign audits an object against policy, serialises and signs it.
func (s *Signer) Sign(obj *compile.Object) (*SignedObject, error) {
	rec := exec.NewPhaseRecorder()
	for _, cap := range obj.Capabilities {
		for _, denied := range s.Policy.DeniedCaps {
			if cap == denied {
				return nil, fmt.Errorf("toolchain: policy denies capability %q", cap)
			}
		}
	}
	if s.Policy.MaxInsns > 0 && len(obj.Insns) > s.Policy.MaxInsns {
		return nil, fmt.Errorf("toolchain: program has %d insns, policy limit %d", len(obj.Insns), s.Policy.MaxInsns)
	}
	payload, err := Serialize(obj)
	if err != nil {
		return nil, err
	}
	so := &SignedObject{
		Payload:   payload,
		Signature: ed25519.Sign(s.priv, payload),
		PublicKey: s.pub,
	}
	rec.Mark("sign")
	so.Phases = rec.Phases()
	return so, nil
}

// Verify checks the object's signature against a trusted key.
func (so *SignedObject) Verify(key ed25519.PublicKey) bool {
	return ed25519.Verify(key, so.Payload, so.Signature)
}
