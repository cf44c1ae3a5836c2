package mirrun_test

import (
	"math"
	"testing"

	"kex/internal/analysis/mirrun"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
)

// The MIR oracles are only as faithful as their ALU: every MIR operator
// and relation must agree with the engine's 64-bit ALU and jump tables on
// boundary operands, including the engine's x/0 and x%0 and its shift
// masking.

// boundary holds small counts, the shift-width edges, and the sign edges:
// 1<<63 is also -1<<63 as a signed value.
var boundary = []uint64{0, 1, 63, 64, 65, 1 << 63, math.MaxInt64, math.MaxUint64}

func TestBinMatchesEngineALU(t *testing.T) {
	ops := map[string]uint8{
		"+": isa.OpAdd, "-": isa.OpSub, "*": isa.OpMul, "/": isa.OpDiv, "%": isa.OpMod,
		"&": isa.OpAnd, "|": isa.OpOr, "^": isa.OpXor, "<<": isa.OpLsh, ">>": isa.OpRsh,
	}
	for op, code := range ops {
		for _, a := range boundary {
			for _, b := range boundary {
				got, ok := mirrun.Bin(op, a, b)
				want, wok := interp.EvalALU(code, a, b, true)
				if !ok || !wok || got != want {
					t.Errorf("%#x %s %#x: model %#x (%v), engine %#x (%v)", a, op, b, got, ok, want, wok)
				}
			}
		}
	}
	if _, ok := mirrun.Bin(">>>", 1, 1); ok {
		t.Error("unknown operator accepted")
	}
}

func TestCmpMatchesEngineJump(t *testing.T) {
	type jumps struct{ unsigned, signed uint8 }
	rels := map[string]jumps{
		"==": {isa.OpJeq, isa.OpJeq},
		"!=": {isa.OpJne, isa.OpJne},
		"<":  {isa.OpJlt, isa.OpJslt},
		"<=": {isa.OpJle, isa.OpJsle},
		">":  {isa.OpJgt, isa.OpJsgt},
		">=": {isa.OpJge, isa.OpJsge},
	}
	for rel, j := range rels {
		for _, signed := range []bool{false, true} {
			code := j.unsigned
			if signed {
				code = j.signed
			}
			jmp := isa.JmpReg(code, isa.R1, isa.R2, 0)
			for _, a := range boundary {
				for _, b := range boundary {
					got := mirrun.Cmp(rel, signed, a, b)
					if want := interp.EvalJump(jmp, a, b); got != want {
						t.Errorf("%#x %s %#x (signed %v): model %v, engine %v", a, rel, b, signed, got, want)
					}
				}
			}
		}
	}
}
