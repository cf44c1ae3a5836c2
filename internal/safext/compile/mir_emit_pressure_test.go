package compile_test

import (
	"testing"

	"kex/internal/analysis/transval"
	"kex/internal/ebpf/isa"
	"kex/internal/safext/compile"
	"kex/internal/safext/lang"
)

// Emitter tests under adversarial register pressure: programs with more
// simultaneously-live values than the four callee-saved registers R6–R9,
// so linear scan must spill, every vreg read routes through the scratch
// registers, and the shared trap tails collect sites from both register-
// and spill-resident operands. The instruction counts are pinned: an
// emitter change that silently duplicates trap tails or spill-reloads
// shows up as a golden diff, not just as a slower program.

func buildMIR(t *testing.T, name, src string) (*compile.Object, []compile.MIRFuncArtifact) {
	t.Helper()
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	obj, arts, err := compile.CompileWithOptions(name, checked, compile.Options{Level: compile.OptMIR})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return obj, arts
}

// pressureProg keeps ten volatile values live across bounds-checked array
// traffic and a variable division: R6–R9 exhaust, the rest spill.
const pressureProg = `
fn main() -> i64 {
	let mut buf: [u8; 16];
	let a = kernel::pkt_len();
	let b = kernel::pkt_len();
	let c = kernel::pkt_len();
	let d = kernel::pkt_len();
	let e = kernel::pkt_len();
	let f = kernel::pkt_len();
	let g = kernel::pkt_len();
	let h = kernel::pkt_len();
	let i = kernel::pkt_len();
	let j = kernel::pkt_len();
	buf[a & 15] = 1;
	buf[b] = 2;
	buf[c] = 3;
	let x = buf[d] + buf[e & 15];
	let y = (e + f) / (g & 7);
	let z = (h ^ i) % (j & 3);
	return a + 2*b + 3*c + 4*d + 5*e + 6*f + 7*g + 8*h + 9*i + 10*j + x + y + z;
}
`

// trapCallCount returns how many trap-tail entry points the emitted code
// carries: Mov64Imm(R1, code) immediately followed by a call to the trap
// crate function.
func trapCallCount(t *testing.T, insns []isa.Instruction) (tails int, codes map[int32]int) {
	t.Helper()
	trapID, ok := lang.CrateID("trap")
	if !ok {
		t.Fatal("no trap crate function")
	}
	codes = map[int32]int{}
	for i := 1; i < len(insns); i++ {
		if insns[i].IsCall() && insns[i].Imm == trapID {
			tails++
			prev := insns[i-1]
			codes[prev.Imm]++
		}
	}
	return tails, codes
}

// TestTrapTailSharing: many check sites, one tail per distinct trap code.
func TestTrapTailSharing(t *testing.T) {
	obj, _ := buildMIR(t, "pressure", pressureProg)
	if obj.Opt.Spills == 0 {
		t.Fatalf("pressure program did not spill (regs %d, spills %d) — not exercising the scratch path",
			obj.Opt.RegAssigned, obj.Opt.Spills)
	}
	emitted := obj.Checks.Emitted()
	if emitted < 4 {
		t.Fatalf("want >=4 emitted check sites to share tails, got %d", emitted)
	}
	tails, codes := trapCallCount(t, obj.Insns)
	if tails != len(codes) {
		t.Fatalf("trap tails duplicated: %d tails over %d distinct codes (%v)", tails, len(codes), codes)
	}
	if tails == 0 || tails > 3 {
		t.Fatalf("implausible trap tail count %d (codes %v)", tails, codes)
	}
}

// TestPressureGoldens pins the emitted instruction counts for the pressure
// corpus. The values are the current emitter's output, asserted exactly:
// regressions in spill placement, redundant scratch moves, or trap-tail
// duplication all move these numbers.
func TestPressureGoldens(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		insns int
	}{
		{"pressure", pressureProg, 130},
		{"spill-chain", `
fn main() -> i64 {
	let a = kernel::pkt_len();
	let b = kernel::pkt_len();
	let c = kernel::pkt_len();
	let d = kernel::pkt_len();
	let e = kernel::pkt_len();
	let f = kernel::pkt_len();
	return ((a + b) * (c + d)) ^ ((e + f) * (a - d)) + (b % (c | 1));
}
`, 38},
		{"loop-pressure", `
fn main() -> i64 {
	let base = kernel::pkt_len();
	let k1 = kernel::pkt_read_u8(0);
	let k2 = kernel::pkt_read_u8(1);
	let k3 = kernel::pkt_read_u8(2);
	let k4 = kernel::pkt_read_u8(3);
	let mut acc: i64 = 0;
	for i in 0..8 {
		acc += (base + i) * k1 + (base - i) * k2 + i * k3 + (acc & k4);
	}
	return acc;
}
`, 53},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			obj, _ := buildMIR(t, c.name, c.src)
			if len(obj.Insns) != c.insns {
				t.Errorf("emitted %d instructions, golden %d (regs %d, spills %d)",
					len(obj.Insns), c.insns, obj.Opt.RegAssigned, obj.Opt.Spills)
			}
		})
	}
}

// TestPressureValidates closes the loop: the spill-heavy programs must
// still pass translation validation (the optimized side executes through
// the allocation, so a scratch-aliasing bug here would diverge).
func TestPressureValidates(t *testing.T) {
	for _, c := range []struct{ name, src string }{
		{"pressure", pressureProg},
	} {
		obj, arts := buildMIR(t, c.name, c.src)
		res := transval.Validate(c.name, arts, obj.Checks, transval.Options{})
		if !res.OK {
			t.Fatalf("%s fails validation: %s\n%s", c.name, res.Reason, res.Counterexample)
		}
	}
}
