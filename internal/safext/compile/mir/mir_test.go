package mir_test

import (
	"testing"

	"kex/internal/safext/analyze"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
)

// lowerMain runs the frontend on src and lowers main into MIR, exactly as
// the level-2 compiler does.
func lowerMain(t *testing.T, src string) *mir.Func {
	t.Helper()
	file, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := lang.Check(file)
	if err != nil {
		t.Fatal(err)
	}
	var main *lang.FuncDecl
	for _, fn := range file.Funcs {
		if fn.Name == "main" {
			main = fn
		}
	}
	if main == nil {
		t.Fatal("no main")
	}
	f, err := mir.LowerFunc(main, checked)
	if err != nil {
		t.Fatal(err)
	}
	analyze.Elide([]*mir.Func{f}, []analyze.Types{analyze.TypesOf(checked, main)})
	return f
}

// optimizeMain lowers and optimizes main, returning the function and the
// pass statistics.
func optimizeMain(t *testing.T, src string) (*mir.Func, mir.Stats) {
	t.Helper()
	f := lowerMain(t, src)
	st := mir.Optimize(f)
	return f, st
}

// retImm digs the function's sole return out and requires it to be a
// folded immediate.
func retImm(t *testing.T, f *mir.Func) int64 {
	t.Helper()
	var found *mir.Terminator
	for _, b := range f.Blocks {
		if b.Term.Kind == mir.TermRet {
			if found != nil {
				t.Fatalf("multiple returns:\n%s", f)
			}
			term := b.Term
			found = &term
		}
	}
	if found == nil {
		t.Fatalf("no return:\n%s", f)
	}
	if !found.RetIsImm {
		t.Fatalf("return not folded to an immediate:\n%s", f)
	}
	return found.RetImm
}

func TestConstantProgramFoldsToImmediateReturn(t *testing.T) {
	f, st := optimizeMain(t, `
fn main() -> i64 {
	let a = 3 + 4;
	let b = a * 2;
	return b - 14;
}
`)
	if got := retImm(t, f); got != 0 {
		t.Errorf("folded return = %d, want 0", got)
	}
	if st.Folded == 0 || st.DeadRemoved == 0 {
		t.Errorf("expected folding and DCE activity, got %+v", st)
	}
	for _, b := range f.Blocks {
		if len(b.Insns) != 0 {
			t.Errorf("block b%d still holds %d instructions:\n%s", b.ID, len(b.Insns), f)
		}
	}
}

// TestFoldOverflowBoundaries pins the folder to the engine's two's
// complement wraparound ALU at the exact boundaries where a naive
// big.Int-style folder would diverge: if any of these constants came out
// "mathematically correct" instead of wrapped, a folded build would return
// different values than a naive build of the same program.
func TestFoldOverflowBoundaries(t *testing.T) {
	const maxI64 = 9223372036854775807
	cases := []struct {
		name, expr string
		want       int64
	}{
		{"add wraps past max", "(1 << 63) + (1 << 63)", 0},
		{"mul wraps to zero", "(1 << 62) * 4", 0},
		{"sub borrows below zero", "0 - 1", -1},
		{"shift amount masked mod 64", "1 << 64", 1},
		{"right shift is logical", "(0 - 1) >> 1", maxI64},
		{"mul into sign bit", "(3 - 5) * (1 << 62)", -maxI64 - 1},
		{"xor across sign boundary", "(1 << 63) ^ (0 - 1)", maxI64},
	}
	for _, tc := range cases {
		f, _ := optimizeMain(t, "fn main() -> i64 { return "+tc.expr+"; }")
		if got := retImm(t, f); got != tc.want {
			t.Errorf("%s: %s folded to %d, want %d", tc.name, tc.expr, got, tc.want)
		}
	}
}

// TestDivByZeroConstantNeverFolds: 7/0 is not a compile-time constant —
// the engine defines x/0 = 0 only after the dynamic check site fires, and
// the check site on a constant zero divisor must stay in Emit state.
func TestDivByZeroConstantNeverFolds(t *testing.T) {
	f, _ := optimizeMain(t, `
fn main() -> i64 {
	let d = 5 - 5;
	return 7 / d;
}
`)
	emit := 0
	for _, s := range f.Sites {
		if s.Kind == "div" && s.State == mir.SiteEmit {
			emit++
		}
	}
	if emit != 1 {
		t.Errorf("div-by-constant-zero kept %d Emit div sites, want 1:\n%s", emit, f)
	}
}

// TestHoistRespectsHelperCalls: LICM may move pure arithmetic on
// loop-invariant operands, and nothing else. The helper call produces a
// fresh value every iteration (and may have side effects), so neither the
// call nor anything data-dependent on it can leave the loop.
func TestHoistRespectsHelperCalls(t *testing.T) {
	f, st := optimizeMain(t, `
fn main() -> i64 {
	let a = kernel::rand() % 1000;
	let mut sum: i64 = 0;
	for i in 0..8 {
		let x = kernel::rand();
		let inv = a * 3;
		sum += x % 100 + inv;
	}
	return sum;
}
`)
	if st.Hoisted != 1 {
		t.Errorf("hoisted = %d, want exactly 1 (a*3):\n%s", st.Hoisted, f)
	}
	if len(f.Loops) == 0 {
		t.Fatalf("no loops recorded:\n%s", f)
	}
	pre := f.BlockByID(f.Loops[0].Preheader)
	calls := 0
	for _, in := range pre.Insns {
		if in.Op == mir.OpCallCrate || in.Op == mir.OpCallUser {
			calls++
		}
	}
	if calls != 0 {
		t.Errorf("preheader holds %d calls; helper calls must never hoist:\n%s", calls, f)
	}
	total := 0
	for _, b := range f.Blocks {
		for _, in := range b.Insns {
			if in.Op == mir.OpCallCrate {
				total++
			}
		}
	}
	if total != 2 {
		t.Errorf("crate calls = %d, want 2 (both rand calls kept):\n%s", total, f)
	}
}

// TestRLEPercpuNeverCached: identical back-to-back map_get calls collapse
// on a plain hash map, but never on a percpu_hash — batched and sharded
// runtimes may land consecutive invocation steps on different per-CPU
// slots, so each read must materialize.
func TestRLEPercpuNeverCached(t *testing.T) {
	hash, stHash := optimizeMain(t, `
map m: hash<u64, u64>(8);

fn main() -> i64 {
	let a = kernel::map_get(m, 1);
	let b = kernel::map_get(m, 1);
	return a + b;
}
`)
	if stHash.LoadsEliminated != 1 {
		t.Errorf("hash map: loads eliminated = %d, want 1:\n%s", stHash.LoadsEliminated, hash)
	}
	percpu, stPC := optimizeMain(t, `
map m: percpu_hash<u64, u64>(8);

fn main() -> i64 {
	let a = kernel::map_get(m, 1);
	let b = kernel::map_get(m, 1);
	return a + b;
}
`)
	if stPC.LoadsEliminated != 0 {
		t.Errorf("percpu_hash: loads eliminated = %d, want 0:\n%s", stPC.LoadsEliminated, percpu)
	}
	gets := 0
	for _, b := range percpu.Blocks {
		for _, in := range b.Insns {
			if in.Op == mir.OpCallCrate && in.Name == "map_get" {
				gets++
			}
		}
	}
	if gets != 2 {
		t.Errorf("percpu_hash: %d map_get calls survive, want 2:\n%s", gets, percpu)
	}
}

// TestRLEStoreInvalidates: a map_set between two identical map_gets kills
// the cached value — the second get must re-read.
func TestRLEStoreInvalidates(t *testing.T) {
	f, st := optimizeMain(t, `
map m: hash<u64, u64>(8);

fn main() -> i64 {
	let a = kernel::map_get(m, 1);
	kernel::map_set(m, 2, a + 1);
	let b = kernel::map_get(m, 1);
	return a + b;
}
`)
	if st.LoadsEliminated != 0 {
		t.Errorf("loads eliminated across a map_set = %d, want 0:\n%s", st.LoadsEliminated, f)
	}
}

// TestAllocatorInvariants: with more simultaneously-live values than the
// four callee-saved registers, the allocator must spill — and its output
// tables must stay mutually consistent (every vreg is either unused, in
// exactly one register index, or in exactly one distinct spill slot).
func TestAllocatorInvariants(t *testing.T) {
	f, _ := optimizeMain(t, `
fn main() -> i64 {
	let a = kernel::rand() % 10;
	let b = kernel::rand() % 10;
	let c = kernel::rand() % 10;
	let d = kernel::rand() % 10;
	let e = kernel::rand() % 10;
	let g = kernel::rand() % 10;
	return a + b + c + d + e + g;
}
`)
	al := mir.Allocate(f)
	if al.NumSpills < 1 {
		t.Errorf("six values live across helper calls allocated with no spills")
	}
	slots := map[int]mir.VReg{}
	for v := 1; v <= f.NumVRegs; v++ {
		r, s := al.Reg[v], al.SpillSlot[v]
		switch {
		case r == mir.LocUnused:
			if s != -1 {
				t.Errorf("v%d unused but has spill slot %d", v, s)
			}
		case r == mir.LocSpill:
			if s < 0 || s >= al.NumSpills {
				t.Errorf("v%d spilled to out-of-range slot %d (%d slots)", v, s, al.NumSpills)
			}
			if prev, dup := slots[s]; dup {
				t.Errorf("v%d and v%d share spill slot %d", v, prev, s)
			}
			slots[s] = mir.VReg(v)
		case r >= 0 && r < mir.NumAllocRegs:
			if s != -1 {
				t.Errorf("v%d in register %d but also slot %d", v, r, s)
			}
		default:
			t.Errorf("v%d has invalid register index %d", v, r)
		}
	}
}

// TestDumpDeterministic: lowering and optimizing the same source twice
// yields byte-identical dumps — the property the kexlint DeterministicDirs
// entry for this package guards statically, checked dynamically here.
func TestDumpDeterministic(t *testing.T) {
	const src = `
map m: hash<u64, u64>(16);

fn main() -> i64 {
	let mut buf: [u8; 32];
	let mut sum: i64 = 0;
	for i in 0..16 {
		let k = (i * 3) & 31;
		buf[k] = k * 2;
		sum += buf[k] + kernel::map_get(m, k);
	}
	return sum;
}
`
	a, _ := optimizeMain(t, src)
	b, _ := optimizeMain(t, src)
	if a.String() != b.String() {
		t.Errorf("two builds of the same source diverge:\n--- first\n%s\n--- second\n%s", a, b)
	}
}
