package analyze_test

import (
	"testing"

	"kex/internal/safext/compile"
	"kex/internal/safext/lang"
)

// elide builds src at OptElide: a fresh lowering, the elision pass, and
// the static bound over the emitted code.
func elide(t *testing.T, src string) compile.CheckStats {
	t.Helper()
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	obj, _, err := compile.CompileWithOptions("t", checked, compile.Options{Level: compile.OptElide})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return obj.Checks
}

// bounds returns how many bounds sites the pass proved and how many stay
// dynamic.
func bounds(cs compile.CheckStats) (proven, unproven int) {
	return cs.BoundsElided, cs.BoundsEmitted
}

func TestConstantIndexProofs(t *testing.T) {
	cs := elide(t, `
fn main() -> i64 {
    let mut a: [u8; 8];
    a[0] = 1;
    a[7] = 2;
    let x = a[3];
    return x;
}`)
	if proven, unproven := bounds(cs); proven != 3 || unproven != 0 {
		t.Fatalf("constant indices: proven=%d unproven=%d, want 3/0", proven, unproven)
	}
}

func TestOutOfRangeConstantStaysDynamic(t *testing.T) {
	cs := elide(t, `
fn main() -> i64 {
    let mut a: [u8; 8];
    a[8] = 1;
    return 0;
}`)
	if proven, unproven := bounds(cs); proven != 0 || unproven != 1 {
		t.Fatalf("index == len must stay dynamic: proven=%d unproven=%d", proven, unproven)
	}
}

func TestMaskedIndexProof(t *testing.T) {
	cs := elide(t, `
fn main() -> i64 {
    let mut a: [u8; 16];
    let x = kernel::pid_tgid();
    a[x & 15] = 1;
    let y = a[x % 16];
    return y;
}`)
	if proven, unproven := bounds(cs); proven != 2 || unproven != 0 {
		t.Fatalf("masked indices: proven=%d unproven=%d, want 2/0", proven, unproven)
	}
}

func TestBranchRefinementProof(t *testing.T) {
	cs := elide(t, `
fn main() -> i64 {
    let mut a: [u8; 8];
    let i = kernel::pid_tgid();
    if i < 8 {
        a[i] = 1;
    }
    a[i] = 2;
    return 0;
}`)
	// The guarded access proves (unsigned i < 8 ⇒ i ∈ [0,7]); the bare one
	// cannot.
	if proven, unproven := bounds(cs); proven != 1 || unproven != 1 {
		t.Fatalf("branch refinement: proven=%d unproven=%d, want 1/1", proven, unproven)
	}
}

func TestForLoopProof(t *testing.T) {
	cs := elide(t, `
fn main() -> i64 {
    let mut a: [u8; 8];
    for j in 0..8 {
        a[j] = 1;
    }
    return 0;
}`)
	if proven, unproven := bounds(cs); proven != 1 || unproven != 0 {
		t.Fatalf("for-loop index: proven=%d unproven=%d, want 1/0", proven, unproven)
	}
	if cs.StaticInsnBound <= 0 {
		t.Fatalf("literal-trip for loop should have a static fuel bound, got %d", cs.StaticInsnBound)
	}
}

func TestForLoopTripCountOverflow(t *testing.T) {
	// to-from overflows int64 here (~1.2e19 trips); the bound must not
	// wrap to a falsely small one that would let the loader disable
	// per-instruction fuel metering. No static bound may be signed.
	cs := elide(t, `
fn main() -> i64 {
    let mut x = 0;
    for i in -6000000000000000000..6000000000000000000 {
        x += 1;
    }
    return x;
}`)
	if cs.StaticInsnBound != 0 {
		t.Fatalf("overflowing trip count must have no static fuel bound, got %d", cs.StaticInsnBound)
	}
}

func TestForLoopHugeTripCountRejected(t *testing.T) {
	// No overflow, but the product blows past the cap: the bound is
	// useless and must be dropped rather than reported.
	cs := elide(t, `
fn main() -> i64 {
    let mut x = 0;
    for i in 0..8000000000000000000 {
        x += 1;
    }
    return x;
}`)
	if cs.StaticInsnBound != 0 {
		t.Fatalf("beyond-cap trip count must have no static fuel bound, got %d", cs.StaticInsnBound)
	}
}

func TestWhileLoopWidening(t *testing.T) {
	cs := elide(t, `
fn main() -> i64 {
    let mut a: [u8; 8];
    let mut i = 0;
    while i < 8 {
        a[i] = 1;
        i += 1;
    }
    return 0;
}`)
	if proven, unproven := bounds(cs); proven != 1 || unproven != 0 {
		t.Fatalf("while-loop widening: proven=%d unproven=%d, want 1/0", proven, unproven)
	}
	if cs.StaticInsnBound != 0 {
		t.Fatalf("while loops have no static fuel bound, got %d", cs.StaticInsnBound)
	}
}

func TestWhileLoopGrowingIndexStaysDynamic(t *testing.T) {
	cs := elide(t, `
fn main() -> i64 {
    let mut a: [u8; 8];
    let mut i = 0;
    while i < 100 {
        a[i] = 1;
        i += 1;
    }
    return 0;
}`)
	if proven, unproven := bounds(cs); proven != 0 || unproven != 1 {
		t.Fatalf("i reaches 99: proven=%d unproven=%d, want 0/1", proven, unproven)
	}
}

func TestDivAndShiftFacts(t *testing.T) {
	cs := elide(t, `
fn main() -> i64 {
    let x = kernel::pid_tgid();
    let y = kernel::uid();
    let a = x % 256;
    let b = x / (y | 1);
    let c = x / y;
    let d = x >> 3;
    let e = x << y;
    let f = x >> (y & 63);
    return a + b + c + d + e + f;
}`)
	// %256 and /(y|1) prove; /y does not.
	if cs.DivElided != 2 || cs.DivEmitted != 1 {
		t.Fatalf("div facts: %d proven / %d dynamic, want 2/1", cs.DivElided, cs.DivEmitted)
	}
	if cs.MaskElided != 2 || cs.MaskEmitted != 1 {
		t.Fatalf("shift facts: %d proven / %d dynamic, want 2/1", cs.MaskElided, cs.MaskEmitted)
	}
}

func TestCompoundAssignDivFact(t *testing.T) {
	cs := elide(t, `
fn main() -> i64 {
    let mut x = kernel::pid_tgid();
    x %= 1024;
    let mut y = kernel::uid();
    y /= x;
    return x + y;
}`)
	// %= 1024 proves; /= x does not (x ∈ [0, 1023] includes 0).
	if cs.DivElided != 1 || cs.DivEmitted != 1 {
		t.Fatalf("compound div facts: %d proven / %d dynamic, want 1/1", cs.DivElided, cs.DivEmitted)
	}
}

func TestPktReadRangeModel(t *testing.T) {
	cs := elide(t, `
fn main() -> i64 {
    let mut a: [u8; 256];
    let b = kernel::pkt_read_u8(0);
    if b >= 0 {
        a[b] = 1;
    }
    return 0;
}`)
	if proven, unproven := bounds(cs); proven != 1 || unproven != 0 {
		t.Fatalf("pkt_read_u8 range: proven=%d unproven=%d, want 1/0", proven, unproven)
	}
}

func TestHelperReturnStaysDynamic(t *testing.T) {
	// A u64 crate return used directly as an index cannot be proven.
	cs := elide(t, `
fn main() -> i64 {
    let mut a: [u8; 8];
    let x = kernel::ktime();
    a[x] = 1;
    return 0;
}`)
	if proven, unproven := bounds(cs); proven != 0 || unproven != 1 {
		t.Fatalf("raw helper return: proven=%d unproven=%d, want 0/1", proven, unproven)
	}
}

func TestRecursionHasNoFuelBound(t *testing.T) {
	cs := elide(t, `
fn ping(n: i64) -> i64 {
    if n <= 0 { return 0; }
    return ping(n - 1);
}
fn main() -> i64 {
    return ping(5);
}`)
	if cs.StaticInsnBound != 0 {
		t.Fatalf("recursive programs have no static bound, got %d", cs.StaticInsnBound)
	}
}

func TestStraightLineFuelBound(t *testing.T) {
	cs := elide(t, `
fn main() -> i64 {
    let a = kernel::ktime();
    let b = a % 7;
    return b;
}`)
	if cs.StaticInsnBound <= 0 || cs.StaticInsnBound > 1000 {
		t.Fatalf("straight-line bound out of expected range: %d", cs.StaticInsnBound)
	}
}

func TestShortCircuitRefinesRHS(t *testing.T) {
	// The right side of && only executes when the left held, so its checks
	// run under the refinement.
	cs := elide(t, `
fn main() -> i64 {
    let mut a: [u8; 8];
    let i = kernel::pid_tgid();
    if i < 8 && a[i] > 0 {
        return 1;
    }
    return 0;
}`)
	if proven, unproven := bounds(cs); proven != 1 || unproven != 0 {
		t.Fatalf("&&-refined access: proven=%d unproven=%d, want 1/0", proven, unproven)
	}
}
