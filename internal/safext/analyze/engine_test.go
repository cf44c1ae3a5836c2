package analyze

import (
	"testing"

	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
)

// lowerAll lowers every function of src, main first.
func lowerAll(t *testing.T, src string) ([]*mir.Func, []Types) {
	t.Helper()
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	var funcs []*mir.Func
	var types []Types
	for _, fn := range checked.File.Funcs {
		mf, err := mir.LowerFunc(fn, checked)
		if err != nil {
			t.Fatal(err)
		}
		funcs, types = append(funcs, mf), append(types, TypesOf(checked, fn))
	}
	return funcs, types
}

func TestBudgetExhaustionKeepsEveryCheck(t *testing.T) {
	const src = `
fn main() -> i64 {
    let mut a: [u8; 8];
    for i in 0..8 {
        a[i] = 1;
    }
    return 0;
}`
	funcs, types := lowerAll(t, src)
	if trips, _, ok := elide(funcs, types, 3); ok || trips != nil {
		t.Fatalf("exhausted budget reported ok=%v trips=%v", ok, trips)
	}
	for _, s := range funcs[0].Sites {
		if s.State != mir.SiteEmit {
			t.Fatalf("exhausted budget elided a %s site", s.Kind)
		}
	}
	trips, _, ok := elide(funcs, types, workBudget)
	if !ok || funcs[0].Sites[0].State != mir.SiteElided {
		t.Fatalf("full budget: ok=%v, site %v", ok, funcs[0].Sites[0].State)
	}
	if trips[0][0] != 8 {
		t.Fatalf("for i in 0..8: trip bound %d, want 8", trips[0][0])
	}
}

// TestTripBoundsFromTheDomain pins the loops the elision pass can bound:
// an inner loop whose limit is the outer induction variable is bounded by
// that variable's range, and a while loop is not bounded at all.
func TestTripBoundsFromTheDomain(t *testing.T) {
	funcs, types := lowerAll(t, `
fn main() -> i64 {
    let mut n = 0;
    for i in 0..4 {
        for j in 0..i {
            n += j;
        }
    }
    let mut k = 0;
    while k < 4 {
        k += 1;
    }
    return n + k;
}`)
	trips, _, ok := Elide(funcs, types)
	if !ok {
		t.Fatal("budget exhausted")
	}
	want := []int64{4, 3, -1} // j < i and i <= 3, so j takes at most 3 values
	for i, w := range want {
		if trips[0][i] != w {
			t.Errorf("loop %d: trip bound %d, want %d", i, trips[0][i], w)
		}
	}
}
