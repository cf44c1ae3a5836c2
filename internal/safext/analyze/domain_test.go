package analyze

import "testing"

func TestDomainBasics(t *testing.T) {
	if v := Const(5).Add(Const(7)); v.Min != 12 || v.Max != 12 {
		t.Fatalf("5+7 = %v", v)
	}
	if v := Range(0, 10).Add(Range(0, 5)); v.Min != 0 || v.Max != 15 {
		t.Fatalf("[0,10]+[0,5] = %v", v)
	}
	if v := Top().And(Const(7)); !v.InRange(0, 7) {
		t.Fatalf("⊤ & 7 = %v, want ⊆ [0,7]", v)
	}
	if v := Top().Mod(Const(256)); !v.InRange(0, 255) {
		t.Fatalf("⊤ %% 256 = %v, want ⊆ [0,255]", v)
	}
	if v := Top().Or(Const(1)); !v.NonZero() {
		t.Fatalf("⊤ | 1 = %v, want non-zero", v)
	}
	if v := Range(-8, 8).Shr(Const(1)); v.Min < 0 {
		t.Fatalf("logical shift must clear the sign: %v", v)
	}
	if v := Range(1, 100).Div(Const(10)); v.Min != 0 || v.Max != 10 {
		t.Fatalf("[1,100]/10 = %v", v)
	}
	// Overflowing interval arithmetic must widen, not wrap.
	if v := Const(1 << 62).Add(Const(1 << 62)); v.InRange(0, 1<<62) {
		t.Fatalf("overflow add must go to ⊤-ish: %v", v)
	}
	j := Join(Const(3), Const(5))
	if j.Min != 3 || j.Max != 5 {
		t.Fatalf("join(3,5) = %v", j)
	}
	if j.Bits.Value&1 != 1 {
		t.Fatalf("join(3,5) should know the low bit is 1: %v", j)
	}
}

func TestRefineUnsignedAgainstConstant(t *testing.T) {
	// v <u 16 forces v into [0, 15] even from ⊤ — the verifier's classic.
	v := refineVal(Top(), "<", Const(16), false)
	if !v.InRange(0, 15) {
		t.Fatalf("⊤ <u 16 refined to %v", v)
	}
	// Signed refinement keeps the negative half.
	v = refineVal(Top(), "<", Const(16), true)
	if v.Min != minI64 || v.Max != 15 {
		t.Fatalf("⊤ <s 16 refined to %v", v)
	}
}
