package analyze

import (
	"fmt"
	"math"
)

const (
	minI64 = math.MinInt64
	maxI64 = math.MaxInt64
)

// Bits is a known-bits abstraction of a 64-bit word (the verifier's tnum):
// Value holds the bits known to be one, Mask the unknown bits. Bits outside
// both are known zero. Invariant: Value&Mask == 0.
type Bits struct {
	Value uint64
	Mask  uint64
}

func bitsTop() Bits           { return Bits{Mask: ^uint64(0)} }
func bitsConst(v uint64) Bits { return Bits{Value: v} }
func (b Bits) isConst() bool  { return b.Mask == 0 }
func (b Bits) minU() uint64   { return b.Value }
func (b Bits) maxU() uint64   { return b.Value | b.Mask }

func bitsAnd(a, b Bits) Bits {
	alpha := a.Value | a.Mask
	beta := b.Value | b.Mask
	v := a.Value & b.Value
	return Bits{Value: v, Mask: alpha & beta &^ v}
}

func bitsOr(a, b Bits) Bits {
	v := a.Value | b.Value
	mu := a.Mask | b.Mask
	return Bits{Value: v, Mask: mu &^ v}
}

func bitsXor(a, b Bits) Bits {
	v := a.Value ^ b.Value
	mu := a.Mask | b.Mask
	return Bits{Value: v &^ mu, Mask: mu}
}

// bitsAdd propagates carries through unknown bits (Kernel tnum_add).
func bitsAdd(a, b Bits) Bits {
	sm := a.Mask + b.Mask
	sv := a.Value + b.Value
	sigma := sm + sv
	chi := sigma ^ sv
	mu := chi | a.Mask | b.Mask
	return Bits{Value: sv &^ mu, Mask: mu}
}

func bitsSub(a, b Bits) Bits {
	dv := a.Value - b.Value
	alpha := dv + a.Mask
	beta := dv - b.Mask
	chi := alpha ^ beta
	mu := chi | a.Mask | b.Mask
	return Bits{Value: dv &^ mu, Mask: mu}
}

func bitsLsh(a Bits, n uint) Bits { return Bits{Value: a.Value << n, Mask: a.Mask << n} }
func bitsRsh(a Bits, n uint) Bits { return Bits{Value: a.Value >> n, Mask: a.Mask >> n} }

// bitsJoin is the lattice join: a bit stays known only where both operands
// know it and agree.
func bitsJoin(a, b Bits) Bits {
	mu := a.Mask | b.Mask | (a.Value ^ b.Value)
	return Bits{Value: a.Value & b.Value &^ mu, Mask: mu}
}

// Val is one abstract 64-bit word: a signed interval [Min, Max] plus known
// bits. The empty interval (Min > Max) is the bottom element — it means the
// value is only reached on a statically dead path, so any fact holds.
type Val struct {
	Min, Max int64
	Bits     Bits
}

// Top is the unconstrained value.
func Top() Val { return Val{Min: minI64, Max: maxI64, Bits: bitsTop()} }

// Const is the singleton value.
func Const(v int64) Val { return Val{Min: v, Max: v, Bits: bitsConst(uint64(v))} }

// Range is the interval [lo, hi] with bits derived from the bounds.
func Range(lo, hi int64) Val {
	return Val{Min: lo, Max: hi, Bits: bitsTop()}.normalize()
}

// Bottom is the unreachable value.
func Bottom() Val { return Val{Min: 1, Max: 0} }

func (v Val) IsBottom() bool { return v.Min > v.Max }

func (v Val) String() string {
	if v.IsBottom() {
		return "⊥"
	}
	if v.Min == v.Max {
		return fmt.Sprintf("%d", v.Min)
	}
	return fmt.Sprintf("[%d,%d] bits=%#x/%#x", v.Min, v.Max, v.Bits.Value, v.Bits.Mask)
}

// bitLen is the position of the highest set bit plus one.
func bitLen(x uint64) uint {
	n := uint(0)
	for x != 0 {
		x >>= 1
		n++
	}
	return n
}

// normalize exchanges information between the two domains: a constant
// interval pins every bit, a non-negative interval zeroes the bits above
// its maximum, and bits whose unsigned range stays in the non-negative
// signed half tighten the interval.
func (v Val) normalize() Val {
	if v.IsBottom() {
		return v
	}
	if v.Min == v.Max {
		v.Bits = bitsConst(uint64(v.Min))
		return v
	}
	if v.Min >= 0 {
		high := ^uint64(0)
		if n := bitLen(uint64(v.Max)); n < 64 {
			high = ^(uint64(1)<<n - 1)
		} else {
			high = 0
		}
		v.Bits.Value &^= high
		v.Bits.Mask &^= high
	}
	if maxU := v.Bits.maxU(); maxU <= uint64(maxI64) {
		if lo := int64(v.Bits.minU()); lo > v.Min {
			v.Min = lo
		}
		if hi := int64(maxU); hi < v.Max {
			v.Max = hi
		}
	}
	return v
}

// Join is the lattice join (least upper bound).
func Join(a, b Val) Val {
	if a.IsBottom() {
		return b
	}
	if b.IsBottom() {
		return a
	}
	r := Val{
		Min:  minInt(a.Min, b.Min),
		Max:  maxInt(a.Max, b.Max),
		Bits: bitsJoin(a.Bits, b.Bits),
	}
	return r.normalize()
}

// Widen jumps unstable interval bounds to ±∞ so loop fixpoints converge in
// a handful of passes. The bits lattice has height 64 and needs no
// widening.
func Widen(prev, next Val) Val {
	if prev.IsBottom() {
		return next
	}
	if next.IsBottom() {
		return prev
	}
	w := next
	if next.Min < prev.Min {
		w.Min = minI64
	}
	if next.Max > prev.Max {
		w.Max = maxI64
	}
	return w
}

func (v Val) eq(o Val) bool { return v == o }

// InRange reports whether every concrete value lies in [lo, hi] (signed).
// Bottom is vacuously in range: the site is statically unreachable.
func (v Val) InRange(lo, hi int64) bool {
	if v.IsBottom() {
		return true
	}
	return v.Min >= lo && v.Max <= hi
}

// NonZero reports whether the 64-bit pattern can never be zero.
func (v Val) NonZero() bool {
	if v.IsBottom() {
		return true
	}
	return v.Min > 0 || v.Max < 0 || v.Bits.Value != 0
}

// ---- transfer functions ------------------------------------------------------
//
// All SLX arithmetic lowers to 64-bit ALU ops on the shared ISA: two's
// complement add/sub/mul, *unsigned* division and modulo, masked shifts.
// The transfers must over-approximate exactly those semantics.

func addOv(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func subOv(a, b int64) (int64, bool) {
	s := a - b
	if (b > 0 && s > a) || (b < 0 && s < a) {
		return 0, false
	}
	return s, true
}

func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if (a == minI64 && b == -1) || (b == minI64 && a == -1) {
		return 0, false
	}
	s := a * b
	if s/b != a {
		return 0, false
	}
	return s, true
}

func (v Val) Add(o Val) Val {
	if v.IsBottom() || o.IsBottom() {
		return Bottom()
	}
	r := Val{Min: minI64, Max: maxI64, Bits: bitsAdd(v.Bits, o.Bits)}
	if lo, ok1 := addOv(v.Min, o.Min); ok1 {
		if hi, ok2 := addOv(v.Max, o.Max); ok2 {
			r.Min, r.Max = lo, hi
		}
	}
	return r.normalize()
}

func (v Val) Sub(o Val) Val {
	if v.IsBottom() || o.IsBottom() {
		return Bottom()
	}
	r := Val{Min: minI64, Max: maxI64, Bits: bitsSub(v.Bits, o.Bits)}
	if lo, ok1 := subOv(v.Min, o.Max); ok1 {
		if hi, ok2 := subOv(v.Max, o.Min); ok2 {
			r.Min, r.Max = lo, hi
		}
	}
	return r.normalize()
}

func (v Val) Neg() Val { return Const(0).Sub(v) }

func (v Val) Mul(o Val) Val {
	if v.IsBottom() || o.IsBottom() {
		return Bottom()
	}
	r := Val{Min: minI64, Max: maxI64, Bits: bitsTop()}
	prods := [4][2]int64{{v.Min, o.Min}, {v.Min, o.Max}, {v.Max, o.Min}, {v.Max, o.Max}}
	lo, hi := int64(maxI64), int64(minI64)
	ok := true
	for _, p := range prods {
		s, fits := mulOv(p[0], p[1])
		if !fits {
			ok = false
			break
		}
		lo, hi = minInt(lo, s), maxInt(hi, s)
	}
	if ok {
		r.Min, r.Max = lo, hi
	}
	return r.normalize()
}

// Div is the ISA's unsigned 64-bit division. The x/0 = 0 case is included
// in the approximation even though the compiler traps before reaching it.
func (v Val) Div(o Val) Val {
	if v.IsBottom() || o.IsBottom() {
		return Bottom()
	}
	if v.Min >= 0 && o.Min >= 1 {
		return Range(v.Min/o.Max, v.Max/o.Min)
	}
	if v.Min >= 0 {
		// Unsigned division never grows a non-negative dividend.
		return Range(0, v.Max)
	}
	return Top()
}

// Mod is the ISA's unsigned 64-bit modulo (x%0 = x at the ALU; the
// compiler traps before reaching it).
func (v Val) Mod(o Val) Val {
	if v.IsBottom() || o.IsBottom() {
		return Bottom()
	}
	if o.Min >= 1 {
		// Unsigned modulo by a divisor in [1, dmax] lands in [0, dmax-1]
		// whatever the dividend's sign looks like.
		hi := o.Max - 1
		if v.Min >= 0 && v.Max < o.Min {
			return v // dividend smaller than any divisor: identity
		}
		if v.Min >= 0 && v.Max < hi {
			hi = v.Max
		}
		return Range(0, hi)
	}
	if v.Min >= 0 {
		return Range(0, v.Max) // x umod d ≤ x for non-negative x, and x%0 = x
	}
	return Top()
}

func (v Val) And(o Val) Val {
	if v.IsBottom() || o.IsBottom() {
		return Bottom()
	}
	r := Val{Min: minI64, Max: maxI64, Bits: bitsAnd(v.Bits, o.Bits)}
	// Anding with a non-negative value bounds the result by it and clears
	// the sign bit.
	if v.Min >= 0 || o.Min >= 0 {
		r.Min = 0
		r.Max = maxI64
		if v.Min >= 0 && v.Max < r.Max {
			r.Max = v.Max
		}
		if o.Min >= 0 && o.Max < r.Max {
			r.Max = o.Max
		}
	}
	return r.normalize()
}

func (v Val) Or(o Val) Val {
	if v.IsBottom() || o.IsBottom() {
		return Bottom()
	}
	r := Val{Min: minI64, Max: maxI64, Bits: bitsOr(v.Bits, o.Bits)}
	if v.Min >= 0 && o.Min >= 0 {
		n := bitLen(uint64(v.Max) | uint64(o.Max))
		r.Min = maxInt(v.Min, o.Min)
		r.Max = int64(uint64(1)<<n - 1)
	}
	return r.normalize()
}

func (v Val) Xor(o Val) Val {
	if v.IsBottom() || o.IsBottom() {
		return Bottom()
	}
	r := Val{Min: minI64, Max: maxI64, Bits: bitsXor(v.Bits, o.Bits)}
	if v.Min >= 0 && o.Min >= 0 {
		n := bitLen(uint64(v.Max) | uint64(o.Max))
		r.Min = 0
		r.Max = int64(uint64(1)<<n - 1)
	}
	return r.normalize()
}

// Shl models dst << (src & 63), the ISA's masked left shift.
func (v Val) Shl(o Val) Val {
	if v.IsBottom() || o.IsBottom() {
		return Bottom()
	}
	if o.Min == o.Max {
		n := uint(uint64(o.Min) & 63)
		r := Val{Min: minI64, Max: maxI64, Bits: bitsLsh(v.Bits, n)}
		if v.Min >= 0 && v.Max <= maxI64>>n {
			r.Min, r.Max = v.Min<<n, v.Max<<n
		}
		return r.normalize()
	}
	return Top()
}

// Shr models dst >> (src & 63), the ISA's masked logical right shift.
func (v Val) Shr(o Val) Val {
	if v.IsBottom() || o.IsBottom() {
		return Bottom()
	}
	if o.Min == o.Max {
		n := uint(uint64(o.Min) & 63)
		if n == 0 {
			return v
		}
		r := Val{Bits: bitsRsh(v.Bits, n)}
		if v.Min >= 0 {
			r.Min, r.Max = v.Min>>n, v.Max>>n
		} else {
			// A logical shift by n ≥ 1 zeroes the sign bit.
			r.Min, r.Max = 0, int64(^uint64(0)>>n)
		}
		return r.normalize()
	}
	if o.Min >= 0 && o.Max <= 63 && v.Min >= 0 {
		return Range(0, v.Max) // shrinking shift of a non-negative value
	}
	if o.Min >= 1 && o.Max <= 63 {
		return Range(0, maxI64) // any shift ≥ 1 clears the sign bit
	}
	return Top()
}

func minInt(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
