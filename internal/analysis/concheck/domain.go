// Package concheck is the shard-safety static analyzer: it proves that an
// extension is safe to run on the per-CPU sharded data plane (exec.Sharded)
// by classifying every map access site the program contains. The hazard it
// hunts is the lost update: a map_get → modify → map_set window on a shared
// (non-percpu) map whose key can alias another shard's — two shards read
// the same cell, both write back, one increment vanishes. Sites proven
// per-CPU private, read-only, atomic, lock-serialized, or shard-private by
// key construction are safe; everything else is Racy, and a Racy program is
// refused (strict) or serialized onto one shard (warn) by the plane.
//
// The analysis runs over the SLX compiler's MIR (the same check-site
// machinery the optimizer and translation validator use) and, for the eBPF
// stack, over raw bytecode with the verifier's per-call facts resolving
// key constants. Like the CHEK and TVAL properties before it, the verdict
// is computed in userspace, serialized into the signed container (CONC
// section), and merely *enforced* in the kernel — the paper's thesis that
// safety proofs belong in the toolchain, applied to concurrency.
package concheck

import (
	"fmt"
	"strconv"
)

// provKind enumerates the key-provenance lattice. The only question that
// matters for shard safety is "can two different shards compute the same
// cell from this expression?" — Const, Ctx, and Unknown all can; CPU
// (injective in the shard id) cannot.
type provKind uint8

const (
	// provBot: no definition seen yet (lattice bottom).
	provBot provKind = iota
	// provConst: exactly the constant C on every shard — aliases by
	// definition (every shard computes the same cell).
	provConst
	// provCPU: an affine function a*cpu+b of the shard id. Injective (no
	// cross-shard alias) when the multiplier survives key truncation; see
	// Injective.
	provCPU
	// provCtx: derived from the invocation context (packet bytes, uid,
	// pid_tgid, rand, ktime...) — two shards can observe equal values, so
	// it aliases.
	provCtx
	// provUnknown: anything (lattice top) — assumed to alias.
	provUnknown
)

// Prov is one abstract key value.
type Prov struct {
	kind provKind
	c    uint64 // provConst: the value
	a, b uint64 // provCPU: key = a*cpu + b (64-bit wraparound)
}

// Lattice constructors.
func botProv() Prov           { return Prov{kind: provBot} }
func constProv(v uint64) Prov { return Prov{kind: provConst, c: v} }
func cpuProv() Prov           { return Prov{kind: provCPU, a: 1} }
func ctxProv() Prov           { return Prov{kind: provCtx} }
func unknownProv() Prov       { return Prov{kind: provUnknown} }

// MaxShardID is the analyzer's assumed bound on simulated CPU ids. A CPU
// multiplier that cannot wrap the key width below this many shards is
// accepted as injective; kernels here run a handful of CPUs, so the slack
// is enormous. The bound exists so even-multiplier keys like cpu()*8 stay
// provable without claiming injectivity for multipliers (like 1<<31 on a
// 4-byte key) that alias at tiny shard distances.
const MaxShardID = 4096

// String renders the provenance for site evidence.
func (p Prov) String() string {
	switch p.kind {
	case provBot:
		return "unreached"
	case provConst:
		return "const " + strconv.FormatUint(p.c, 10)
	case provCPU:
		if p.a == 1 && p.b == 0 {
			return "cpu"
		}
		return fmt.Sprintf("cpu*%d+%d", p.a, p.b)
	case provCtx:
		return "ctx"
	}
	return "unknown"
}

// Join is the lattice join: the least provenance containing both.
func (p Prov) Join(q Prov) Prov {
	switch {
	case p.kind == provBot:
		return q
	case q.kind == provBot:
		return p
	case p == q:
		return p
	case p.kind == provCtx && q.kind == provCtx:
		return ctxProv()
	}
	// Different constants, different affine forms, const-vs-ctx mixes:
	// all collapse to unknown. (A constant set would be more precise; the
	// aliasing answer — "may alias" — is the same either way.)
	return unknownProv()
}

// truncate normalizes the provenance to the map's key width. This is where
// the int32 boundary bites: on a 4-byte-key (array-kind) map, keys 1 and
// 1<<32|1 land on the same cell, and cpu()*(1<<32) collapses to the
// constant 0 — a false per-CPU claim the analyzer must see through.
func (p Prov) truncate(keyBits uint) Prov {
	if keyBits >= 64 {
		return p
	}
	mask := (uint64(1) << keyBits) - 1
	switch p.kind {
	case provConst:
		return constProv(p.c & mask)
	case provCPU:
		a, b := p.a&mask, p.b&mask
		if a == 0 {
			// The multiplier vanished below the key width: every shard
			// computes the same cell. cpu()*(1<<32) on a 4-byte key.
			return constProv(b)
		}
		return Prov{kind: provCPU, a: a, b: b}
	}
	return p
}

// Injective reports whether the (already truncated) provenance provably
// maps distinct shard ids to distinct cells. Odd multipliers are bijections
// mod 2^k, hence injective for every shard id; even nonzero multipliers are
// injective while a*shard cannot wrap, which MaxShardID guarantees when
// a <= 2^k / MaxShardID.
func (p Prov) Injective(keyBits uint) bool {
	if p.kind != provCPU {
		return false
	}
	a := p.a
	if keyBits < 64 {
		a &= (uint64(1) << keyBits) - 1
	}
	if a == 0 {
		return false
	}
	if a%2 == 1 {
		return true
	}
	var limit uint64
	if keyBits >= 64 {
		limit = (uint64(1) << 63) / (MaxShardID / 2)
	} else {
		limit = (uint64(1) << keyBits) / MaxShardID
	}
	return a <= limit
}

// MayAliasAcrossShards reports whether two different shards could compute
// the same cell from this key at the given width — the convicting question.
func (p Prov) MayAliasAcrossShards(keyBits uint) bool {
	t := p.truncate(keyBits)
	if t.kind == provCPU && t.Injective(keyBits) {
		return false
	}
	// Const: every shard computes the same cell. Ctx/Unknown/non-injective
	// CPU: no proof to the contrary. Bot: unreached code, cannot alias.
	return t.kind != provBot
}

// SameAffine reports whether two CPU provenances are the same affine
// function of the shard id — the condition for a shard-private cell to be
// read and written through two syntactically different expressions.
func (p Prov) SameAffine(q Prov) bool {
	return p.kind == provCPU && q.kind == provCPU && p.a == q.a && p.b == q.b
}

// IsConst reports the exact-constant case and its value.
func (p Prov) IsConst() (uint64, bool) { return p.c, p.kind == provConst }

// transferBin abstracts one 64-bit wraparound binary operation over the
// lattice. Engine semantics match transval's model: masked shifts, defined
// division by zero.
func transferBin(op string, p, q Prov) Prov {
	if p.kind == provBot || q.kind == provBot {
		return botProv() // operand undefined: unreached, stay at bottom
	}
	// Constant folding keeps key expressions like 5*256+2 precise.
	if pv, ok := p.IsConst(); ok {
		if qv, ok := q.IsConst(); ok {
			return foldConst(op, pv, qv)
		}
	}
	switch op {
	case "+", "-":
		return transferAffine(op, p, q)
	case "*":
		return transferMul(p, q)
	case "<<":
		if qv, ok := q.IsConst(); ok && p.kind == provCPU {
			sh := qv & 63
			return Prov{kind: provCPU, a: p.a << sh, b: p.b << sh}
		}
	}
	// Non-injective operators (%, /, &, |, ^, >>) and every unhandled mix
	// degrade: a cpu()-derived key pushed through them may alias across
	// shards (cpu()%2 with 4 shards), so the CPU pedigree is forfeit.
	return degradeMix(p, q)
}

// degradeMix is the transfer fallthrough: ctx composed with constants stays
// ctx-derived (pkt_read_u32(k)&0xff is still packet data); a CPU pedigree
// pushed through a non-injective operator, or any unknown operand, is
// forfeit.
func degradeMix(p, q Prov) Prov {
	ctxish := func(x Prov) bool { return x.kind == provCtx || x.kind == provConst }
	if (p.kind == provCtx || q.kind == provCtx) && ctxish(p) && ctxish(q) {
		return ctxProv()
	}
	return unknownProv()
}

// transferAffine handles +/- where affine CPU forms stay affine.
func transferAffine(op string, p, q Prov) Prov {
	neg := func(x Prov) Prov {
		switch x.kind {
		case provConst:
			return constProv(-x.c)
		case provCPU:
			return Prov{kind: provCPU, a: -x.a, b: -x.b}
		}
		return x
	}
	if op == "-" {
		q = neg(q)
	}
	add := func(x, y Prov) Prov {
		switch {
		case x.kind == provCPU && y.kind == provConst:
			return Prov{kind: provCPU, a: x.a, b: x.b + y.c}
		case x.kind == provConst && y.kind == provCPU:
			return Prov{kind: provCPU, a: y.a, b: y.b + x.c}
		case x.kind == provCPU && y.kind == provCPU:
			if a := x.a + y.a; a != 0 {
				return Prov{kind: provCPU, a: a, b: x.b + y.b}
			}
			return unknownProv()
		case x.kind == provCtx || y.kind == provCtx:
			if x.kind != provCPU && y.kind != provCPU {
				return ctxProv() // ctx ± const stays ctx-derived
			}
		}
		return unknownProv()
	}
	return add(p, q)
}

// transferMul handles * where scaling a CPU form by a constant stays affine.
func transferMul(p, q Prov) Prov {
	if p.kind == provConst {
		p, q = q, p
	}
	if qv, ok := q.IsConst(); ok {
		switch p.kind {
		case provCPU:
			if a := p.a * qv; a != 0 {
				return Prov{kind: provCPU, a: a, b: p.b * qv}
			}
			return constProv(p.b * qv)
		case provCtx:
			return ctxProv()
		}
	}
	return degradeMix(p, q)
}

// degrade forfeits injectivity claims while preserving "is this
// ctx-derived" evidence quality.
func degrade(p Prov) Prov {
	switch p.kind {
	case provCtx:
		return ctxProv()
	case provBot:
		return botProv()
	}
	return unknownProv()
}

// foldConst evaluates one operation over two constants with the engine's
// semantics (the same table transval's model uses).
func foldConst(op string, a, b uint64) Prov {
	switch op {
	case "+":
		return constProv(a + b)
	case "-":
		return constProv(a - b)
	case "*":
		return constProv(a * b)
	case "/":
		if b == 0 {
			return constProv(0) // engine-defined x/0 (check may trap first)
		}
		return constProv(a / b)
	case "%":
		if b == 0 {
			return constProv(a) // engine-defined x%0
		}
		return constProv(a % b)
	case "&":
		return constProv(a & b)
	case "|":
		return constProv(a | b)
	case "^":
		return constProv(a ^ b)
	case "<<":
		return constProv(a << (b & 63))
	case ">>":
		return constProv(a >> (b & 63))
	}
	return unknownProv()
}

// ctxSources are the crate calls whose results derive from the invocation
// context: observable on any shard, so equal values on two shards are
// entirely possible. cpu() is deliberately absent — it is the one
// shard-distinguishing source — and the map ops are handled separately.
var ctxSources = map[string]bool{
	"ktime": true, "pid_tgid": true, "uid": true, "rand": true,
	"comm": true, "str_parse": true, "str_eq": true,
	"pkt_len": true, "pkt_read_u8": true, "pkt_read_u16": true,
	"pkt_read_u32": true, "sk_ok": true,
}
