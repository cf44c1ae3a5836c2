package concheck

import (
	"fmt"

	"kex/internal/safext/compile"
)

// The classification pass is shared by both stacks: the SLX analyzer (MIR)
// and the eBPF analyzer (bytecode + verifier facts) each reduce their
// programs to the same site evidence — op kind, key provenance, value
// taint, lock context — and this file turns that evidence into verdicts.

// siteOp is the semantic kind of a map access site, independent of which
// stack's operation produced it.
type siteOp uint8

const (
	// opRead: map_get / bpf_map_lookup_elem (the lookup itself; loads
	// through the returned pointer taint the reader).
	opRead siteOp = iota
	// opWrite: map_set / bpf_map_update_elem / a store through a map-value
	// pointer.
	opWrite
	// opDelete: map_del / bpf_map_delete_elem.
	opDelete
	// opAtomic: map_inc / an eBPF atomic add through a map-value pointer —
	// one indivisible read-modify-write, never a window.
	opAtomic
	// opEmit: ringbuf emit / reserve-submit — atomic under the ring lock.
	opEmit
)

// siteKey identifies one map access site across call contexts.
type siteKey struct {
	fn string
	pc int
}

// siteInfo accumulates one site's evidence over every visiting context.
type siteInfo struct {
	key     siteKey
	mapName string
	sop     siteOp
	op      string // display name (map_get / lookup / store / ...)
	line    int
	ord     int // discovery order, for deterministic reports

	keyProv Prov
	vTaint  uint64 // written-value data taint ∪ control taint (writes)

	// Lock evidence: lockedAll stays true only while every visit to this
	// site held a lock on its own map with a constant key; lockKey is that
	// key (lockConsistent false when two visits held different cells).
	visited        bool
	lockedAll      bool
	lockKey        uint64
	lockConsistent bool
}

// mapInfo is the per-map context classification needs.
type mapInfo struct {
	Name    string
	Kind    string // hash / array / percpu / percpu_hash / ringbuf / ...
	KeyBits uint   // installed key width in bits (32 for 4-byte keys)
	Bit     uint64 // this map's taint-mask bit
	PerCPU  bool   // each shard owns its own cells by construction
}

// classifyMap decides one map's verdict from its accumulated sites.
func classifyMap(info mapInfo, sites []*siteInfo) compile.ConcMapVerdict {
	mv := compile.ConcMapVerdict{Map: info.Name, Kind: info.Kind, Verdict: compile.VerdictReadOnly}
	bits := info.KeyBits

	// Pass 1: map-wide facts the per-site decisions depend on.
	var nwrites int
	allLockedSame, haveLock := true, false
	var commonLockKey uint64
	cpuKeyedAll := true
	var affine Prov
	affineSet := false
	constGets := true
	getKeys := map[uint64]bool{}
	for _, s := range sites {
		kp := s.keyProv.truncate(bits)
		switch s.sop {
		case opWrite, opDelete, opAtomic, opEmit:
			nwrites++
			if s.sop != opEmit {
				if !s.lockedAll || !s.lockConsistent {
					allLockedSame = false
				} else if !haveLock {
					haveLock, commonLockKey = true, s.lockKey
				} else if s.lockKey != commonLockKey {
					allLockedSame = false
				}
			}
		case opRead:
			if c, ok := kp.IsConst(); ok {
				getKeys[c] = true
			} else {
				constGets = false
			}
		}
		if s.sop != opEmit {
			if kp.kind != provCPU || !kp.Injective(bits) {
				cpuKeyedAll = false
			} else if !affineSet {
				affine, affineSet = kp, true
			} else if !affine.SameAffine(kp) {
				cpuKeyedAll = false
			}
		}
	}
	guarded := nwrites > 0 && allLockedSame && haveLock

	// Pass 2: classify each site; the worst one decides the verdict.
	for _, s := range sites {
		cs := compile.ConcSite{
			Map: info.Name, Func: s.key.fn, PC: s.key.pc, Op: s.op, Line: s.line,
		}
		if s.sop != opEmit {
			cs.Key = s.keyProv.truncate(bits).String()
		}
		switch {
		case info.PerCPU:
			cs.Class = compile.ClassPerCPU
		case s.sop == opEmit:
			cs.Class = compile.ClassAtomic
		case s.sop == opRead:
			cs.Class = compile.ClassReadOnly
		case s.sop == opAtomic:
			cs.Class = compile.ClassAtomic
		default: // opWrite / opDelete
			window := s.vTaint&info.Bit != 0
			kp := s.keyProv.truncate(bits)
			switch {
			case !window:
				cs.Class = compile.ClassBlind
			case guarded:
				cs.Class = compile.ClassGuarded
				cs.Note = fmt.Sprintf("serialized under lock (%s, cell %d)", info.Name, commonLockKey)
			case cpuKeyedAll:
				cs.Class = compile.ClassCPUKeyed
				cs.Note = "every access shard-private: key injective in cpu()"
			case disjointConstWindow(kp, constGets, getKeys):
				// The write lands on a constant cell no read of this map
				// ever observes: a copy, not a read-modify-write.
				cs.Class = compile.ClassBlind
				cs.Note = "writes a cell no get reads"
			default:
				cs.Class = compile.ClassRacy
				cs.Note = fmt.Sprintf("unguarded read-modify-write window on shared %s map, key %s may alias across shards",
					info.Kind, cs.Key)
			}
		}
		if cs.Class == compile.ClassRacy && mv.Reason == "" {
			mv.Verdict = compile.VerdictRacy
			mv.Reason = fmt.Sprintf("%s@%s+%d: %s", s.op, s.key.fn, s.key.pc, cs.Note)
		}
		mv.Sites = append(mv.Sites, cs)
	}
	if mv.Verdict != compile.VerdictRacy && nwrites > 0 {
		mv.Verdict = compile.VerdictShardSafe
	}
	return mv
}

// disjointConstWindow reports the copy pattern: the tainted write targets a
// constant cell that provably no get of the same map reads.
func disjointConstWindow(writeKey Prov, constGets bool, getKeys map[uint64]bool) bool {
	c, ok := writeKey.IsConst()
	if !ok || !constGets {
		return false
	}
	return !getKeys[c]
}
