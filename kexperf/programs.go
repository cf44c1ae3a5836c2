package main

import (
	"fmt"

	"kex/internal/ebpf"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
)

// progKind is what an extension does with a packet.
type progKind int

const (
	// kindKV is the in-kernel lookaside cache of examples/kvcache
	// (progs.KVCache): it looks the request's key up in a shared cache
	// table and returns the cached value, or -1 on a miss, and counts hits
	// and misses.
	kindKV progKind = iota
	// kindFlows adds the packet's length to its flow's byte counter on a
	// shared table (an atomic add) and bumps a per-CPU packet counter.
	kindFlows
)

func (k progKind) String() string {
	if k == kindKV {
		return "kvcache"
	}
	return "flows"
}

// records is the number of keys of the shared tables: the cache's records
// and the flows. It is YCSB's default record count (recordcount=1000 in
// its core workloads).
const records = 1000

// cacheEntries is the capacity of the cache table, as progs.KVCache
// declares it.
const cacheEntries = 4096

// missR0 is what both stacks' programs return on a cache miss.
const missR0 = -1

// Map names, the same in both stacks.
const (
	mapCache = "cache"
	mapStats = "stats"
	mapFlows = "flows"
	mapPkts  = "pkts"
)

// The stats keys progs.KVCache counts hits and misses under.
const (
	statHits   = 1
	statMisses = 2
)

// createEBPFMaps creates the eBPF stack's maps. The verified stack owns its
// maps; programs reference them by name.
func createEBPFMaps(s *ebpf.Stack) error {
	for _, spec := range []maps.Spec{
		{Name: mapCache, Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: cacheEntries},
		{Name: mapStats, Type: maps.PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 4},
		{Name: mapFlows, Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: records},
		{Name: mapPkts, Type: maps.PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 1},
	} {
		if _, err := s.CreateMap(spec); err != nil {
			return fmt.Errorf("create map %s: %w", spec.Name, err)
		}
	}
	return nil
}

// ebpfProgram assembles the eBPF form of a program. The context carries the
// packet key at offset 0 and its length at offset 4.
func ebpfProgram(s *ebpf.Stack, name string, kind progKind) (*isa.Program, error) {
	lookup, ok := s.Helpers.ByName("bpf_map_lookup_elem")
	if !ok {
		return nil, fmt.Errorf("bpf_map_lookup_elem not registered")
	}
	call := isa.Call(int32(lookup.ID))
	var insns []isa.Instruction
	switch kind {
	case kindKV:
		// progs.KVCache: R7 is the cached value, 0 on a miss, and R8 the
		// stats index it counts under.
		insns = []isa.Instruction{
			isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0),
			isa.StoreMem(isa.SizeW, isa.R10, -4, isa.R6),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
			isa.LoadMapRef(isa.R1, mapCache),
			call,
			isa.Mov64Imm(isa.R7, 0),
			isa.JmpImm(isa.OpJeq, isa.R0, 0, 1),
			isa.LoadMem(isa.SizeDW, isa.R7, isa.R0, 0),
			isa.Mov64Imm(isa.R8, statHits),
			isa.JmpImm(isa.OpJne, isa.R7, 0, 1),
			isa.Mov64Imm(isa.R8, statMisses),
			isa.StoreMem(isa.SizeW, isa.R10, -8, isa.R8),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R2, -8),
			isa.LoadMapRef(isa.R1, mapStats),
			call,
			isa.JmpImm(isa.OpJeq, isa.R0, 0, 3),
			isa.LoadMem(isa.SizeDW, isa.R1, isa.R0, 0),
			isa.ALU64Imm(isa.OpAdd, isa.R1, 1),
			isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R1),
			isa.JmpImm(isa.OpJeq, isa.R7, 0, 3),
			isa.Mov64Reg(isa.R0, isa.R7),
			isa.ALU64Imm(isa.OpAnd, isa.R0, 0x7fffffff),
			isa.Exit(),
			isa.Mov64Imm(isa.R0, missR0),
			isa.Exit(),
		}
	case kindFlows:
		insns = []isa.Instruction{
			isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0),
			isa.LoadMem(isa.SizeW, isa.R7, isa.R1, 4),
			isa.StoreMem(isa.SizeW, isa.R10, -4, isa.R6),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
			isa.LoadMapRef(isa.R1, mapFlows),
			call,
			isa.JmpImm(isa.OpJeq, isa.R0, 0, 12),
			isa.AtomicAdd64(isa.R0, 0, isa.R7),
			isa.StoreImm(isa.SizeW, isa.R10, -8, 0),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R2, -8),
			isa.LoadMapRef(isa.R1, mapPkts),
			call,
			isa.JmpImm(isa.OpJeq, isa.R0, 0, 5),
			isa.LoadMem(isa.SizeDW, isa.R8, isa.R0, 0),
			isa.ALU64Imm(isa.OpAdd, isa.R8, 1),
			isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R8),
			isa.Mov64Imm(isa.R0, 1),
			isa.Exit(),
			isa.Mov64Imm(isa.R0, missR0),
			isa.Exit(),
		}
	}
	return &isa.Program{Name: name, Type: isa.Tracing, Insns: insns}, nil
}

// kvcacheSLX is progs.KVCache with one change: its statistics are per-CPU
// counters instead of one lock-guarded record. The sync section cannot run
// on two shards, because the simulated spin lock reports any contention
// as a deadlock; per-CPU counters are also how the eBPF form (and the X4
// packet filter) counts.
var kvcacheSLX = fmt.Sprintf(`
map cache: hash<u64, u64>(%d);
map stats: percpu_hash<u32, u64>(4);

fn main() -> i64 {
	let key = kernel::pkt_read_u32(0); // request key from the ctx buffer
	if key < 0 { return -2; }

	let hit = kernel::map_get(cache, key);
	if hit != 0 {
		kernel::map_inc(stats, %d, 1);
		return hit %% 2147483648;
	}
	kernel::map_inc(stats, %d, 1);
	return %d;
}
`, cacheEntries, statHits, statMisses, missR0)

// slxSource returns the SLX form of a program. The context is an skb whose
// payload carries the packet key at offset 0 and its length at offset 4.
// In the flow counter, keys and lengths never read as negative, so the
// guards only reject packets too short to carry a field.
func slxSource(kind progKind) string {
	if kind == kindKV {
		return kvcacheSLX
	}
	return fmt.Sprintf(`
map flows: hash<u64, u64>(%d);
map pkts: percpu_hash<u64, u64>(1);

fn main() -> i64 {
	let key = kernel::pkt_read_u32(0);
	if key < 0 { return %d; }
	let len = kernel::pkt_read_u32(4);
	if len < 0 { return %d; }
	kernel::map_inc(flows, key, len);
	kernel::map_inc(pkts, 0, 1);
	return 1;
}
`, records, missR0, missR0)
}
