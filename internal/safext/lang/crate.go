package lang

import "sort"

// CrateArgKind classifies kernel-crate parameter kinds. The crate is the
// trusted interface layer of §3.1: SLX programs can only reach the kernel
// through these typed entry points, never raw helpers.
type CrateArgKind int

const (
	// CrateInt is any integer scalar.
	CrateInt CrateArgKind = iota
	// CrateStr is a string literal (materialised into rodata).
	CrateStr
	// CrateMap is a declared map name.
	CrateMap
	// CrateBuf is a byte-array variable, passed as (address, length).
	CrateBuf
	// CrateSock is a scoped socket handle.
	CrateSock
)

// CrateFunc describes one kernel-crate entry point.
type CrateFunc struct {
	Name string
	Args []CrateArgKind
	Ret  Type
	// VariadicInts permits up to three extra integer arguments (trace).
	VariadicInts bool
	// AcquiresSock marks functions returning a scoped socket handle that
	// the compiler must release at scope exit.
	AcquiresSock bool
	// MapKind restricts the map argument ("" = any keyed map).
	MapKind string
}

// InternalCrate lists the crate entry points the compiler emits on its own
// (never callable from source): the trap path, the scoped-lock pair behind
// the sync construct, and the scope-exit socket release.
var InternalCrate = []string{"trap", "lock_acquire", "lock_release", "sock_release"}

// CrateIDBase is the helper-ID space where the kernel crate lives,
// disjoint from the standard helper registry.
const CrateIDBase = 1000

// CrateID returns the stable helper ID of a crate function (public ones in
// sorted-name order, then the internal ones). The compiler emits these IDs
// and the runtime registers the implementations at them.
func CrateID(name string) (int32, bool) {
	id, ok := crateIDs[name]
	return id, ok
}

// CrateNames returns every crate entry point in ID order.
func CrateNames() []string {
	return append([]string(nil), crateNames...)
}

// crateNames and crateIDs are the ID table, built once from Crate and
// InternalCrate, which nothing modifies.
var (
	crateNames = buildCrateNames()
	crateIDs   = buildCrateIDs(crateNames)
)

func buildCrateNames() []string {
	names := make([]string, 0, len(Crate)+len(InternalCrate))
	for n := range Crate {
		names = append(names, n)
	}
	sort.Strings(names)
	return append(names, InternalCrate...)
}

func buildCrateIDs(names []string) map[string]int32 {
	ids := make(map[string]int32, len(names))
	for i, n := range names {
		ids[n] = CrateIDBase + int32(i)
	}
	return ids
}

// Crate is the kernel-crate interface: the complete list of typed entry
// points available to SLX programs. Compare its size with the 249-helper
// surface of the eBPF stack — §3.2's "reduced escape hatches".
var Crate = map[string]CrateFunc{
	"ktime":    {Name: "ktime", Ret: Type{Kind: TypeU64}},
	"pid_tgid": {Name: "pid_tgid", Ret: Type{Kind: TypeU64}},
	"uid":      {Name: "uid", Ret: Type{Kind: TypeU64}},
	"cpu":      {Name: "cpu", Ret: Type{Kind: TypeU64}},
	"rand":     {Name: "rand", Ret: Type{Kind: TypeU64}},
	"comm":     {Name: "comm", Args: []CrateArgKind{CrateBuf}, Ret: Type{Kind: TypeI64}},
	"trace":    {Name: "trace", Args: []CrateArgKind{CrateStr}, VariadicInts: true, Ret: Type{Kind: TypeI64}},
	"signal":   {Name: "signal", Args: []CrateArgKind{CrateInt}, Ret: Type{Kind: TypeI64}},

	"map_get": {Name: "map_get", Args: []CrateArgKind{CrateMap, CrateInt}, Ret: Type{Kind: TypeU64}},
	"map_set": {Name: "map_set", Args: []CrateArgKind{CrateMap, CrateInt, CrateInt}, Ret: Type{Kind: TypeI64}},
	"map_del": {Name: "map_del", Args: []CrateArgKind{CrateMap, CrateInt}, Ret: Type{Kind: TypeI64}},
	"map_inc": {Name: "map_inc", Args: []CrateArgKind{CrateMap, CrateInt, CrateInt}, Ret: Type{Kind: TypeU64}},

	"emit": {Name: "emit", Args: []CrateArgKind{CrateMap, CrateBuf}, Ret: Type{Kind: TypeI64}, MapKind: "ringbuf"},

	"sk_lookup_tcp": {Name: "sk_lookup_tcp", Args: []CrateArgKind{CrateInt, CrateInt, CrateInt, CrateInt}, Ret: Type{Kind: TypeSock}, AcquiresSock: true},
	"sk_lookup_udp": {Name: "sk_lookup_udp", Args: []CrateArgKind{CrateInt, CrateInt, CrateInt, CrateInt}, Ret: Type{Kind: TypeSock}, AcquiresSock: true},
	"sk_ok":         {Name: "sk_ok", Args: []CrateArgKind{CrateSock}, Ret: Type{Kind: TypeBool}},
	"sk_mark":       {Name: "sk_mark", Args: []CrateArgKind{CrateSock, CrateInt}, Ret: Type{Kind: TypeI64}},

	"str_parse": {Name: "str_parse", Args: []CrateArgKind{CrateBuf}, Ret: Type{Kind: TypeI64}},
	"str_eq":    {Name: "str_eq", Args: []CrateArgKind{CrateBuf, CrateStr}, Ret: Type{Kind: TypeBool}},

	// Dynamic allocation (§4): a pre-allocated per-CPU pool behind a safe
	// handle interface. Handles are validated by the crate on every
	// access; unfreed allocations are reclaimed by safe termination.
	"mem_alloc": {Name: "mem_alloc", Args: []CrateArgKind{CrateInt}, Ret: Type{Kind: TypeI64}},
	"mem_free":  {Name: "mem_free", Args: []CrateArgKind{CrateInt}, Ret: Type{Kind: TypeI64}},
	"mem_get":   {Name: "mem_get", Args: []CrateArgKind{CrateInt, CrateInt}, Ret: Type{Kind: TypeI64}},
	"mem_set":   {Name: "mem_set", Args: []CrateArgKind{CrateInt, CrateInt, CrateInt}, Ret: Type{Kind: TypeI64}},

	"pkt_len":      {Name: "pkt_len", Ret: Type{Kind: TypeU64}},
	"pkt_read_u8":  {Name: "pkt_read_u8", Args: []CrateArgKind{CrateInt}, Ret: Type{Kind: TypeI64}},
	"pkt_read_u16": {Name: "pkt_read_u16", Args: []CrateArgKind{CrateInt}, Ret: Type{Kind: TypeI64}},
	"pkt_read_u32": {Name: "pkt_read_u32", Args: []CrateArgKind{CrateInt}, Ret: Type{Kind: TypeI64}},
	"pkt_write_u8": {Name: "pkt_write_u8", Args: []CrateArgKind{CrateInt, CrateInt}, Ret: Type{Kind: TypeI64}},
}
