package helpers

import (
	"fmt"

	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
	"kex/internal/rng"
)

// BugConfig gates the deliberately reintroduced helper bugs used by the
// Table 1 corpus and the §2.2 exploits. The zero value is the "all fixed"
// configuration; experiments enable the bug they demonstrate.
type BugConfig struct {
	// SysBpfNullDeref reproduces CVE-2022-2785: bpf_sys_bpf dereferences a
	// pointer field inside its union argument without a NULL check.
	SysBpfNullDeref bool
	// TaskStorageNullDeref reproduces the bpf_task_storage_get owner-NULL
	// bug (commit 1a9c72ad4c26): a NULL task pointer is dereferenced.
	TaskStorageNullDeref bool
	// GetTaskStackRefLeak reproduces commit 06ab134ce8ec: the helper walks
	// a task stack without taking a reference, racing with task exit.
	GetTaskStackRefLeak bool
	// SkLookupRefLeak reproduces commit 3046a827316c: an internal lookup
	// path acquires a reference it never hands to the program, leaking one
	// count per call.
	SkLookupRefLeak bool
	// StrtolOverflow reproduces the integer-overflow class of Table 1:
	// out-of-range input wraps instead of saturating with -ERANGE.
	StrtolOverflow bool
	// RingbufDoubleSubmit omits the reservation-ownership check, so a
	// program can submit a bogus record address (misc memory corruption).
	RingbufDoubleSubmit bool
}

// FaultHook is the fault-injection seam at the helper-dispatch boundary.
// When installed on an Env, both engines consult it after counting a helper
// call and before running the helper's implementation. Returning
// injected=true short-circuits the real helper with the given (r0, err)
// pair; a hook that wants to simulate a helper crash records the oops on
// env.K itself (so panic-on-oops semantics apply) and returns an
// ErrKernelCrash-wrapping error. internal/faultinject implements it.
type FaultHook interface {
	HelperCall(env *Env, name string) (r0 uint64, err error, injected bool)
}

// Env is the kernel-side environment one program execution sees. Helpers
// do all their kernel work through it. An Env serves one run at a time:
// the execution core reuses one per run frame, resetting it in place
// (Reset) between runs, so nothing may retain an Env past the run it was
// handed to.
type Env struct {
	K    *kernel.Kernel
	Ctx  *kernel.Context
	Maps *maps.Registry
	Bugs BugConfig

	// CtxAddr is the address of the program's context object (e.g. the
	// skb), what R1 points to at entry.
	CtxAddr uint64

	// CallFunc re-enters the execution engine to run a BPF-to-BPF function
	// starting at instruction element pc, used by callback helpers
	// (bpf_loop, bpf_for_each_map_elem). Engines install it.
	CallFunc func(pc int32, r1, r2, r3 uint64) (uint64, error)

	// TailCall restarts execution in another program of the attached
	// program array. Engines install it; depth limiting is the engine's
	// job (the kernel allows 33).
	TailCall func(index uint64) error

	// LockTable maps a map-value address to its spin lock. It is built on
	// the first LockAt of a run and dropped by Reset, so it lives for one
	// run only: bpf_spin_lock on one map value excludes within a run but
	// never across runs or shards (DESIGN §3.5, known limit).
	LockTable map[uint64]*kernel.SpinLock

	// Trace accumulates bpf_trace_printk output.
	Trace []string

	// Scratch carries engine-specific per-run state (the safext runtime
	// hangs its resource-record table here); helper code that does not
	// know about it must leave it alone.
	Scratch any

	// Fault, when non-nil, intercepts helper dispatch for fault-injection
	// campaigns. Nil (the default) costs one pointer compare per call.
	Fault FaultHook

	// HelperCalls counts helper invocations by count slot. Engines bump
	// it via CountCall; the execution core copies it into its Report
	// and Stats. Its backing array is kept across Reset.
	HelperCalls Calls

	// MapOps counts map-handle resolutions (MapByHandle), the common
	// entry to every map operation a helper performs.
	MapOps uint64

	// FuelUsed is the count of program-retired instructions — the fuel
	// meter's view, excluding helper-charged virtual work. Engines
	// publish it at the end of a run whether or not fuel was limited.
	FuelUsed uint64

	// randState drives bpf_get_prandom_u32 deterministically.
	randState rng.Star

	// keyBuf backs KeyBuf; Reset keeps it.
	keyBuf []byte
}

// randSeed starts every run's bpf_get_prandom_u32 stream.
const randSeed rng.Star = 0x2545F4914F6CDD1D

// NewEnv builds an execution environment on the given kernel and maps.
func NewEnv(k *kernel.Kernel, ctx *kernel.Context, reg *maps.Registry) *Env {
	e := &Env{}
	e.Reset(k, ctx, reg)
	return e
}

// Reset returns the environment to the state NewEnv builds, for a new run
// in ctx. It keeps the backing array of the helper counts, so a reused Env
// costs no allocation per run; the trace is not reused, because a report
// takes it over.
func (e *Env) Reset(k *kernel.Kernel, ctx *kernel.Context, reg *maps.Registry) {
	clear(e.HelperCalls)
	*e = Env{
		K: k, Ctx: ctx, Maps: reg,
		HelperCalls: e.HelperCalls[:0],
		randState:   randSeed,
		keyBuf:      e.keyBuf,
	}
}

// crash records the fault as a kernel oops and returns ErrKernelCrash.
func (e *Env) crash(f *kernel.Fault) error {
	e.K.FaultOops(f, e.Ctx.CPUID)
	return ErrKernelCrash
}

// ReadMem reads size bytes of kernel memory, crashing the kernel on fault —
// helpers run in kernel mode, so their bad accesses are oopses, not
// recoverable errors.
func (e *Env) ReadMem(addr, size uint64) ([]byte, error) {
	b, f := e.K.Mem.Read(addr, size)
	if f != nil {
		return nil, e.crash(f)
	}
	return b, nil
}

// KeyBuf returns an n-byte buffer the Env reuses for map keys, so a helper
// can build or read a key without allocating. The buffer is valid until
// the next KeyBuf, which suits map operations that do not retain their key
// (Lookup, Delete; Update copies it).
func (e *Env) KeyBuf(n int) []byte {
	if cap(e.keyBuf) < n {
		e.keyBuf = make([]byte, n)
	}
	return e.keyBuf[:n]
}

// readKey reads a map key like ReadMem, into KeyBuf.
func (e *Env) readKey(addr, size uint64) ([]byte, error) {
	key := e.KeyBuf(int(size))
	if f := e.K.Mem.ReadInto(addr, key); f != nil {
		return nil, e.crash(f)
	}
	return key, nil
}

// WriteMem writes kernel memory, crashing on fault.
func (e *Env) WriteMem(addr uint64, data []byte) error {
	if f := e.K.Mem.Write(addr, data); f != nil {
		return e.crash(f)
	}
	return nil
}

// LoadUint reads an integer, crashing on fault.
func (e *Env) LoadUint(addr uint64, size int) (uint64, error) {
	v, f := e.K.Mem.LoadUint(addr, size)
	if f != nil {
		return 0, e.crash(f)
	}
	return v, nil
}

// StoreUint writes an integer, crashing on fault.
func (e *Env) StoreUint(addr uint64, size int, v uint64) error {
	if f := e.K.Mem.StoreUint(addr, size, v); f != nil {
		return e.crash(f)
	}
	return nil
}

// Charge accounts n instructions' worth of work to the running context —
// helpers that do real work (loops, copies) consume time like the program
// itself, which is what lets bpf_loop drive the RCU-stall experiment.
func (e *Env) Charge(n uint64) { e.Ctx.Tick(n) }

// Rand returns the next deterministic pseudo-random u32 (xorshift*).
func (e *Env) Rand() uint32 {
	return uint32(e.randState.Next() >> 32)
}

// LockAt returns the spin lock backing the given map-value address,
// creating it on first use.
func (e *Env) LockAt(addr uint64) *kernel.SpinLock {
	if l, ok := e.LockTable[addr]; ok {
		return l
	}
	if e.LockTable == nil {
		e.LockTable = make(map[uint64]*kernel.SpinLock)
	}
	l := e.K.LockDep().NewLock(fmt.Sprintf("bpf_spin_lock@%#x", addr))
	e.LockTable[addr] = l
	return l
}

// CountHelper accounts one invocation of the named helper.
func (e *Env) CountHelper(name string) { e.count(slotOf(name)) }

// CountCall accounts one invocation of the helper, by its cached count
// slot: the engines' per-call path.
func (e *Env) CountCall(spec *Spec) { e.count(spec.countSlot()) }

func (e *Env) count(slot int) { e.HelperCalls = e.HelperCalls.add(slot, 1) }

// MapByHandle resolves a map handle argument, failing like the kernel
// (with an abort, not a crash) when the handle is bogus.
func (e *Env) MapByHandle(h uint64) (maps.Map, error) {
	e.MapOps++
	m, ok := e.Maps.ByHandle(h)
	if !ok {
		return nil, fmt.Errorf("%w: bad map handle %#x", ErrAbort, h)
	}
	return m, nil
}
