// Package helpers implements the eBPF helper-function ecosystem: the
// registry of helper entry points with the metadata Figures 3 and 4 are
// computed from, executable implementations for the helpers the experiments
// exercise, and the deliberately reintroduced bugs of Table 1 (gated behind
// BugConfig) that make the §2.2 exploits reproducible.
//
// Helpers are the paper's "escape hatches": ordinary, unverified kernel
// functions reachable from verified bytecode. The verifier checks calls
// against each helper's argument specification — but only shallowly, which
// is precisely the weakness §2.2 demonstrates with bpf_sys_bpf.
package helpers

import "fmt"

// ID identifies a helper function, as used in CALL instruction immediates.
type ID int32

// ArgType describes what the verifier requires of one helper argument.
// The list follows the kernel's bpf_arg_type, reduced to the cases the
// reproduction exercises.
type ArgType int

const (
	// ArgAnything accepts any initialized value.
	ArgAnything ArgType = iota
	// ArgScalar requires a non-pointer value.
	ArgScalar
	// ArgConstMapHandle requires a map handle loaded by LDDW.
	ArgConstMapHandle
	// ArgPtrToMapKey requires a readable buffer of the map's key size.
	ArgPtrToMapKey
	// ArgPtrToMapValue requires a readable buffer of the map's value size.
	ArgPtrToMapValue
	// ArgPtrToMem requires a readable buffer whose size is given by the
	// following ArgConstSize argument.
	ArgPtrToMem
	// ArgPtrToUninitMem is ArgPtrToMem for write-only output buffers.
	ArgPtrToUninitMem
	// ArgConstSize is the byte length for a preceding ArgPtrToMem; must be
	// a known-bounded scalar > 0.
	ArgConstSize
	// ArgConstSizeOrZero is ArgConstSize but zero is allowed.
	ArgConstSizeOrZero
	// ArgPtrToCtx requires the program context pointer.
	ArgPtrToCtx
	// ArgPtrToStack requires a pointer into the program's own stack.
	ArgPtrToStack
	// ArgPtrToLock requires a pointer to a map value holding a spin lock.
	ArgPtrToLock
	// ArgPtrToSock requires a socket pointer previously acquired from a
	// sk_lookup helper and not yet released.
	ArgPtrToSock
	// ArgPtrToTask requires a task pointer (e.g. from get_current_task).
	// Verifier checking is shallow: NULL-ness is the callee's problem,
	// which is the task_storage_get bug.
	ArgPtrToTask
	// ArgPtrToUnion requires a pointer to a union-typed buffer. The
	// verifier checks only that the buffer is readable at the declared
	// size; it does not inspect pointer fields *inside* the union. This is
	// the exact weakness behind CVE-2022-2785 (bpf_sys_bpf).
	ArgPtrToUnion
	// ArgPtrToFunc requires a BPF-to-BPF callback target (bpf_loop,
	// bpf_for_each_map_elem).
	ArgPtrToFunc
)

func (a ArgType) String() string {
	names := map[ArgType]string{
		ArgAnything: "anything", ArgScalar: "scalar", ArgConstMapHandle: "map",
		ArgPtrToMapKey: "map_key", ArgPtrToMapValue: "map_value", ArgPtrToMem: "mem",
		ArgPtrToUninitMem: "uninit_mem", ArgConstSize: "size", ArgConstSizeOrZero: "size_or_zero",
		ArgPtrToCtx: "ctx", ArgPtrToStack: "stack", ArgPtrToLock: "spin_lock",
		ArgPtrToSock: "sock", ArgPtrToTask: "task", ArgPtrToUnion: "union", ArgPtrToFunc: "func",
	}
	if n, ok := names[a]; ok {
		return n
	}
	return fmt.Sprintf("argtype(%d)", int(a))
}

// RetType describes what the verifier may assume about a helper's return
// value.
type RetType int

const (
	// RetInteger returns a scalar.
	RetInteger RetType = iota
	// RetVoid returns nothing usable.
	RetVoid
	// RetMapValueOrNull returns a pointer to a map value or NULL; the
	// program must null-check before dereferencing.
	RetMapValueOrNull
	// RetSockOrNull returns a referenced socket pointer or NULL; the
	// program must release it via bpf_sk_release.
	RetSockOrNull
	// RetMemOrNull returns a pointer to fixed-size memory or NULL (e.g.
	// ringbuf_reserve), which must be submitted or discarded.
	RetMemOrNull
)

// Spec is the registry entry for one helper: identity, verifier contract,
// and the metadata the paper's figures measure.
type Spec struct {
	ID   ID
	Name string

	Args []ArgType
	Ret  RetType

	// Since is the kernel version that introduced the helper ("v4.14"),
	// driving Figure 4.
	Since string

	// CallGraphNodes is the number of unique functions in the helper's
	// call graph per the Linux 5.18 static analysis, driving Figure 3.
	CallGraphNodes int

	// AcquiresRef and ReleasesRef mark helpers that take or drop counted
	// references, which the verifier must pair (reference tracking).
	AcquiresRef bool
	ReleasesRef bool

	// Impl executes the helper. Metadata-only registry entries (most of
	// the 249) have a nil Impl; calling one is an ErrUnimplemented.
	Impl Func `json:"-"`

	// slot caches the helper's count slot (see Calls); the registry sets
	// it up at registration.
	slot *callSlot
}

// Func is a helper implementation: five untyped argument registers in, R0
// out. A returned error aborts the program; if the helper crashed the
// kernel the error is (or wraps) ErrKernelCrash.
type Func func(env *Env, args [5]uint64) (uint64, error)

// Sentinel errors for helper execution.
var (
	// ErrKernelCrash reports that the helper performed an invalid memory
	// access: the kernel has oopsed and the program is dead.
	ErrKernelCrash = fmt.Errorf("helpers: kernel crashed in helper")
	// ErrUnimplemented reports a call to a metadata-only helper.
	ErrUnimplemented = fmt.Errorf("helpers: helper not implemented")
	// ErrAbort reports a non-crash fatal condition (e.g. tail-call depth).
	ErrAbort = fmt.Errorf("helpers: program aborted")
)
