// Package kex is the public API of the reproduction: one import that
// exposes both worlds the paper compares —
//
//   - the verified-eBPF stack (Figure 1): bytecode programs checked by an
//     in-kernel-style verifier, JIT compiled, interacting with the kernel
//     through 249 helper functions; and
//   - the safext framework (Figure 5): extensions written in the safe SLX
//     language, compiled and signed by a trusted userspace toolchain,
//     loaded after a signature check, and run under lightweight runtime
//     protection (fuel, watchdog, trusted-cleanup termination).
//
// Both stacks run on the same simulated kernel, so their safety and
// performance behaviour is directly comparable. See the examples directory
// for runnable walkthroughs and DESIGN.md for the architecture.
package kex

import (
	"kex/internal/ebpf"
	"kex/internal/ebpf/asm"
	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/ebpf/verifier"
	"kex/internal/exec"
	"kex/internal/faultinject"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

// ---- simulated kernel -------------------------------------------------------

// Kernel is the simulated kernel both extension stacks run on.
type Kernel = kernel.Kernel

// KernelConfig tunes the simulated kernel (CPU count, detector timeouts).
type KernelConfig = kernel.Config

// Oops is a simulated kernel crash report.
type Oops = kernel.Oops

// Task is a simulated kernel task.
type Task = kernel.Task

// Socket is a simulated kernel socket.
type Socket = kernel.Socket

// Region is a mapped range of the simulated kernel address space.
type Region = kernel.Region

// Memory protection bits for Kernel.Mem.Map.
const (
	MemRead  = kernel.ProtRead
	MemWrite = kernel.ProtWrite
	MemRW    = kernel.ProtRW
)

// NewKernel boots a simulated kernel with default configuration.
func NewKernel() *Kernel { return kernel.NewDefault() }

// NewKernelWithConfig boots a simulated kernel with explicit configuration.
func NewKernelWithConfig(cfg KernelConfig) *Kernel { return kernel.New(cfg) }

// DefaultKernelConfig mirrors a stock kernel configuration.
func DefaultKernelConfig() KernelConfig { return kernel.DefaultConfig() }

// ---- the verified-eBPF stack ---------------------------------------------------

// EBPFStack is one kernel's eBPF subsystem: verifier, maps, helpers, JIT.
type EBPFStack = ebpf.Stack

// Program is a bytecode extension program.
type Program = isa.Program

// Instruction is one bytecode instruction.
type Instruction = isa.Instruction

// LoadedProgram is a verified, relocated, compiled program.
type LoadedProgram = ebpf.Loaded

// EBPFRunOptions tunes one verified-program invocation.
type EBPFRunOptions = ebpf.RunOptions

// RunReport describes one verified-program invocation. It is the shared
// execution core's report (see internal/exec): R0, instruction count,
// virtual- and wall-clock latency, per-helper call counts, map-operation
// counts, fuel usage and exit-audit oopses.
type RunReport = ebpf.RunReport

// MapSpec declares an eBPF map.
type MapSpec = maps.Spec

// Map is an eBPF map.
type Map = maps.Map

// VerifierConfig selects verifier features and budgets.
type VerifierConfig = verifier.Config

// HelperBugs selects which reintroduced helper bugs are live.
type HelperBugs = helpers.BugConfig

// VerifierBugs selects which reintroduced verifier bugs are live.
type VerifierBugs = verifier.BugConfig

// Map type constants.
const (
	MapArray       = maps.Array
	MapHash        = maps.Hash
	MapPerCPUArray = maps.PerCPUArray
	MapPerCPUHash  = maps.PerCPUHash
	MapLRUHash     = maps.LRUHash
	MapRingBuf     = maps.RingBuf
	MapQueue       = maps.Queue
)

// Program type constants.
const (
	ProgSocketFilter = isa.SocketFilter
	ProgXDP          = isa.XDP
	ProgTracing      = isa.Tracing
	ProgSyscall      = isa.Syscall
)

// NewEBPFStack boots the verified-eBPF subsystem on a kernel.
func NewEBPFStack(k *Kernel) *EBPFStack { return ebpf.NewStack(k) }

// Assemble parses bytecode assembly text against a stack's helper
// registry, so programs can be written as readable listings.
func Assemble(s *EBPFStack, src string) ([]Instruction, error) {
	return asm.Assemble(src, s.Helpers)
}

// Disassemble renders instructions as assembly text.
func Disassemble(insns []Instruction) string { return asm.Disassemble(insns) }

// ---- the safext framework --------------------------------------------------------

// SafeRuntime hosts safext extensions: signature-checked loading and
// runtime-protected execution.
type SafeRuntime = runtime.Runtime

// SafeRuntimeConfig tunes the runtime protections.
type SafeRuntimeConfig = runtime.Config

// Extension is a loaded safext extension.
type Extension = runtime.Extension

// Verdict describes one safext invocation.
type Verdict = runtime.Verdict

// SafeRunOptions tunes one safext invocation.
type SafeRunOptions = runtime.RunOptions

// Signer is the trusted toolchain identity that compiles and signs SLX.
type Signer = toolchain.Signer

// SignedObject is a compiled, signed extension object.
type SignedObject = toolchain.SignedObject

// NewSafeRuntime boots the safext runtime on a kernel.
func NewSafeRuntime(k *Kernel, cfg SafeRuntimeConfig) *SafeRuntime {
	return runtime.New(k, cfg)
}

// DefaultSafeRuntimeConfig mirrors sensible production protections.
func DefaultSafeRuntimeConfig() SafeRuntimeConfig { return runtime.DefaultConfig() }

// NewSigner generates a fresh toolchain signing identity.
func NewSigner() (*Signer, error) { return toolchain.NewSigner() }

// ---- the shared execution core ---------------------------------------------------

// ExecStats is the shared execution core's accumulator: per-program and
// per-CPU invocation counters plus cumulative load-phase timings. Both
// stacks expose one at Stats (EBPFStack) / Core.Stats (SafeRuntime).
type ExecStats = exec.Stats

// ExecSnapshot is a consistent copy of an ExecStats.
type ExecSnapshot = exec.Snapshot

// ExecProgramStats aggregates invocations of one program.
type ExecProgramStats = exec.ProgramStats

// PhaseTimings is an ordered list of load-pipeline phase durations
// (verify/relocate/jit-compile for eBPF; parse/typecheck/compile/sign/
// validate/fixup for safext).
type PhaseTimings = exec.PhaseTimings

// ---- the sharded data plane --------------------------------------------------------

// Sharded is the per-CPU sharded data plane over a stack's execution
// core: one submission ring and worker per simulated CPU. Build one with
// NewSharded on either stack (a method of the core both embed), submit
// Batch values to a shard, and read aggregate progress via
// Completed/BusyNs/MaxBusyNs. Batches pass the core's supervisor gate
// whenever the stack is supervised, even if the plane was built first.
type Sharded = exec.Sharded

// ShardedConfig sizes the sharded data plane (shard count, ring size).
type ShardedConfig = exec.ShardedConfig

// Batch is one unit of sharded submission: requests run back-to-back on
// one shard's CPU, with an optional completion callback.
type Batch = exec.Batch

// BatchResult pairs one batched invocation's report with its error.
type BatchResult = exec.BatchResult

// Sharded submission errors: a full ring (non-blocking Submit) and a
// closed plane.
var (
	ErrRingFull      = exec.ErrRingFull
	ErrShardedClosed = exec.ErrShardedClosed
)

// ---- supervision and fault injection ----------------------------------------------

// Supervisor is the gate of a stack's execution core: a per-program
// circuit breaker, exponential-backoff quarantine and graceful
// degradation (a quarantined program's dispatches are denied and served
// R0 = 0) on every dispatch, whether through Run, RunBatch or a Sharded
// plane. Install it with Supervise on either stack (a method of
// the core both embed) and read it back with Supervisor.
type Supervisor = exec.Supervisor

// SupervisorConfig tunes the circuit breaker and recovery schedule.
type SupervisorConfig = exec.SupervisorConfig

// SupervisorState is one health state ("healthy", "degraded",
// "quarantined", "recovered").
type SupervisorState = exec.State

// DefaultSupervisorConfig mirrors sensible production settings.
func DefaultSupervisorConfig() SupervisorConfig { return exec.DefaultSupervisorConfig() }

// FaultPlan describes a deterministic fault campaign; FaultRule arms one
// injection site. Build an injector with NewFaultInjector and arm it with
// AttachFaults.
type FaultPlan = faultinject.Plan

// FaultRule gates one injection site by name, probability and max count.
type FaultRule = faultinject.Rule

// FaultInjector makes a campaign's injection decisions, reproducibly from
// (seed, plan).
type FaultInjector = faultinject.Injector

// FaultEvent is one recorded injection.
type FaultEvent = faultinject.Event

// Fault-injection sites.
const (
	FaultHelperError = faultinject.SiteHelperError
	FaultHelperCrash = faultinject.SiteHelperCrash
	FaultMapUpdate   = faultinject.SiteMapUpdate
	FaultMapAlloc    = faultinject.SiteMapAlloc
	FaultFuel        = faultinject.SiteFuel
	FaultWatchdog    = faultinject.SiteWatchdog
)

// NewFaultInjector builds a deterministic injector for one campaign.
func NewFaultInjector(seed uint64, plan FaultPlan) *FaultInjector {
	return faultinject.New(seed, plan)
}

// AttachFaults arms a campaign on a stack's execution core (both
// EBPFStack and SafeRuntime embed one at .Core).
func AttachFaults(core *exec.Core, inj *FaultInjector) { faultinject.Attach(core, inj) }

// DetachFaults disarms fault injection on the core.
func DetachFaults(core *exec.Core) { faultinject.Detach(core) }

// BuildSLX compiles SLX source without signing, for inspection.
func BuildSLX(name, src string) (insnCount int, capabilities []string, err error) {
	obj, err := toolchain.Build(name, src)
	if err != nil {
		return 0, nil, err
	}
	return len(obj.Insns), obj.Capabilities, nil
}
