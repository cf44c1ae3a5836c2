package exec

import (
	"fmt"
	"strings"
	"time"

	"kex/internal/ebpf/helpers"
	"kex/internal/kernel"
)

// Report describes one program invocation through the execution core, for
// both stacks. It is the invocation's one record: Stats folds it in.
type Report struct {
	// Program and Engine identify what ran and on which engine
	// ("interp" or "jit").
	Program string
	Engine  string

	// R0 is the program's return register at exit.
	R0 uint64

	// Instructions counts every instruction retired in the invocation's
	// kernel context — the program's own plus virtual work charged by
	// helpers (Env.Charge).
	Instructions uint64

	// FuelUsed counts only the program's own retired instructions, the
	// quantity the fuel meter decrements. Zero-fuel runs still report it.
	FuelUsed uint64

	// HelperCalls counts helper invocations by helper count slot; read
	// one helper's count with HelperCalls.Get(name). Nil when the program
	// called no helpers.
	HelperCalls helpers.Calls

	// MapOps counts map operations performed by helpers on the program's
	// behalf (handle resolutions through Env.MapByHandle).
	MapOps uint64

	// RuntimeNs is the invocation's latency in virtual time: what its own
	// context consumed from after the Setup hook to the engine's return —
	// the figure watchdog/RCU-stall semantics are defined over. Other
	// shards' work, which the kernel clock also carries, never enters it.
	RuntimeNs int64

	// WallNs is the invocation's monotonic wall-clock latency, the figure
	// performance work should quote: its equal share of its batch's span
	// (Core.RunBatch), the whole dispatch's for Core.Run. Virtual and wall
	// time diverge by design: the simulator charges fixed virtual costs per
	// instruction.
	WallNs int64

	// CPUTimeNs is all the virtual CPU time the invocation's own context
	// consumed (instructions × per-instruction cost). It differs from
	// RuntimeNs only by what the Setup and Finish hooks and the exit audit
	// charged, serial or sharded. Per-shard busy-time accounting — and the
	// simulated-throughput math built on it — uses this figure.
	CPUTimeNs int64

	// Trace accumulates bpf_trace_printk / kernel::trace output.
	Trace []string

	// ExitOopses is the kernel damage the exit audit attributed to this
	// invocation (leaked references, held locks, RCU nesting).
	ExitOopses []*kernel.Oops

	// Supervision is empty for unsupervised runs. Under a Supervisor it
	// holds the program's health state after this invocation was
	// accounted ("healthy", "degraded", ...), or "denied" when the
	// dispatch never reached the engine because the program was
	// quarantined.
	Supervision string

	// Fallback marks a denied dispatch that was served the supervisor's
	// fallback R0 = 0 instead of running the program.
	Fallback bool
}

// Phase is one timed step of a loading pipeline (e.g. "verify",
// "jit-compile", "signature-validate").
type Phase struct {
	Name   string
	WallNs int64
}

// PhaseTimings is an ordered sequence of load phases.
type PhaseTimings []Phase

// TotalNs sums the phase durations.
func (pt PhaseTimings) TotalNs() int64 {
	var total int64
	for _, p := range pt {
		total += p.WallNs
	}
	return total
}

// String renders the timings as "verify 123µs · jit-compile 45µs".
func (pt PhaseTimings) String() string {
	parts := make([]string, 0, len(pt))
	for _, p := range pt {
		parts = append(parts, fmt.Sprintf("%s %.1fµs", p.Name, float64(p.WallNs)/1e3))
	}
	return strings.Join(parts, " · ")
}

// PhaseRecorder measures consecutive load-pipeline phases with a monotonic
// clock. Mark closes the current phase and starts the next.
type PhaseRecorder struct {
	phases PhaseTimings
	last   time.Time
}

// NewPhaseRecorder starts timing at the first phase boundary.
func NewPhaseRecorder() *PhaseRecorder {
	return &PhaseRecorder{last: time.Now()}
}

// Mark records the time since the previous mark (or construction) as one
// named phase.
func (r *PhaseRecorder) Mark(name string) {
	now := time.Now()
	r.phases = append(r.phases, Phase{Name: name, WallNs: now.Sub(r.last).Nanoseconds()})
	r.last = now
}

// Phases returns the recorded timings.
func (r *PhaseRecorder) Phases() PhaseTimings { return r.phases }
