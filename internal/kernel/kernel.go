package kernel

import (
	"fmt"
	"sync"
)

// Config controls simulated-kernel policy knobs that correspond to real
// kernel build/boot options relevant to the paper's experiments.
type Config struct {
	// NumCPU is the number of simulated CPUs (per-CPU maps, RCU readers).
	NumCPU int
	// PanicOnOops makes every Oops a KernelPanic, like oops=panic.
	PanicOnOops bool
	// RCUStallTimeout is the virtual time a single RCU read-side critical
	// section may last before the stall detector fires. Linux defaults to
	// 21s; the simulator defaults to the same value in virtual time.
	RCUStallTimeout int64
	// SoftLockupTimeout is the virtual time a context may run without
	// yielding before the soft-lockup watchdog fires.
	SoftLockupTimeout int64
}

// DefaultConfig mirrors a stock kernel configuration.
func DefaultConfig() Config {
	return Config{
		NumCPU:            4,
		RCUStallTimeout:   21_000_000_000, // 21s, CONFIG_RCU_CPU_STALL_TIMEOUT default
		SoftLockupTimeout: 20_000_000_000, // 20s, watchdog_thresh*2 default
	}
}

// Kernel is one simulated kernel instance: address space, CPUs, tasks, RCU
// machinery, lock dependency tracking, and the oops log. A Kernel is the
// shared substrate both extension stacks (verified eBPF and safext) run on,
// which is what makes their behaviour comparable.
type Kernel struct {
	Cfg   Config
	Clock *Clock
	Mem   *AddressSpace
	Syms  *SymTable

	mu         sync.Mutex
	cpus       []*CPU
	tasks      map[int]*Task
	taskByAddr map[uint64]*Task
	nextPID    int
	oopses     []*Oops
	rcu        *RCUState
	lockdep    *LockDep
	refs       *RefRegistry
	sockets    *SocketTable

	// Stats counts notable kernel events for the experiment harnesses.
	Stats Stats
}

// Stats aggregates kernel events observed during a run.
type Stats struct {
	Faults      int
	Oopses      int
	RCUStalls   int
	SoftLockups int
	RefLeaks    int
}

// CPU models one logical processor: its run state and per-CPU scratch
// storage (used by per-CPU maps and the safext unwind pool).
type CPU struct {
	ID int
	// Scratch is a per-CPU region usable by runtimes for allocation-free
	// storage, mirroring the paper's "dedicated per-CPU region".
	Scratch *Region
	// current is the task running on this CPU, if any.
	current *Task
}

// New boots a simulated kernel with the given configuration.
func New(cfg Config) *Kernel {
	if cfg.NumCPU <= 0 {
		cfg.NumCPU = 1
	}
	if cfg.RCUStallTimeout <= 0 {
		cfg.RCUStallTimeout = DefaultConfig().RCUStallTimeout
	}
	if cfg.SoftLockupTimeout <= 0 {
		cfg.SoftLockupTimeout = DefaultConfig().SoftLockupTimeout
	}
	k := &Kernel{
		Cfg:        cfg,
		Clock:      NewClock(cfg.NumCPU),
		Mem:        NewAddressSpace(),
		Syms:       NewSymTable(),
		tasks:      make(map[int]*Task),
		taskByAddr: make(map[uint64]*Task),
		nextPID:    1,
	}
	k.rcu = newRCUState(k)
	k.lockdep = newLockDep(k)
	k.refs = newRefRegistry(k)
	k.sockets = newSocketTable(k)
	for i := 0; i < cfg.NumCPU; i++ {
		cpu := &CPU{ID: i}
		cpu.Scratch = k.Mem.Map(64<<10, ProtRW, fmt.Sprintf("percpu:%d", i))
		k.cpus = append(k.cpus, cpu)
	}
	// The swapper task: something is always "current".
	swapper := k.NewTask("swapper/0")
	k.cpus[0].current = swapper
	return k
}

// NewDefault boots a kernel with DefaultConfig.
func NewDefault() *Kernel { return New(DefaultConfig()) }

// CPUs returns the simulated processors.
func (k *Kernel) CPUs() []*CPU { return k.cpus }

// CPU returns processor i.
func (k *Kernel) CPU(i int) *CPU { return k.cpus[i] }

// Oops records a simulated crash and, when configured, panics the kernel.
func (k *Kernel) Oops(kind OopsKind, cpu int, format string, args ...any) *Oops {
	k.mu.Lock()
	comm := ""
	if cpu >= 0 && cpu < len(k.cpus) && k.cpus[cpu].current != nil {
		comm = k.cpus[cpu].current.Comm
	}
	o := &Oops{Kind: kind, Msg: fmt.Sprintf(format, args...), Time: k.Clock.Now(), CPU: cpu, Comm: comm}
	k.oopses = append(k.oopses, o)
	k.Stats.Oopses++
	switch kind {
	case OopsRCUStall:
		k.Stats.RCUStalls++
	case OopsSoftLockup:
		k.Stats.SoftLockups++
	case OopsRefLeak:
		k.Stats.RefLeaks++
	}
	panicOn := k.Cfg.PanicOnOops
	k.mu.Unlock()
	if panicOn {
		panic(KernelPanic{Oops: o})
	}
	return o
}

// FaultOops converts a page fault into the appropriately-classified oops.
func (k *Kernel) FaultOops(f *Fault, cpu int) *Oops {
	k.mu.Lock()
	k.Stats.Faults++
	k.mu.Unlock()
	return k.Oops(oopsKindForFault(f), cpu, "%v", f)
}

// Oopses returns a snapshot of the oops log.
func (k *Kernel) Oopses() []*Oops {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Oops, len(k.oopses))
	copy(out, k.oopses)
	return out
}

// OopsCount returns the number of oopses logged so far, without copying
// the log.
func (k *Kernel) OopsCount() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.oopses)
}

// oopsSince copies the oopses logged after the first n.
func (k *Kernel) oopsSince(n int) []*Oops {
	k.mu.Lock()
	defer k.mu.Unlock()
	if n >= len(k.oopses) {
		return nil
	}
	return append([]*Oops(nil), k.oopses[n:]...)
}

// LastOops returns the most recent oops, or nil if the kernel is healthy.
func (k *Kernel) LastOops() *Oops {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.oopses) == 0 {
		return nil
	}
	return k.oopses[len(k.oopses)-1]
}

// Healthy reports whether the kernel has recorded no oops.
func (k *Kernel) Healthy() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.oopses) == 0
}

// RCU returns the kernel's RCU subsystem.
func (k *Kernel) RCU() *RCUState { return k.rcu }

// LockDep returns the lock-dependency tracker.
func (k *Kernel) LockDep() *LockDep { return k.lockdep }

// Refs returns the reference-count leak registry.
func (k *Kernel) Refs() *RefRegistry { return k.refs }

// Sockets returns the simulated socket table.
func (k *Kernel) Sockets() *SocketTable { return k.sockets }
