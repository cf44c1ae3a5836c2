// Package interp executes eBPF bytecode against the simulated kernel.
//
// Crucially, the interpreter performs no safety checking of its own: like
// the kernel's ___bpf_prog_run, it trusts the verifier completely. A memory
// access the verifier wrongly admitted — or one performed by an unverified
// helper — faults the simulated kernel. This asymmetry (static trust,
// no runtime net) is exactly the architecture §2 of the paper critiques.
package interp

import (
	"errors"
	"fmt"
	"sync"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
)

// Errors returned by program execution.
var (
	// ErrFuelExhausted reports that the optional fuel meter ran out. The
	// verified-eBPF stack runs without fuel; the safext runtime sets it.
	ErrFuelExhausted = errors.New("interp: fuel exhausted")
	// ErrTailCallLimit reports more than 33 chained tail calls.
	ErrTailCallLimit = errors.New("interp: tail call limit reached")
	// ErrCallDepth reports BPF-to-BPF nesting beyond 8 frames.
	ErrCallDepth = errors.New("interp: call stack exhausted")
)

// Observer receives the concrete machine state entering each instruction:
// the instruction's element index, the register file of the current
// activation (R10 is the frame pointer of that activation), and the
// BPF-to-BPF call depth (callbacks invoked by helpers observe at depth 1).
// The registers must be treated as read-only — an observer is a probe, not
// an instrumentation pass. The hook costs one nil check per retired
// instruction when unset.
type Observer func(pc int, regs *[11]uint64, depth int)

// Options tunes one program execution.
type Options struct {
	// Fuel, when non-zero, bounds retired instructions. Zero means trust
	// the verifier and run without a runtime net.
	Fuel uint64
	// WatchdogNs, when non-zero, bounds the program's virtual runtime —
	// the safext watchdog timer. Helper work counts, unlike Fuel which
	// only counts the program's own instructions.
	WatchdogNs int64
	// Bugs selects which reintroduced helper bugs are live.
	Bugs helpers.BugConfig
	// ProgArray is the tail-call program array, if any.
	ProgArray []*isa.Program
	// Observe, when non-nil, is called before every instruction retires —
	// the statecheck soundness oracle's concrete-trace hook. A tail call
	// disarms it: the observed pcs would index a different program. The
	// JIT engine does not support observation and ignores it.
	Observe Observer
}

// ErrWatchdogExpired reports that the watchdog timer fired and the program
// was terminated.
var ErrWatchdogExpired = errors.New("interp: watchdog expired")

// Machine executes programs on one simulated kernel.
type Machine struct {
	K       *kernel.Kernel
	Helpers *helpers.Registry
	Maps    *maps.Registry

	// frames caches stack-frame regions per simulated CPU, shared by the
	// interpreter and the JIT. Both engines map 512-byte frames on every
	// run; under sharded execution that made the address-space write lock
	// the hottest serialization point. Each shard worker recycles frames
	// from its own CPU's cache instead, so steady-state runs do zero
	// Map/Unmap traffic.
	frames []frameCache
}

type frameCache struct {
	mu   sync.Mutex // uncontended in shard use (one worker per CPU)
	free []*kernel.Region
}

// frameCacheCap bounds cached frames per CPU; deeper recursion spills to
// plain Map/Unmap.
const frameCacheCap = 16

// NewMachine builds an execution engine.
func NewMachine(k *kernel.Kernel, reg *helpers.Registry, mapsReg *maps.Registry) *Machine {
	return &Machine{K: k, Helpers: reg, Maps: mapsReg, frames: make([]frameCache, len(k.CPUs()))}
}

// StackFrame returns a zeroed 512-byte stack frame for the given CPU,
// reusing the CPU's cache when possible. Frames are cleared on reuse so a
// cached frame is indistinguishable from a freshly mapped one — stale data
// never leaks across program invocations.
func (m *Machine) StackFrame(cpu int) *kernel.Region {
	if cpu >= 0 && cpu < len(m.frames) {
		fc := &m.frames[cpu]
		fc.mu.Lock()
		if n := len(fc.free); n > 0 {
			s := fc.free[n-1]
			fc.free = fc.free[:n-1]
			fc.mu.Unlock()
			clear(s.Data)
			return s
		}
		fc.mu.Unlock()
	}
	return m.K.Mem.Map(512, kernel.ProtRW, "bpf_stack")
}

// ReleaseFrame returns a frame to the CPU's cache, unmapping it when the
// cache is full or the CPU is out of range.
func (m *Machine) ReleaseFrame(cpu int, s *kernel.Region) {
	if cpu >= 0 && cpu < len(m.frames) {
		fc := &m.frames[cpu]
		fc.mu.Lock()
		if len(fc.free) < frameCacheCap {
			fc.free = append(fc.free, s)
			fc.mu.Unlock()
			return
		}
		fc.mu.Unlock()
	}
	m.K.Mem.Unmap(s)
}

// Relocate resolves symbolic map references to registered map handles,
// the load-time fixup step of both loading pipelines.
func Relocate(insns []isa.Instruction, reg *maps.Registry) error {
	for i := range insns {
		if insns[i].IsMapRef() && insns[i].MapName != "" {
			m, ok := reg.ByName(insns[i].MapName)
			if !ok {
				return fmt.Errorf("interp: relocation: unknown map %q", insns[i].MapName)
			}
			h, _ := reg.Handle(m)
			insns[i].Const = int64(h)
			insns[i].MapName = ""
		}
	}
	return nil
}

// maxDepth is the deepest BPF-to-BPF activation (0-based): the main frame
// plus 8 nested calls. A callback starts again at depth 1, as the verifier
// checks its body with a fresh frame count.
const maxDepth = 8

// run holds the mutable state of one execution. Runs take one from
// runPool and return it when they finish, so a run allocates neither the
// state, nor its register files, nor the Env hooks.
type run struct {
	perRun

	// files holds the register files of the first live activations: the
	// activation at level n runs on files[n]. Levels past the array, which
	// a callback nested in a deep call chain reaches, get a heap file (see
	// file). Callers clear a file before use, so finish leaves them as
	// they are.
	files [maxDepth + 1][11]uint64

	// callFunc and tailCall are this state's Env hooks, bound once.
	callFunc func(pc int32, r1, r2, r3 uint64) (uint64, error)
	tailCall func(index uint64) error
}

// perRun is the part of run that finish resets for the next run.
type perRun struct {
	m    *Machine
	env  *helpers.Env
	opts Options

	insns []isa.Instruction
	fuel  uint64
	used  uint64
	obs   Observer

	stacks    []*kernel.Region // all mapped frames, for release at end
	freeStack []*kernel.Region // reusable frames (callback-heavy programs)
	tailCalls int

	tailTo *isa.Program // set when a tail call replaces the program

	// level counts the live activations and picks their register files.
	// Callbacks nest one level below the helper's caller although they
	// start again at depth 1, so level, not depth, picks the file.
	level int
}

// runPool recycles run state. It holds no mapped memory: a run returns its
// stack frames to the machine before its state goes back to the pool,
// which may drop entries at any time.
var runPool = sync.Pool{New: func() any {
	r := &run{}
	r.callFunc = r.callback
	r.tailCall = r.tail
	return r
}}

// tickBatch is how many retired instructions are charged to the kernel
// clock at once.
const tickBatch = 64

// Run executes the program in the given helper environment and returns R0.
// The environment's Ctx accounts time; kernel damage (oops) is observable
// on the kernel afterwards. The returned error reports abnormal
// termination (crash, fuel exhaustion), not the program's exit code.
func (m *Machine) Run(prog *isa.Program, env *helpers.Env, opts Options) (uint64, error) {
	r := runPool.Get().(*run)
	r.m, r.env, r.opts = m, env, opts
	r.insns, r.fuel, r.obs = prog.Insns, opts.Fuel, opts.Observe
	env.Bugs = opts.Bugs
	env.CallFunc, env.TailCall = r.callFunc, r.tailCall
	defer r.finish()

	for {
		regs := r.file()
		regs[1] = env.CtxAddr
		ret, err := r.exec(0, regs, 0)
		if err != nil {
			return 0, err
		}
		if r.tailTo == nil {
			return ret, nil
		}
		// Tail call: restart in the target program with the original ctx.
		// The observer is disarmed: its pcs index the original program.
		r.insns = r.tailTo.Insns
		r.tailTo = nil
		r.obs = nil
	}
}

// callback is the Env.CallFunc hook: it runs a BPF-to-BPF function for a
// callback helper (bpf_loop, bpf_for_each_map_elem).
func (r *run) callback(pc int32, a1, a2, a3 uint64) (uint64, error) {
	regs := r.file()
	regs[1], regs[2], regs[3] = a1, a2, a3
	return r.exec(int(pc), regs, 1)
}

// file returns a cleared register file for the next activation, the one at
// level r.level. Levels past the inline files are rare, so their files
// come from the heap.
func (r *run) file() *[11]uint64 {
	if r.level >= len(r.files) {
		return new([11]uint64)
	}
	regs := &r.files[r.level]
	*regs = [11]uint64{}
	return regs
}

// tail is the Env.TailCall hook.
func (r *run) tail(index uint64) error {
	if r.tailCalls >= 33 {
		return ErrTailCallLimit
	}
	if index >= uint64(len(r.opts.ProgArray)) || r.opts.ProgArray[index] == nil {
		return fmt.Errorf("interp: no program at index %d", index)
	}
	r.tailCalls++
	r.tailTo = r.opts.ProgArray[index]
	return nil
}

// finish publishes the fuel meter's final reading for the execution
// core's report, on normal and abnormal exits alike, returns the run's
// stack frames to the machine and its state to the pool, and unhooks the
// Env.
func (r *run) finish() {
	env := r.env
	env.FuelUsed = r.used
	for _, s := range r.stacks {
		r.m.ReleaseFrame(env.Ctx.CPUID, s)
	}
	env.CallFunc, env.TailCall = nil, nil
	clear(r.stacks)
	clear(r.freeStack)
	r.perRun = perRun{stacks: r.stacks[:0], freeStack: r.freeStack[:0]}
	runPool.Put(r)
}

// newStack returns the top address of a 512-byte stack frame, reusing
// frames freed by completed activations so callback-heavy programs do not
// bloat the address space.
func (r *run) newStack() *kernel.Region {
	if n := len(r.freeStack); n > 0 {
		s := r.freeStack[n-1]
		r.freeStack = r.freeStack[:n-1]
		// Not cleared on reuse: real kernel stacks carry stale data too,
		// and reading uninitialized stack is the verifier's problem.
		return s
	}
	s := r.m.StackFrame(r.env.Ctx.CPUID)
	r.stacks = append(r.stacks, s)
	return s
}

func (r *run) freeFrame(s *kernel.Region) { r.freeStack = append(r.freeStack, s) }

// charge retires n instructions: fuel, watchdog, virtual time, detectors.
func (r *run) charge(n uint64) error {
	r.used += n
	r.env.Ctx.Tick(n)
	if r.fuel > 0 && r.used >= r.fuel {
		return ErrFuelExhausted
	}
	if r.opts.WatchdogNs > 0 && r.env.Ctx.Runtime() >= r.opts.WatchdogNs {
		return ErrWatchdogExpired
	}
	return nil
}

// crash converts a fault into a kernel oops plus a fatal error.
func (r *run) crash(f *kernel.Fault) error {
	r.m.K.FaultOops(f, r.env.Ctx.CPUID)
	return helpers.ErrKernelCrash
}

// exec interprets one function activation starting at pc, on the register
// file its caller set up with file.
func (r *run) exec(pc int, regs *[11]uint64, depth int) (uint64, error) {
	if depth > maxDepth {
		return 0, ErrCallDepth
	}
	r.level++
	defer func() { r.level-- }()
	frame := r.newStack()
	defer r.freeFrame(frame)
	regs[10] = frame.End()
	mem := r.m.K.Mem
	batch := uint64(0)

	for {
		if pc < 0 || pc >= len(r.insns) {
			return 0, fmt.Errorf("interp: pc %d out of range", pc)
		}
		ins := r.insns[pc]
		if r.obs != nil {
			r.obs(pc, regs, depth)
		}
		batch++
		if batch >= tickBatch {
			if err := r.charge(batch); err != nil {
				return 0, err
			}
			batch = 0
		}

		switch ins.Class() {
		case isa.ClassALU64:
			v, ok := EvalALU(ins.ALUOp(), regs[ins.Dst], r.src(ins, regs), true)
			if !ok {
				return 0, fmt.Errorf("interp: pc %d: bad shift", pc)
			}
			regs[ins.Dst] = v
			pc++

		case isa.ClassALU:
			v, ok := EvalALU(ins.ALUOp(), regs[ins.Dst], r.src(ins, regs), false)
			if !ok {
				return 0, fmt.Errorf("interp: pc %d: bad shift", pc)
			}
			regs[ins.Dst] = uint64(uint32(v))
			pc++

		case isa.ClassLD:
			regs[ins.Dst] = uint64(ins.Const)
			pc++

		case isa.ClassLDX:
			size := isa.SizeBytes(ins.Size())
			v, f := mem.LoadUint(regs[ins.Src]+uint64(int64(ins.Off)), size)
			if f != nil {
				return 0, r.crash(f)
			}
			regs[ins.Dst] = v
			pc++

		case isa.ClassST:
			size := isa.SizeBytes(ins.Size())
			if f := mem.StoreUint(regs[ins.Dst]+uint64(int64(ins.Off)), size, uint64(int64(ins.Imm))); f != nil {
				return 0, r.crash(f)
			}
			pc++

		case isa.ClassSTX:
			size := isa.SizeBytes(ins.Size())
			addr := regs[ins.Dst] + uint64(int64(ins.Off))
			if ins.Mode() == isa.ModeATOMIC {
				if err := r.atomic(ins, addr, size, regs[:]); err != nil {
					return 0, err
				}
			} else if f := mem.StoreUint(addr, size, regs[ins.Src]); f != nil {
				return 0, r.crash(f)
			}
			pc++

		case isa.ClassJMP, isa.ClassJMP32:
			switch {
			case ins.IsExit():
				if err := r.charge(batch); err != nil {
					return 0, err
				}
				return regs[0], nil
			case ins.IsCall():
				if err := r.charge(batch); err != nil {
					return 0, err
				}
				batch = 0
				ret, err := r.helperCall(ins, regs[:])
				if err != nil {
					return 0, err
				}
				if r.tailTo != nil {
					// A successful tail call abandons this program.
					return 0, nil
				}
				regs[0] = ret
				// R1-R5 are caller-saved; clobber like real calls do.
				regs[1], regs[2], regs[3], regs[4], regs[5] = 0, 0, 0, 0, 0
				pc++
			case ins.IsBPFCall():
				if err := r.charge(batch); err != nil {
					return 0, err
				}
				batch = 0
				sub := r.file()
				copy(sub[1:6], regs[1:6])
				ret, err := r.exec(pc+1+int(ins.Imm), sub, depth+1)
				if err != nil {
					return 0, err
				}
				regs[0] = ret
				regs[1], regs[2], regs[3], regs[4], regs[5] = 0, 0, 0, 0, 0
				pc++
			case ins.IsUnconditionalJump():
				pc += 1 + int(ins.Off)
			default:
				if EvalJump(ins, regs[ins.Dst], r.src(ins, regs)) {
					pc += 1 + int(ins.Off)
				} else {
					pc++
				}
			}
		default:
			return 0, fmt.Errorf("interp: pc %d: unknown class %#x", pc, ins.Class())
		}
	}
}

// src returns the second operand value.
func (r *run) src(ins isa.Instruction, regs *[11]uint64) uint64 {
	if ins.UsesX() {
		return regs[ins.Src]
	}
	return uint64(int64(ins.Imm))
}

func (r *run) helperCall(ins isa.Instruction, regs []uint64) (uint64, error) {
	spec, ok := r.m.Helpers.ByID(helpers.ID(ins.Imm))
	if !ok {
		return 0, fmt.Errorf("interp: unknown helper id %d", ins.Imm)
	}
	if spec.Impl == nil {
		return 0, fmt.Errorf("%w: %s", helpers.ErrUnimplemented, spec.Name)
	}
	r.env.CountCall(spec)
	if r.env.Fault != nil {
		if r0, err, injected := r.env.Fault.HelperCall(r.env, spec.Name); injected {
			return r0, err
		}
	}
	var args [5]uint64
	copy(args[:], regs[1:6])
	return spec.Impl(r.env, args)
}

func (r *run) atomic(ins isa.Instruction, addr uint64, size int, regs []uint64) error {
	mem := r.m.K.Mem
	old, f := mem.LoadUint(addr, size)
	if f != nil {
		return r.crash(f)
	}
	switch ins.Imm {
	case isa.AtomicAdd:
		f = mem.StoreUint(addr, size, old+regs[ins.Src])
	case isa.AtomicAdd | isa.AtomicFetch:
		f = mem.StoreUint(addr, size, old+regs[ins.Src])
		regs[ins.Src] = old
	case isa.AtomicXchg:
		f = mem.StoreUint(addr, size, regs[ins.Src])
		regs[ins.Src] = old
	case isa.AtomicCmpXchg:
		if old == regs[0] {
			f = mem.StoreUint(addr, size, regs[ins.Src])
		}
		regs[0] = old
	default:
		return fmt.Errorf("interp: unsupported atomic op %#x", ins.Imm)
	}
	if f != nil {
		return r.crash(f)
	}
	return nil
}

// EvalALU evaluates one ALU operation. ok is false for oversized shifts.
// It is exported for reuse by the JIT.
func EvalALU(op uint8, dst, src uint64, is64 bool) (uint64, bool) {
	width := uint64(64)
	if !is64 {
		width = 32
		dst, src = uint64(uint32(dst)), uint64(uint32(src))
	}
	switch op {
	case isa.OpAdd:
		return dst + src, true
	case isa.OpSub:
		return dst - src, true
	case isa.OpMul:
		return dst * src, true
	case isa.OpDiv:
		if src == 0 {
			return 0, true
		}
		return dst / src, true
	case isa.OpMod:
		if src == 0 {
			return dst, true
		}
		return dst % src, true
	case isa.OpOr:
		return dst | src, true
	case isa.OpAnd:
		return dst & src, true
	case isa.OpXor:
		return dst ^ src, true
	case isa.OpMov:
		return src, true
	case isa.OpLsh:
		// Shift amounts are taken modulo the width, the modern eBPF
		// semantics (dst <<= src & (width-1)).
		return dst << (src & (width - 1)), true
	case isa.OpRsh:
		return dst >> (src & (width - 1)), true
	case isa.OpArsh:
		src &= width - 1
		if !is64 {
			return uint64(uint32(int32(uint32(dst)) >> src)), true
		}
		return uint64(int64(dst) >> src), true
	case isa.OpNeg:
		return -dst, true
	case isa.OpEnd:
		return dst, true
	}
	return 0, false
}

// EvalJump evaluates a conditional jump. It is exported for reuse by the JIT.
func EvalJump(ins isa.Instruction, dst, src uint64) bool {
	if ins.Class() == isa.ClassJMP32 {
		dst, src = uint64(uint32(dst)), uint64(uint32(src))
		switch ins.ALUOp() {
		case isa.OpJsgt:
			return int32(dst) > int32(src)
		case isa.OpJsge:
			return int32(dst) >= int32(src)
		case isa.OpJslt:
			return int32(dst) < int32(src)
		case isa.OpJsle:
			return int32(dst) <= int32(src)
		}
	}
	switch ins.ALUOp() {
	case isa.OpJeq:
		return dst == src
	case isa.OpJne:
		return dst != src
	case isa.OpJgt:
		return dst > src
	case isa.OpJge:
		return dst >= src
	case isa.OpJlt:
		return dst < src
	case isa.OpJle:
		return dst <= src
	case isa.OpJset:
		return dst&src != 0
	case isa.OpJsgt:
		return int64(dst) > int64(src)
	case isa.OpJsge:
		return int64(dst) >= int64(src)
	case isa.OpJslt:
		return int64(dst) < int64(src)
	case isa.OpJsle:
		return int64(dst) <= int64(src)
	}
	return false
}
