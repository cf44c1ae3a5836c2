package interp

import (
	"fmt"
	"sync"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/kernel"
)

// maxDepth is the deepest activation depth (0-based): the main frame plus
// 8 nested BPF-to-BPF calls, one frame more than the verifier's default
// MaxCallDepth admits. A callback a helper runs starts again at depth 1,
// the rule the verifier checks a callback body under (a fresh frame
// count).
const maxDepth = 8

// tickBatch is how many retired instructions are charged at once between
// charge points.
const tickBatch = 64

// Code is one engine's executable form of a program: the interpreter's
// instructions, decoded as they run, or the JIT's compiled closures. An
// engine supplies only this; activations, charging, helper dispatch,
// atomics, callbacks and tail calls are the State's, so both engines give
// the same report for the same program.
type Code interface {
	// Exec runs one activation from pc on regs, whose arguments and frame
	// pointer are set, until the activation's exit instruction or a tail
	// call, and returns R0. It calls Retire before each instruction.
	Exec(s *State, pc int, regs *[11]uint64) (uint64, error)
	// Tail returns the code of a tail-call target.
	Tail(prog *isa.Program) (Code, error)
}

// State is the mutable state of one execution, shared by both engines.
// Runs take one from statePool and return it when they finish, so a run
// allocates neither the state, nor its register files, nor the Env hooks.
type State struct {
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

// perRun is the part of State that finish resets for the next run.
type perRun struct {
	m    *Machine
	env  *helpers.Env
	opts Options
	code Code
	obs  Observer

	// Err carries the error of a JIT closure, which stops its activation
	// by returning -1, to the JIT's dispatch loop.
	Err error

	batch uint64 // instructions retired since the last charge
	used  uint64 // instructions charged, the fuel meter's reading

	// depth is the current activation's call depth, which maxDepth bounds.
	// level counts the live activations and picks their register files: a
	// callback runs one level below the helper's caller, at depth 1.
	depth int
	level int

	stacks    []*kernel.Region // all mapped frames, for release at end
	freeStack []*kernel.Region // frames of completed activations
	tailCalls int
	tailTo    *isa.Program // set when a tail call replaces the program
}

// statePool recycles run state. It holds no mapped memory: a run returns
// its stack frames to the machine before its state goes back to the pool,
// which may drop entries at any time.
var statePool = sync.Pool{New: func() any {
	s := &State{}
	s.callFunc = s.callback
	s.tailCall = s.tail
	return s
}}

// RunCode runs code in the given helper environment and returns R0. The
// environment's Ctx accounts time; kernel damage (oops) is observable on
// the kernel afterwards. The returned error reports abnormal termination
// (crash, fuel exhaustion, watchdog), not the program's exit code.
func (m *Machine) RunCode(code Code, env *helpers.Env, opts Options) (uint64, error) {
	s := statePool.Get().(*State)
	s.m, s.env, s.opts, s.code, s.obs = m, env, opts, code, opts.Observe
	env.Bugs = opts.Bugs
	env.CallFunc, env.TailCall = s.callFunc, s.tailCall
	defer s.finish()

	for {
		regs := s.file()
		regs[1] = env.CtxAddr
		ret, err := s.activate(0, regs, 0)
		if err != nil || s.tailTo == nil {
			return ret, err
		}
		// Tail call: restart in the target program with the original ctx.
		// The observer is disarmed: its pcs index the original program.
		if s.code, err = s.code.Tail(s.tailTo); err != nil {
			return 0, err
		}
		s.tailTo, s.obs = nil, nil
	}
}

// activate runs one function activation from pc on regs, which the caller
// took from file and filled with the arguments. It charges the
// activation's last instructions at its exit.
func (s *State) activate(pc int, regs *[11]uint64, depth int) (uint64, error) {
	if depth > maxDepth {
		return 0, ErrCallDepth
	}
	outer := s.depth
	s.depth = depth
	s.level++
	frame := s.frame()
	regs[10] = frame.End()
	ret, err := s.code.Exec(s, pc, regs)
	s.freeStack = append(s.freeStack, frame)
	s.level--
	s.depth = outer
	switch {
	case err != nil:
		return 0, err
	case s.tailTo != nil:
		return 0, nil // the tail call abandons this program
	}
	if err := s.charge(); err != nil {
		return 0, err
	}
	return ret, nil
}

// file returns a cleared register file for the next activation, the one at
// level s.level. Levels past the inline files are rare, so their files
// come from the heap.
func (s *State) file() *[11]uint64 {
	if s.level >= len(s.files) {
		return new([11]uint64)
	}
	regs := &s.files[s.level]
	*regs = [11]uint64{}
	return regs
}

// frame returns a 512-byte stack frame for the next activation. A frame a
// completed activation of this run freed is cleared on reuse, as
// Machine.stackFrame clears a cached one, so every activation starts on a
// zeroed frame and no data passes between activations.
func (s *State) frame() *kernel.Region {
	if n := len(s.freeStack); n > 0 {
		f := s.freeStack[n-1]
		s.freeStack = s.freeStack[:n-1]
		clear(f.Data)
		return f
	}
	f := s.m.stackFrame(s.env.Ctx.CPUID)
	s.stacks = append(s.stacks, f)
	return f
}

// Retire counts one instruction entering execution, charging every
// tickBatch-th.
func (s *State) Retire() error {
	s.batch++
	if s.batch < tickBatch {
		return nil
	}
	return s.charge()
}

// charge retires the pending batch: fuel, watchdog, virtual time,
// detectors. Besides every tickBatch-th instruction, it runs before every
// helper and BPF-to-BPF call and at every activation exit, so the watchdog
// sees callbacks however short, and a helper sees the clock and the fuel
// meter as they stand at its call.
func (s *State) charge() error {
	n := s.batch
	s.batch = 0
	s.used += n
	s.env.Ctx.Tick(n)
	if s.opts.Fuel > 0 && s.used >= s.opts.Fuel {
		return ErrFuelExhausted
	}
	if s.opts.WatchdogNs > 0 && s.env.Ctx.Runtime() >= s.opts.WatchdogNs {
		return ErrWatchdogExpired
	}
	return nil
}

// Mem is the kernel address space programs access.
func (s *State) Mem() *kernel.AddressSpace { return s.m.K.Mem }

// Crash converts a fault into a kernel oops and returns the fatal error.
func (s *State) Crash(f *kernel.Fault) error {
	s.m.K.FaultOops(f, s.env.Ctx.CPUID)
	return helpers.ErrKernelCrash
}

// Call runs the BPF-to-BPF function at target with the caller's R1-R5 and
// sets the caller's R0.
func (s *State) Call(target int, regs *[11]uint64) error {
	if err := s.charge(); err != nil {
		return err
	}
	sub := s.file()
	copy(sub[1:6], regs[1:6])
	ret, err := s.activate(target, sub, s.depth+1)
	if err != nil {
		return err
	}
	regs[0] = ret
	clobber(regs)
	return nil
}

// CallHelper runs helper id on R1-R5 and sets R0. tail reports that the
// helper started a tail call, which abandons the calling activation: it
// must return at once.
func (s *State) CallHelper(id int32, regs *[11]uint64) (tail bool, err error) {
	if err = s.charge(); err != nil {
		return false, err
	}
	spec, ok := s.m.Helpers.ByID(helpers.ID(id))
	if !ok {
		return false, fmt.Errorf("interp: unknown helper id %d", id)
	}
	if spec.Impl == nil {
		return false, fmt.Errorf("%w: %s", helpers.ErrUnimplemented, spec.Name)
	}
	env := s.env
	env.CountCall(spec)
	var ret uint64
	injected := false
	if env.Fault != nil {
		ret, err, injected = env.Fault.HelperCall(env, spec.Name)
	}
	if !injected {
		ret, err = spec.Impl(env, [5]uint64{regs[1], regs[2], regs[3], regs[4], regs[5]})
	}
	switch {
	case err != nil:
		return false, err
	case s.tailTo != nil:
		return true, nil
	}
	regs[0] = ret
	clobber(regs)
	return false, nil
}

// clobber zeroes R1-R5, which calls do not preserve.
func clobber(regs *[11]uint64) { regs[1], regs[2], regs[3], regs[4], regs[5] = 0, 0, 0, 0, 0 }

// Atomic performs the atomic read-modify-write op (the instruction's imm)
// of size bytes at addr, with src the operand register.
func (s *State) Atomic(op int32, addr uint64, size int, regs *[11]uint64, src isa.Register) error {
	mem := s.Mem()
	old, f := mem.LoadUint(addr, size)
	if f != nil {
		return s.Crash(f)
	}
	switch op {
	case isa.AtomicAdd:
		f = mem.StoreUint(addr, size, old+regs[src])
	case isa.AtomicAdd | isa.AtomicFetch:
		f = mem.StoreUint(addr, size, old+regs[src])
		regs[src] = old
	case isa.AtomicXchg:
		f = mem.StoreUint(addr, size, regs[src])
		regs[src] = old
	case isa.AtomicCmpXchg:
		if old == regs[0] {
			f = mem.StoreUint(addr, size, regs[src])
		}
		regs[0] = old
	default:
		return fmt.Errorf("interp: unsupported atomic op %#x", op)
	}
	if f != nil {
		return s.Crash(f)
	}
	return nil
}

// callback is the Env.CallFunc hook: it runs a BPF-to-BPF function for a
// callback helper (bpf_loop, bpf_for_each_map_elem), at depth 1.
func (s *State) callback(pc int32, a1, a2, a3 uint64) (uint64, error) {
	regs := s.file()
	regs[1], regs[2], regs[3] = a1, a2, a3
	return s.activate(int(pc), regs, 1)
}

// tail is the Env.TailCall hook.
func (s *State) tail(index uint64) error {
	if s.tailCalls >= 33 {
		return ErrTailCallLimit
	}
	if index >= uint64(len(s.opts.ProgArray)) || s.opts.ProgArray[index] == nil {
		return fmt.Errorf("interp: no program at index %d", index)
	}
	s.tailCalls++
	s.tailTo = s.opts.ProgArray[index]
	return nil
}

// finish publishes the fuel meter's final reading for the execution
// core's report, on normal and abnormal exits alike, returns the run's
// stack frames to the machine and its state to the pool, and unhooks the
// Env.
func (s *State) finish() {
	env := s.env
	env.FuelUsed = s.used
	for _, f := range s.stacks {
		s.m.releaseFrame(env.Ctx.CPUID, f)
	}
	env.CallFunc, env.TailCall = nil, nil
	clear(s.stacks)
	clear(s.freeStack)
	s.perRun = perRun{stacks: s.stacks[:0], freeStack: s.freeStack[:0]}
	statePool.Put(s)
}
