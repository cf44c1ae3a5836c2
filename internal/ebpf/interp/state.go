package interp

import (
	"fmt"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/kernel"
)

// maxDepth is the deepest activation depth (0-based): the main frame plus
// 8 nested BPF-to-BPF calls, one frame more than the verifier's default
// MaxCallDepth admits. Verified programs never reach the ninth frame; the
// limit is the runtime net of programs no verifier checks, whose calls
// nest as deep as their source (DESIGN §3.1). A callback a helper runs
// starts again at depth 1, the rule the verifier checks a callback body
// under (a fresh frame count).
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

// State is the mutable state of one execution, shared by both engines. A
// state serves one run at a time. The execution core's run frame keeps one
// across its runs (Options.State), so a run allocates neither the state,
// nor its register files, nor its stack frames, nor the Env hooks. A run
// that brings no state runs on a new one, whose stack frames it unmaps as
// it finishes.
type State struct {
	perRun

	// files holds the register files of the first live activations: the
	// activation at level n runs on files[n]. Levels past the array, which
	// a callback nested in a deep call chain reaches, get a heap file (see
	// file). Callers clear a file before use, so finish leaves them as
	// they are.
	files [maxDepth + 1][11]uint64

	// stacks are the state's 512-byte stack frames, mapped in k's address
	// space: the activation at level n runs on stacks[n-1]. They stay
	// mapped across runs, at most keptStacks of them, until Release.
	stacks []*kernel.Region
	k      *kernel.Kernel

	// callFunc and tailCall are this state's Env hooks, bound once.
	callFunc func(pc int32, r1, r2, r3 uint64) (uint64, error)
	tailCall func(index uint64) error
}

// keptStacks bounds the stack frames a state keeps between runs; a run
// nesting deeper maps more and unmaps them when it finishes.
const keptStacks = maxDepth + 1

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
	// level counts the live activations and picks their register files and
	// stack frames: a callback runs one level below the helper's caller,
	// at depth 1.
	depth int
	level int

	tailCalls int
	tailTo    *isa.Program // set when a tail call replaces the program
}

// RunCode runs code in the given helper environment and returns R0. The
// environment's Ctx accounts time; kernel damage (oops) is observable on
// the kernel afterwards. The returned error reports abnormal termination
// (crash, fuel exhaustion, watchdog), not the program's exit code.
func (m *Machine) RunCode(code Code, env *helpers.Env, opts Options) (uint64, error) {
	s := opts.State
	if s == nil {
		s = new(State)
		defer s.Release()
	}
	if s.k != m.K { // a new state, or one whose frames another kernel mapped
		s.Release()
		s.k, s.callFunc, s.tailCall = m.K, s.callback, s.tail
	}
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
	regs[10] = s.frame().End()
	ret, err := s.code.Exec(s, pc, regs)
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

// frame returns the stack frame of the activation at level s.level. A
// kept frame is cleared on reuse, so every activation starts on a zeroed
// frame, as on a freshly mapped one, and no data passes between
// activations or runs.
func (s *State) frame() *kernel.Region {
	if i := s.level - 1; i < len(s.stacks) {
		f := s.stacks[i]
		clear(f.Data)
		return f
	}
	f := s.k.Mem.Map(512, kernel.ProtRW, "bpf_stack")
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
	if s.opts.WatchdogNs > 0 && s.env.Ctx.ConsumedNs() >= s.opts.WatchdogNs {
		return ErrWatchdogExpired
	}
	return nil
}

// Ctx is the running context. Programs load and store through it, so
// their accesses translate through its TLB.
func (s *State) Ctx() *kernel.Context { return s.env.Ctx }

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
	ctx := s.Ctx()
	old, f := ctx.LoadUint(addr, size)
	if f != nil {
		return s.Crash(f)
	}
	switch op {
	case isa.AtomicAdd:
		f = ctx.StoreUint(addr, size, old+regs[src])
	case isa.AtomicAdd | isa.AtomicFetch:
		f = ctx.StoreUint(addr, size, old+regs[src])
		regs[src] = old
	case isa.AtomicXchg:
		f = ctx.StoreUint(addr, size, regs[src])
		regs[src] = old
	case isa.AtomicCmpXchg:
		if old == regs[0] {
			f = ctx.StoreUint(addr, size, regs[src])
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
// core's report, on normal and abnormal exits alike, unhooks the Env,
// unmaps the stack frames past keptStacks and resets the state for its
// next run.
func (s *State) finish() {
	env := s.env
	env.FuelUsed = s.used
	env.CallFunc, env.TailCall = nil, nil
	if len(s.stacks) > keptStacks {
		for _, f := range s.stacks[keptStacks:] {
			s.k.Mem.Unmap(f)
		}
		clear(s.stacks[keptStacks:])
		s.stacks = s.stacks[:keptStacks]
	}
	s.perRun = perRun{}
}

// Release unmaps the state's stack frames. The execution core calls it on
// the state of a run frame it drops; a later run maps frames anew.
func (s *State) Release() {
	for _, f := range s.stacks {
		s.k.Mem.Unmap(f)
	}
	clear(s.stacks)
	s.stacks = s.stacks[:0]
}
