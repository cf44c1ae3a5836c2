package verifier

import (
	"fmt"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
)

// Config selects the verifier's feature set and budgets. The defaults
// correspond to a modern kernel; EraConfig reproduces historical feature
// sets for the growth experiments.
type Config struct {
	// MaxInsns is the program size cap (the kernel's BPF_MAXINSNS for
	// unprivileged programs).
	MaxInsns int
	// ComplexityLimit caps total instructions processed across all
	// explored paths (BPF_COMPLEXITY_LIMIT_INSNS). This is the budget that
	// forces developers to split large programs (§2.1).
	ComplexityLimit int
	// MaxStatesPerInsn caps the pruning list per instruction.
	MaxStatesPerInsn int
	// MaxCallDepth caps BPF-to-BPF call nesting (the kernel allows 8).
	MaxCallDepth int

	// AllowLoops permits CFG back-edges (kernel 5.3+ bounded loops). The
	// complexity budget still bounds total work.
	AllowLoops bool
	// AllowBPFCalls permits BPF-to-BPF calls (kernel 4.16+).
	AllowBPFCalls bool
	// AllowSpinLock permits bpf_spin_lock/unlock (kernel 5.1+).
	AllowSpinLock bool
	// AllowRefHelpers permits reference-acquiring helpers (kernel 4.20+).
	AllowRefHelpers bool
	// AllowCallbacks permits callback helpers like bpf_loop (kernel 5.13+).
	AllowCallbacks bool
	// AllowPacketAccess permits direct packet access (kernel 4.7+).
	AllowPacketAccess bool

	// LogState records the abstract state at every instruction visit into
	// Result.Log — the kernel's verifier-log equivalent, surfaced by
	// `kexverify -dump-state`. Off by default: the log grows with the
	// number of explored paths, not program size.
	LogState bool

	// CaptureState records every abstract state the worklist steps into
	// Result.States, the machine-readable snapshot table behind
	// `kexverify -dump-state=json` and the statecheck soundness oracle.
	// Off by default for the same reason as LogState.
	CaptureState bool

	// Bugs reintroduces historical verifier defects for the Table 1
	// corpus. All flags default to off (the fixed verifier).
	Bugs BugConfig
}

// BugConfig gates reintroduced verifier bugs, each modelled on a real
// vulnerability class from the paper's Table 1 study.
type BugConfig struct {
	// MapValueNullUntracked drops the or-null marking on map lookup
	// results, so programs may dereference a missed lookup — the
	// missing-validation class of CVE-2022-23222 (null deref at runtime).
	MapValueNullUntracked bool
	// OffByOneJle makes the taken branch of JLE conclude v <= imm-1: the
	// verifier believes a bound one tighter than the runtime truth, so an
	// access sized for the believed bound can run one element past the
	// end — the CVE-2021-3490 family of refinement bugs (out-of-bounds
	// access at runtime).
	OffByOneJle bool
	// AllowPtrStore skips the pointer-leak check on stores to non-stack
	// memory, letting programs write kernel addresses into map values
	// readable by userspace (kernel pointer leak).
	AllowPtrStore bool
	// SkipReleaseScrub forgets to invalidate copies of a released
	// pointer, admitting use-after-free of socket references — the class
	// of commit f1db20814af5 ("wrong reg type conversion in
	// release_reference").
	SkipReleaseScrub bool
	// Jmp32SignedBounds64 makes 32-bit signed conditional jumps reason
	// from the 64-bit signed bounds. A value in [0x8000_0000, 0xffff_ffff]
	// is positive as an int64 but negative as the int32 the hardware
	// compares, so the verifier proves the wrong side of the branch dead
	// and never verifies the path execution takes — the 32-bit
	// bounds-tracking confusion class of CVE-2021-31440.
	Jmp32SignedBounds64 bool
	// TnumAddNoCarry makes tnum addition ignore carry propagation out of
	// unknown bits: the result's mask is just the union of the operand
	// masks, claiming bits known-zero that a carry can in fact set. A
	// synthetic abstract-operator bug (the shape of the historical
	// tnum/32-bit tracking defects) used to validate that the tnum
	// property tests and the statecheck oracle both catch a broken
	// transfer function.
	TnumAddNoCarry bool
}

// DefaultConfig returns the modern-kernel feature set.
func DefaultConfig() Config {
	return Config{
		MaxInsns:          4096,
		ComplexityLimit:   1_000_000,
		MaxStatesPerInsn:  64,
		MaxCallDepth:      8,
		AllowLoops:        true,
		AllowBPFCalls:     true,
		AllowSpinLock:     true,
		AllowRefHelpers:   true,
		AllowCallbacks:    true,
		AllowPacketAccess: true,
	}
}

// EraConfig returns the feature set of a historical kernel version, for
// the verifier-growth experiments (Figure 2's qualitative companion).
func EraConfig(version string) Config {
	c := Config{MaxInsns: 4096, ComplexityLimit: 32_768, MaxStatesPerInsn: 64, MaxCallDepth: 8}
	at := func(v string) bool { return helpers.VersionAtMost(v, version) }
	if at("v4.9") {
		c.AllowPacketAccess = true
	}
	if at("v4.20") {
		c.AllowBPFCalls = true
		c.AllowRefHelpers = true
		c.ComplexityLimit = 131_072
	}
	if at("v5.4") {
		c.AllowSpinLock = true
		c.AllowLoops = true
		c.ComplexityLimit = 1_000_000
	}
	if at("v5.15") {
		c.AllowCallbacks = true
	}
	return c
}

// FeatureCount returns how many optional verifier features a config
// enables — the reproduction's stand-in for "checks the verifier must
// implement", which grows era over era like Figure 2's LoC.
func (c Config) FeatureCount() int {
	n := 0
	for _, on := range []bool{c.AllowLoops, c.AllowBPFCalls, c.AllowSpinLock, c.AllowRefHelpers, c.AllowCallbacks, c.AllowPacketAccess} {
		if on {
			n++
		}
	}
	return n
}

// Error is a verification rejection: the instruction it occurred at and a
// kernel-style message.
type Error struct {
	PC  int
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("verifier: insn %d: %s", e.PC, e.Msg) }

// Result reports verification statistics, the numbers behind the
// scalability experiments (A1).
type Result struct {
	InsnsProcessed int
	StatesExplored int
	StatesPruned   int
	PeakStates     int
	Log            []string
	// States is the per-instruction abstract-state snapshot table, present
	// only when Config.CaptureState was set. On a rejection it holds the
	// states captured up to the failing instruction.
	States *StateTable
	// Facts holds, by pc, what every visit of each helper call agreed on
	// (set at helper calls only; nil for a program without one). It is
	// always filled, and is complete only for an accepted program.
	Facts []CallFact
}

// Verifier holds one verification run.
type Verifier struct {
	cfg     Config
	prog    *isa.Program
	reg     *helpers.Registry
	maps    map[string]*MapMeta
	res     *Result
	nextRef int

	visited    [][]*state // by pc
	prunePoint []bool     // by pc; one past the end for a final jump
	verifiedCB map[int32]bool
	logOn      bool
	snaps      *snapshotter

	// lastConstSize remembers the most recent exact ArgConstSize value, so
	// RetMemOrNull helpers (ringbuf_reserve) know their allocation size.
	lastConstSize int64
}

// Verify checks a program against the helper registry and the maps it
// references (keyed by the symbolic names in its LDDW instructions).
// It returns statistics and the first error encountered, if any.
func Verify(prog *isa.Program, reg *helpers.Registry, mapMeta map[string]*MapMeta, cfg Config) (*Result, error) {
	v := &Verifier{
		cfg:        cfg,
		prog:       prog,
		reg:        reg,
		maps:       mapMeta,
		res:        &Result{},
		logOn:      cfg.LogState,
		visited:    make([][]*state, len(prog.Insns)),
		prunePoint: make([]bool, len(prog.Insns)+1),
		verifiedCB: make(map[int32]bool),
	}
	if cfg.CaptureState {
		v.snaps = newSnapshotter(len(prog.Insns))
	}
	err := v.run()
	if v.snaps != nil {
		v.res.States = v.snaps.table()
	}
	return v.res, err
}

func (v *Verifier) errf(pc int, format string, args ...any) error {
	return &Error{PC: pc, Msg: fmt.Sprintf(format, args...)}
}

func (v *Verifier) logf(format string, args ...any) {
	if v.logOn {
		v.res.Log = append(v.res.Log, fmt.Sprintf(format, args...))
	}
}

func (v *Verifier) run() error {
	if err := v.prog.ValidateStructure(); err != nil {
		return err
	}
	if len(v.prog.Insns) > v.cfg.MaxInsns {
		return v.errf(0, "program too large: %d insns, limit %d", len(v.prog.Insns), v.cfg.MaxInsns)
	}
	if err := v.checkCFG(); err != nil {
		return err
	}
	entry := newState()
	entry.reg(isa.R1).Type = PtrToCtx
	return v.explore(entry)
}

// checkCFG performs the static control-flow pass: every instruction must be
// reachable, and back edges are rejected unless loops are allowed. This is
// the kernel's check_cfg.
func (v *Verifier) checkCFG() error {
	n := len(v.prog.Insns)
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	var extraRoots []int

	var dfs func(pc int) error
	dfs = func(pc int) error {
		if color[pc] == black {
			return nil
		}
		if color[pc] == gray {
			return nil // joined an in-progress path via cross edge; cycle handled below
		}
		color[pc] = gray
		ins := v.prog.Insns[pc]
		var succs []int
		switch {
		case ins.IsExit():
			// no successors
		case ins.IsUnconditionalJump():
			succs = []int{pc + 1 + int(ins.Off)}
		case ins.IsJump():
			succs = []int{pc + 1, pc + 1 + int(ins.Off)}
		case ins.IsBPFCall():
			succs = []int{pc + 1}
			extraRoots = append(extraRoots, pc+1+int(ins.Imm))
		default:
			if ins.IsFuncRef() {
				extraRoots = append(extraRoots, int(ins.Const))
			}
			succs = []int{pc + 1}
		}
		for _, s := range succs {
			if s < 0 || s >= n {
				return v.errf(pc, "jump out of range to %d", s)
			}
			if color[s] == gray {
				if !v.cfg.AllowLoops {
					return v.errf(pc, "back-edge from insn %d to %d", pc, s)
				}
				continue
			}
			if err := dfs(s); err != nil {
				return err
			}
		}
		color[pc] = black
		return nil
	}
	if err := dfs(0); err != nil {
		return err
	}
	for len(extraRoots) > 0 {
		r := extraRoots[0]
		extraRoots = extraRoots[1:]
		if color[r] == white {
			if err := dfs(r); err != nil {
				return err
			}
		}
	}
	for pc := 0; pc < n; pc++ {
		if color[pc] == white {
			return v.errf(pc, "unreachable insn %d", pc)
		}
		ins := v.prog.Insns[pc]
		if ins.IsJump() {
			v.prunePoint[pc+1+int(ins.Off)] = true
			v.prunePoint[pc+1] = true
		}
	}
	return nil
}

// explore runs the symbolic execution worklist from the given entry state.
func (v *Verifier) explore(entry *state) error {
	work := []*state{entry}
	for len(work) > 0 {
		if len(work) > v.res.PeakStates {
			v.res.PeakStates = len(work)
		}
		st := work[len(work)-1]
		work = work[:len(work)-1]
		v.res.StatesExplored++

		for {
			if v.res.InsnsProcessed >= v.cfg.ComplexityLimit {
				return v.errf(st.pc, "BPF program is too large. Processed %d insn", v.res.InsnsProcessed)
			}
			v.res.InsnsProcessed++

			// Prune: if an already-verified state generalizes this one,
			// every continuation is known safe.
			var frozen *state
			if v.prunePoint[st.pc] {
				pruned := false
				for _, old := range v.visited[st.pc] {
					if old.generalizes(st) {
						v.res.StatesPruned++
						pruned = true
						break
					}
				}
				if pruned {
					break
				}
				if len(v.visited[st.pc]) < v.cfg.MaxStatesPerInsn {
					frozen = st.clone()
					v.visited[st.pc] = append(v.visited[st.pc], frozen)
				}
			}
			if v.snaps != nil {
				// The state kept in visited is never modified, so the
				// snapshot table may keep the same copy.
				v.snaps.capture(st, frozen)
			}

			next, branch, err := v.step(st)
			if err != nil {
				return err
			}
			if branch != nil {
				work = append(work, branch)
			}
			if !next {
				break
			}
		}
	}
	return nil
}

// step executes one instruction on st. It returns whether st continues
// (false at exit or a dead end), and an optional second successor state.
func (v *Verifier) step(st *state) (cont bool, branch *state, err error) {
	ins := v.prog.Insns[st.pc]
	v.logf("%d: %v ; %v", st.pc, ins, st)
	switch ins.Class() {
	case isa.ClassALU, isa.ClassALU64:
		if err := v.checkALU(st, ins); err != nil {
			return false, nil, err
		}
		st.pc++
		return true, nil, nil

	case isa.ClassLD:
		if err := v.checkLoadImm(st, ins); err != nil {
			return false, nil, err
		}
		st.pc++
		return true, nil, nil

	case isa.ClassLDX:
		if err := v.checkLoad(st, ins); err != nil {
			return false, nil, err
		}
		st.pc++
		return true, nil, nil

	case isa.ClassST, isa.ClassSTX:
		if err := v.checkStore(st, ins); err != nil {
			return false, nil, err
		}
		st.pc++
		return true, nil, nil

	case isa.ClassJMP, isa.ClassJMP32:
		switch {
		case ins.IsExit():
			return v.checkExit(st)
		case ins.IsCall():
			if err := v.checkHelperCall(st, ins); err != nil {
				return false, nil, err
			}
			st.pc++
			return true, nil, nil
		case ins.IsBPFCall():
			if err := v.checkBPFCall(st, ins); err != nil {
				return false, nil, err
			}
			return true, nil, nil
		case ins.IsUnconditionalJump():
			st.pc += 1 + int(ins.Off)
			return true, nil, nil
		default:
			return v.checkBranch(st, ins)
		}
	}
	return false, nil, v.errf(st.pc, "unknown instruction class %#x", ins.Class())
}
