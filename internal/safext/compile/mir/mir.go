// Package mir is the SLX compiler's mid-level IR: a basic-block,
// virtual-register form sitting between the typed AST and the eBPF
// bytecode. Every optimization level of package compile lowers through
// it and register-allocates hot values into the callee-saved registers
// R6–R9; at level 2 the toolchain also folds constants, hoists loop
// invariants and eliminates redundant map/array loads — the paper's §3
// bet that a trusted toolchain can spend arbitrary compile-time effort
// because nothing has to be re-verified in the kernel.
//
// The IR is deliberately not SSA: virtual registers are mutable and
// loop-carried variables are multi-def. Passes recover most of SSA's
// benefit from a cheap structural fact instead — a vreg defined exactly
// once in the function holds one value everywhere — which the lowering
// makes common by giving every expression temporary a fresh vreg.
//
// Safety instrumentation travels with the IR as an explicit check-site
// ledger (Func.Sites): every bounds/div/shift-mask site of the source
// program exists here exactly once. Lowering creates each site in state
// Emit (dynamic check); the analyze package's elision pass, a dataflow
// analysis over this IR, moves the sites it proves to Elided, and the
// optimizer's passes move the ones they discharge to Folded (e.g. a
// divisor that folded to a non-zero constant). The ledger invariant
// "naive emitted == optimized emitted + elided" is therefore preserved at
// every optimization level, and a fresh lowering is the naive build.
package mir

import (
	"fmt"
	"strings"

	"kex/internal/safext/lang"
)

// VReg names a virtual register. 0 is "none"; real vregs are 1-based.
type VReg int32

// BlockID names a basic block. IDs are stable across passes; layout order
// is Func.Blocks.
type BlockID int32

// OpKind enumerates IR instructions.
type OpKind uint8

const (
	// OpParam moves incoming argument Imm (0-based) into Dst.
	OpParam OpKind = iota
	// OpConst sets Dst = Imm.
	OpConst
	// OpCopy sets Dst = A.
	OpCopy
	// OpBin sets Dst = A <Bin> B, 64-bit wraparound semantics. Division
	// and modulo carry a div check site; shifts carry a mask site.
	OpBin
	// OpNeg sets Dst = -A (two's complement).
	OpNeg
	// OpCmp sets Dst = 1 if A <Bin> B else 0; Signed selects the compare.
	OpCmp
	// OpArrLoad sets Dst = array[A] (byte, zero-extended); Site is the
	// bounds check.
	OpArrLoad
	// OpArrStore stores the low byte of B at array[A]; Site is the bounds
	// check (SiteNone when a preceding load on the same index checked it).
	OpArrStore
	// OpArrZero zeroes the array (fresh declaration).
	OpArrZero
	// OpCallCrate calls kernel-crate entry point Name with Args.
	OpCallCrate
	// OpCallUser calls SLX function Name with integer Args.
	OpCallUser
)

// SiteNone marks an instruction with no check site.
const SiteNone = -1

// SiteState is the lifecycle of one check site.
type SiteState uint8

const (
	// SiteEmit: the dynamic check is compiled in.
	SiteEmit SiteState = iota
	// SiteElided: the elision pass proved the check redundant.
	SiteElided
	// SiteFolded: an optimization pass discharged the check (constant
	// index in range, constant non-zero divisor, constant shift amount).
	SiteFolded
)

// Site is one safety-check site from the source program.
type Site struct {
	Kind  string // "bounds", "div", "shift-mask" — matches compile.Elision
	State SiteState
	Line  int
}

// Arg is one crate/user call argument.
type Arg struct {
	Kind  lang.CrateArgKind
	V     VReg  // CrateInt / CrateSock value
	Imm   int64 // constant-folded integer argument
	IsImm bool
	Str   string // CrateStr literal
	Arr   int    // CrateBuf array ordinal
	Sym   string // CrateMap map name
}

// Insn is one IR instruction. B-side operands of OpBin/OpCmp/OpArrStore
// and the index of array accesses may be folded to immediates by the
// optimizer; emission picks immediate instruction forms for them.
type Insn struct {
	Op  OpKind
	Dst VReg
	A   VReg
	B   VReg

	BImm   int64
	BIsImm bool

	IdxImm   int64 // resolved constant index for OpArrLoad/OpArrStore
	IdxIsImm bool

	Bin    string // operator for OpBin, relation for OpCmp
	Signed bool   // OpCmp signedness

	Arr  int // array ordinal for array ops (else -1)
	Imm  int64
	Name string
	Args []Arg

	Site int // index into Func.Sites, or SiteNone
	Line int
}

// TermKind enumerates block terminators.
type TermKind uint8

const (
	// TermNone marks an unfinished block (only during lowering).
	TermNone TermKind = iota
	TermJmp
	TermCond
	TermRet
	TermTrap
)

// Terminator ends a block.
type Terminator struct {
	Kind     TermKind
	Rel      string // TermCond relation: == != < <= > >=
	Signed   bool
	A, B     VReg
	BImm     int64
	BIsImm   bool
	To       BlockID // TermJmp target; TermCond true edge
	Else     BlockID // TermCond false edge
	Ret      VReg    // TermRet value
	RetImm   int64
	RetIsImm bool
	TrapCode int64
	Line     int
}

// Block is one basic block.
type Block struct {
	ID    BlockID
	Insns []Insn
	Term  Terminator
}

// Loop records one source loop with the landing pad LICM hoists into.
// Blocks lists every block lowered inside the loop (header, body, latch,
// and any condition/join blocks of nested constructs).
type Loop struct {
	Preheader BlockID
	Header    BlockID
	Latch     BlockID
	Exit      BlockID
	Blocks    []BlockID
}

// Func is one lowered function.
type Func struct {
	Name    string
	NParams int
	// Blocks in layout order; Blocks[0] is the entry.
	Blocks []*Block
	// Loops in lowering (outermost-first) order.
	Loops []*Loop
	// Sites is the check-site ledger; see the package comment.
	Sites []Site
	// Arrays holds the byte length of each declared array, by ordinal.
	Arrays []int64
	// MapKinds maps declared map names to their kind ("hash", "percpu",
	// ...) — consulted by redundant-load elimination.
	MapKinds map[string]string
	// NumVRegs is the highest vreg number in use.
	NumVRegs int

	byID map[BlockID]*Block
}

// NewVReg returns a fresh virtual register.
func (f *Func) NewVReg() VReg {
	f.NumVRegs++
	return VReg(f.NumVRegs)
}

// BlockByID resolves a block ID (passes keep IDs stable).
func (f *Func) BlockByID(id BlockID) *Block { return f.byID[id] }

func (f *Func) registerBlock(b *Block) {
	if f.byID == nil {
		f.byID = make(map[BlockID]*Block)
	}
	f.byID[b.ID] = b
}

// Succs returns a terminator's successor blocks.
func (t *Terminator) Succs() []BlockID {
	switch t.Kind {
	case TermJmp:
		return []BlockID{t.To}
	case TermCond:
		if t.To == t.Else {
			return []BlockID{t.To}
		}
		return []BlockID{t.To, t.Else}
	}
	return nil
}

// newSite appends a check site, in state SiteEmit, and returns its index.
func (f *Func) newSite(kind string, line int) int {
	f.Sites = append(f.Sites, Site{Kind: kind, Line: line})
	return len(f.Sites) - 1
}

// ---- deterministic dump -----------------------------------------------------

// String renders the function deterministically (used by tests asserting
// build determinism and for debugging). Output depends only on the IR.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fn %s(%d params) vregs=%d\n", f.Name, f.NParams, f.NumVRegs)
	for i, a := range f.Arrays {
		fmt.Fprintf(&sb, "  arr%d: [%d]\n", i, a)
	}
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:\n", b.ID)
		for _, in := range b.Insns {
			fmt.Fprintf(&sb, "  %s\n", in.String())
		}
		fmt.Fprintf(&sb, "  %s\n", b.Term.String())
	}
	for _, s := range f.Sites {
		fmt.Fprintf(&sb, "site %s@%d state=%d\n", s.Kind, s.Line, s.State)
	}
	return sb.String()
}

func (in Insn) String() string {
	site := ""
	if in.Site != SiteNone {
		site = fmt.Sprintf(" site=%d", in.Site)
	}
	switch in.Op {
	case OpParam:
		return fmt.Sprintf("v%d = param%d", in.Dst, in.Imm)
	case OpConst:
		return fmt.Sprintf("v%d = const %d", in.Dst, in.Imm)
	case OpCopy:
		return fmt.Sprintf("v%d = v%d", in.Dst, in.A)
	case OpBin:
		return fmt.Sprintf("v%d = v%d %s %s%s", in.Dst, in.A, in.Bin, in.bOperand(), site)
	case OpNeg:
		return fmt.Sprintf("v%d = -v%d", in.Dst, in.A)
	case OpCmp:
		s := "u"
		if in.Signed {
			s = "s"
		}
		return fmt.Sprintf("v%d = v%d %s.%s %s", in.Dst, in.A, in.Bin, s, in.bOperand())
	case OpArrLoad:
		return fmt.Sprintf("v%d = arr%d[%s]%s", in.Dst, in.Arr, in.idxOperand(), site)
	case OpArrStore:
		return fmt.Sprintf("arr%d[%s] = %s%s", in.Arr, in.idxOperand(), in.bOperand(), site)
	case OpArrZero:
		return fmt.Sprintf("zero arr%d", in.Arr)
	case OpCallCrate, OpCallUser:
		ns := ""
		if in.Op == OpCallCrate {
			ns = "kernel::"
		}
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			switch {
			case a.IsImm:
				args[i] = fmt.Sprintf("%d", a.Imm)
			case a.Kind == lang.CrateStr:
				args[i] = fmt.Sprintf("%q", a.Str)
			case a.Kind == lang.CrateBuf:
				args[i] = fmt.Sprintf("arr%d", a.Arr)
			case a.Kind == lang.CrateMap:
				args[i] = a.Sym
			default:
				args[i] = fmt.Sprintf("v%d", a.V)
			}
		}
		return fmt.Sprintf("v%d = %s%s(%s)", in.Dst, ns, in.Name, strings.Join(args, ", "))
	}
	return fmt.Sprintf("op%d?", in.Op)
}

func (in Insn) bOperand() string {
	if in.BIsImm {
		return fmt.Sprintf("%d", in.BImm)
	}
	return fmt.Sprintf("v%d", in.B)
}

func (in Insn) idxOperand() string {
	if in.IdxIsImm {
		return fmt.Sprintf("%d", in.IdxImm)
	}
	return fmt.Sprintf("v%d", in.A)
}

func (t Terminator) String() string {
	switch t.Kind {
	case TermJmp:
		return fmt.Sprintf("jmp b%d", t.To)
	case TermCond:
		b := fmt.Sprintf("v%d", t.B)
		if t.BIsImm {
			b = fmt.Sprintf("%d", t.BImm)
		}
		s := "u"
		if t.Signed {
			s = "s"
		}
		return fmt.Sprintf("if v%d %s.%s %s -> b%d else b%d", t.A, t.Rel, s, b, t.To, t.Else)
	case TermRet:
		if t.RetIsImm {
			return fmt.Sprintf("ret %d", t.RetImm)
		}
		return fmt.Sprintf("ret v%d", t.Ret)
	case TermTrap:
		return fmt.Sprintf("trap %d", t.TrapCode)
	}
	return "unterminated"
}
