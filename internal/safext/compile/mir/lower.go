package mir

import (
	"fmt"

	"kex/internal/safext/lang"
)

// Error is a lowering failure (mirrors compile.Error's shape).
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("slxc:%d: %s", e.Line, e.Msg) }

// LowerFunc lowers one checked function to MIR with every check site in
// state SiteEmit; the analyze package's elision pass discharges the ones
// it proves.
//
// Lowering fixes the evaluation order once for every level — operand
// order, crate-call argument order, for-loop bound snapshots, cleanup
// emission on every exit path — so builds at different levels differ only
// in instruction count, never in observable behavior.
func LowerFunc(fn *lang.FuncDecl, checked *lang.Checked) (*Func, error) {
	lo := &lowerer{
		f:       &Func{Name: fn.Name, NParams: len(fn.Params), MapKinds: make(map[string]string)},
		checked: checked,
	}
	for _, m := range checked.File.Maps {
		lo.f.MapKinds[m.Name] = m.Kind
	}
	entry := lo.placeNew()
	lo.cur = entry
	lo.pushScope()
	for i, p := range fn.Params {
		v := lo.f.NewVReg()
		lo.emit(Insn{Op: OpParam, Dst: v, Imm: int64(i), Site: SiteNone, Line: fn.Line})
		lo.declare(p.Name, binding{v: v, typ: p.Type})
	}
	if err := lo.lowerBlock(fn.Body); err != nil {
		return nil, err
	}
	// Implicit fall-off return: unit/forgotten paths return 0.
	lo.emitCleanups(0)
	lo.seal(Terminator{Kind: TermRet, RetIsImm: true, Line: fn.Line})
	lo.popScope()
	return lo.f, nil
}

type binding struct {
	v     VReg
	arr   int
	isArr bool
	typ   lang.Type
}

type mirCleanup struct {
	kind    string // "sock" or "lock"
	v       VReg   // sock handle or lock key
	mapName string
	depth   int
}

type mirLoop struct {
	loop       *Loop
	latch      BlockID
	exit       BlockID
	cleanupLen int
}

type lowerer struct {
	f       *Func
	checked *lang.Checked

	cur      *Block
	scopes   []map[string]binding
	cleanups []mirCleanup
	loops    []*mirLoop

	nextID BlockID
}

// ---- block plumbing ---------------------------------------------------------

// newDeferred creates a block with a stable ID but defers its position in
// the layout until place is called (needed for forward branch targets).
// Blocks created while a loop frame is active are recorded as loop members.
func (lo *lowerer) newDeferred() *Block {
	b := &Block{ID: lo.nextID}
	lo.nextID++
	lo.f.registerBlock(b)
	for _, lf := range lo.loops {
		lf.loop.Blocks = append(lf.loop.Blocks, b.ID)
	}
	return b
}

func (lo *lowerer) place(b *Block) *Block {
	lo.f.Blocks = append(lo.f.Blocks, b)
	return b
}

func (lo *lowerer) placeNew() *Block { return lo.place(lo.newDeferred()) }

func (lo *lowerer) emit(in Insn) {
	lo.cur.Insns = append(lo.cur.Insns, in)
}

// seal sets the current block's terminator unless it already has one
// (statements after return/trap/break lower into a fresh unreachable block,
// whose tail terminator is whatever the structure produces — swept later).
func (lo *lowerer) seal(t Terminator) {
	if lo.cur.Term.Kind == TermNone {
		lo.cur.Term = t
	}
}

// sealJmp terminates the current block with a jump and makes target the
// current block.
func (lo *lowerer) sealTo(target *Block) {
	lo.seal(Terminator{Kind: TermJmp, To: target.ID})
	lo.cur = target
}

// ---- scopes and cleanups ----------------------------------------------------

func (lo *lowerer) pushScope() { lo.scopes = append(lo.scopes, make(map[string]binding)) }

func (lo *lowerer) popScope() { lo.scopes = lo.scopes[:len(lo.scopes)-1] }

func (lo *lowerer) popScopeWithCleanups() {
	depth := len(lo.scopes)
	for len(lo.cleanups) > 0 && lo.cleanups[len(lo.cleanups)-1].depth >= depth {
		cl := lo.cleanups[len(lo.cleanups)-1]
		lo.cleanups = lo.cleanups[:len(lo.cleanups)-1]
		lo.emitCleanup(cl)
	}
	lo.popScope()
}

func (lo *lowerer) declare(name string, b binding) {
	lo.scopes[len(lo.scopes)-1][name] = b
}

func (lo *lowerer) lookup(name string) (binding, bool) {
	for i := len(lo.scopes) - 1; i >= 0; i-- {
		if b, ok := lo.scopes[i][name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

func (lo *lowerer) emitCleanup(cl mirCleanup) {
	switch cl.kind {
	case "sock":
		lo.emit(Insn{Op: OpCallCrate, Dst: lo.f.NewVReg(), Name: "sock_release",
			Args: []Arg{{Kind: lang.CrateSock, V: cl.v}}, Arr: -1, Site: SiteNone})
	case "lock":
		lo.emit(Insn{Op: OpCallCrate, Dst: lo.f.NewVReg(), Name: "lock_release",
			Args: []Arg{{Kind: lang.CrateMap, Sym: cl.mapName}, {Kind: lang.CrateInt, V: cl.v}}, Arr: -1, Site: SiteNone})
	}
}

// emitCleanups emits releases for every cleanup deeper than keep without
// popping them (return/break/continue paths).
func (lo *lowerer) emitCleanups(keep int) {
	for i := len(lo.cleanups) - 1; i >= keep; i-- {
		lo.emitCleanup(lo.cleanups[i])
	}
}

// ---- statements -------------------------------------------------------------

func (lo *lowerer) lowerBlock(b *lang.Block) error {
	lo.pushScope()
	for _, s := range b.Stmts {
		if err := lo.lowerStmt(s); err != nil {
			return err
		}
	}
	lo.popScopeWithCleanups()
	return nil
}

func (lo *lowerer) lowerStmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.Block:
		return lo.lowerBlock(s)

	case *lang.LetStmt:
		if s.Init == nil {
			ord := len(lo.f.Arrays)
			lo.f.Arrays = append(lo.f.Arrays, s.Type.Size())
			lo.declare(s.Name, binding{arr: ord, isArr: true, typ: s.Type})
			lo.emit(Insn{Op: OpArrZero, Arr: ord, Site: SiteNone, Line: s.Line})
			return nil
		}
		t := lo.checked.ExprTypes[s.Init]
		v, err := lo.lowerExpr(s.Init)
		if err != nil {
			return err
		}
		dv := lo.f.NewVReg()
		lo.emit(Insn{Op: OpCopy, Dst: dv, A: v, Arr: -1, Site: SiteNone, Line: s.Line})
		declType := t
		if s.HasType {
			declType = s.Type
		}
		lo.declare(s.Name, binding{v: dv, typ: declType})
		if t.Kind == lang.TypeSock {
			lo.cleanups = append(lo.cleanups, mirCleanup{kind: "sock", v: dv, depth: len(lo.scopes)})
		}
		return nil

	case *lang.AssignStmt:
		return lo.lowerAssign(s)

	case *lang.ExprStmt:
		_, err := lo.lowerExpr(s.X)
		return err

	case *lang.IfStmt:
		return lo.lowerIf(s)

	case *lang.WhileStmt:
		return lo.lowerWhile(s)

	case *lang.ForStmt:
		return lo.lowerFor(s)

	case *lang.ReturnStmt:
		var term Terminator
		if s.Value != nil {
			v, err := lo.lowerExpr(s.Value)
			if err != nil {
				return err
			}
			term = Terminator{Kind: TermRet, Ret: v, Line: s.Line}
		} else {
			term = Terminator{Kind: TermRet, RetIsImm: true, Line: s.Line}
		}
		lo.emitCleanups(0)
		lo.seal(term)
		lo.cur = lo.placeNew() // unreachable continuation, swept later
		return nil

	case *lang.BreakStmt:
		if len(lo.loops) == 0 {
			return &Error{s.Line, "break outside loop"}
		}
		lf := lo.loops[len(lo.loops)-1]
		lo.emitCleanups(lf.cleanupLen)
		lo.seal(Terminator{Kind: TermJmp, To: lf.exit, Line: s.Line})
		lo.cur = lo.placeNew()
		return nil

	case *lang.ContinueStmt:
		if len(lo.loops) == 0 {
			return &Error{s.Line, "continue outside loop"}
		}
		lf := lo.loops[len(lo.loops)-1]
		lo.emitCleanups(lf.cleanupLen)
		lo.seal(Terminator{Kind: TermJmp, To: lf.latch, Line: s.Line})
		lo.cur = lo.placeNew()
		return nil

	case *lang.SyncStmt:
		kv, err := lo.lowerExpr(s.Key)
		if err != nil {
			return err
		}
		key := lo.f.NewVReg()
		lo.emit(Insn{Op: OpCopy, Dst: key, A: kv, Arr: -1, Site: SiteNone, Line: s.Line})
		lo.emit(Insn{Op: OpCallCrate, Dst: lo.f.NewVReg(), Name: "lock_acquire",
			Args: []Arg{{Kind: lang.CrateMap, Sym: s.Map}, {Kind: lang.CrateInt, V: key}}, Arr: -1, Site: SiteNone, Line: s.Line})
		lo.pushScope()
		lo.cleanups = append(lo.cleanups, mirCleanup{kind: "lock", v: key, mapName: s.Map, depth: len(lo.scopes)})
		for _, inner := range s.Body.Stmts {
			if err := lo.lowerStmt(inner); err != nil {
				return err
			}
		}
		lo.popScopeWithCleanups()
		return nil

	case *lang.TrapStmt:
		lo.seal(Terminator{Kind: TermTrap, TrapCode: 1, Line: s.Line}) // compile.TrapExplicit
		lo.cur = lo.placeNew()
		return nil
	}
	return fmt.Errorf("mir: unknown statement %T", s)
}

func (lo *lowerer) lowerIf(s *lang.IfStmt) error {
	thenB := lo.newDeferred()
	join := lo.newDeferred()
	elseTarget := join
	var elseB *Block
	if s.Else != nil {
		elseB = lo.newDeferred()
		elseTarget = elseB
	}
	if err := lo.lowerCond(s.Cond, thenB.ID, elseTarget.ID); err != nil {
		return err
	}
	lo.place(thenB)
	lo.cur = thenB
	if err := lo.lowerBlock(s.Then); err != nil {
		return err
	}
	lo.sealTo(join) // join placed below; cur switches there after else
	if s.Else != nil {
		lo.place(elseB)
		lo.cur = elseB
		if err := lo.lowerStmt(s.Else); err != nil {
			return err
		}
		lo.seal(Terminator{Kind: TermJmp, To: join.ID})
	}
	lo.place(join)
	lo.cur = join
	return nil
}

// beginLoop builds preheader/header/exit/latch scaffolding shared by while
// and for. The preheader is the unique outside entry — the LICM landing
// pad. The exit and latch have stable IDs before the body lowers so break
// and continue can target them.
func (lo *lowerer) beginLoop() (header, latch, exit *Block, loop *Loop) {
	pre := lo.placeNew()
	lo.sealTo(pre) // previous block falls into the preheader
	exit = lo.newDeferred()
	header = lo.newDeferred()
	loop = &Loop{Preheader: pre.ID, Header: header.ID, Exit: exit.ID}
	loop.Blocks = append(loop.Blocks, header.ID)
	lo.f.Loops = append(lo.f.Loops, loop)
	lf := &mirLoop{loop: loop, exit: exit.ID, cleanupLen: len(lo.cleanups)}
	lo.loops = append(lo.loops, lf)
	latch = lo.newDeferred() // created inside the frame: a loop member
	lf.latch = latch.ID
	loop.Latch = latch.ID
	pre.Term = Terminator{Kind: TermJmp, To: header.ID}
	lo.place(header)
	lo.cur = header
	return header, latch, exit, loop
}

func (lo *lowerer) endLoop(latch, exit *Block, header *Block) {
	lo.sealTo(latch) // body falls into the latch
	lo.place(latch)
	latch.Term = Terminator{Kind: TermJmp, To: header.ID}
	lo.loops = lo.loops[:len(lo.loops)-1]
	lo.place(exit)
	lo.cur = exit
}

func (lo *lowerer) lowerWhile(s *lang.WhileStmt) error {
	header, latch, exit, _ := lo.beginLoop()
	bodyStart := lo.newDeferred()
	if err := lo.lowerCond(s.Cond, bodyStart.ID, exit.ID); err != nil {
		return err
	}
	lo.place(bodyStart)
	lo.cur = bodyStart
	if err := lo.lowerBlock(s.Body); err != nil {
		return err
	}
	lo.endLoop(latch, exit, header)
	return nil
}

func (lo *lowerer) lowerFor(s *lang.ForStmt) error {
	// for v in from..to — to is evaluated first and snapshotted, so the
	// body cannot move the bound.
	tv, err := lo.lowerExpr(s.To)
	if err != nil {
		return err
	}
	to := lo.f.NewVReg()
	lo.emit(Insn{Op: OpCopy, Dst: to, A: tv, Arr: -1, Site: SiteNone, Line: s.Line})
	fv, err := lo.lowerExpr(s.From)
	if err != nil {
		return err
	}
	v := lo.f.NewVReg()
	lo.emit(Insn{Op: OpCopy, Dst: v, A: fv, Arr: -1, Site: SiteNone, Line: s.Line})

	lo.pushScope()
	lo.declare(s.Var, binding{v: v, typ: lang.Type{Kind: lang.TypeI64}})

	header, latch, exit, _ := lo.beginLoop()
	bodyStart := lo.newDeferred()
	// v >= to (signed) exits the loop.
	header.Term = Terminator{Kind: TermCond, Rel: ">=", Signed: true, A: v, B: to,
		To: exit.ID, Else: bodyStart.ID, Line: s.Line}
	lo.place(bodyStart)
	lo.cur = bodyStart
	if err := lo.lowerBlock(s.Body); err != nil {
		return err
	}
	// The latch increments the induction variable.
	latch.Insns = append(latch.Insns, Insn{Op: OpBin, Bin: "+", Dst: v, A: v,
		BIsImm: true, BImm: 1, Arr: -1, Site: SiteNone, Line: s.Line})
	lo.endLoop(latch, exit, header)
	lo.popScope()
	return nil
}

func (lo *lowerer) lowerAssign(s *lang.AssignStmt) error {
	switch target := s.Target.(type) {
	case *lang.VarRef:
		b, ok := lo.lookup(target.Name)
		if !ok {
			return &Error{s.Line, "undeclared variable " + target.Name}
		}
		v, err := lo.lowerExpr(s.Value)
		if err != nil {
			return err
		}
		if s.Op == "=" {
			lo.emit(Insn{Op: OpCopy, Dst: b.v, A: v, Arr: -1, Site: SiteNone, Line: s.Line})
			return nil
		}
		op := s.Op[:1]
		site := SiteNone
		if op == "/" || op == "%" {
			site = lo.f.newSite("div", s.Line)
		}
		lo.emit(Insn{Op: OpBin, Bin: op, Dst: b.v, A: b.v, B: v, Arr: -1, Site: site, Line: s.Line})
		return nil

	case *lang.IndexExpr:
		av := target.Arr.(*lang.VarRef)
		b, ok := lo.lookup(av.Name)
		if !ok || !b.isArr {
			return &Error{s.Line, av.Name + " is not an array"}
		}
		idx, err := lo.lowerExpr(target.Idx)
		if err != nil {
			return err
		}
		val, err := lo.lowerExpr(s.Value)
		if err != nil {
			return err
		}
		site := lo.f.newSite("bounds", target.Line)
		if s.Op == "=" {
			lo.emit(Insn{Op: OpArrStore, Arr: b.arr, A: idx, B: val, Site: site, Line: s.Line})
			return nil
		}
		// Compound: checked load, operate, store (the load's check covers
		// the store — same index, same bounds).
		tmp := lo.f.NewVReg()
		lo.emit(Insn{Op: OpArrLoad, Dst: tmp, Arr: b.arr, A: idx, Site: site, Line: s.Line})
		op := s.Op[:1]
		divSite := SiteNone
		if op == "/" || op == "%" {
			divSite = lo.f.newSite("div", s.Line)
		}
		res := lo.f.NewVReg()
		lo.emit(Insn{Op: OpBin, Bin: op, Dst: res, A: tmp, B: val, Arr: -1, Site: divSite, Line: s.Line})
		lo.emit(Insn{Op: OpArrStore, Arr: b.arr, A: idx, B: res, Site: SiteNone, Line: s.Line})
		return nil
	}
	return &Error{s.Line, "invalid assignment target"}
}

// ---- conditions as control flow --------------------------------------------

// lowerCond lowers e as a branch to t (true) or f (false), fusing
// comparisons into the terminator instead of materializing booleans.
func (lo *lowerer) lowerCond(e lang.Expr, t, f BlockID) error {
	switch e := e.(type) {
	case *lang.BoolLit:
		to := f
		if e.Value {
			to = t
		}
		lo.seal(Terminator{Kind: TermJmp, To: to, Line: e.Line})
		lo.cur = lo.placeNew()
		return nil

	case *lang.UnaryExpr:
		if e.Op == "!" {
			return lo.lowerCond(e.X, f, t)
		}

	case *lang.BinaryExpr:
		switch e.Op {
		case "&&":
			mid := lo.newDeferred()
			if err := lo.lowerCond(e.L, mid.ID, f); err != nil {
				return err
			}
			lo.place(mid)
			lo.cur = mid
			return lo.lowerCond(e.R, t, f)
		case "||":
			mid := lo.newDeferred()
			if err := lo.lowerCond(e.L, t, mid.ID); err != nil {
				return err
			}
			lo.place(mid)
			lo.cur = mid
			return lo.lowerCond(e.R, t, f)
		case "==", "!=", "<", "<=", ">", ">=":
			l, err := lo.lowerExpr(e.L)
			if err != nil {
				return err
			}
			r, err := lo.lowerExpr(e.R)
			if err != nil {
				return err
			}
			lo.seal(Terminator{Kind: TermCond, Rel: e.Op, Signed: lo.checked.SignedCmp[e],
				A: l, B: r, To: t, Else: f, Line: e.Line})
			lo.cur = lo.placeNew()
			return nil
		}
	}
	v, err := lo.lowerExpr(e)
	if err != nil {
		return err
	}
	lo.seal(Terminator{Kind: TermCond, Rel: "!=", A: v, BIsImm: true, To: t, Else: f})
	lo.cur = lo.placeNew()
	return nil
}

// ---- expressions ------------------------------------------------------------

func (lo *lowerer) constV(v int64, line int) VReg {
	d := lo.f.NewVReg()
	lo.emit(Insn{Op: OpConst, Dst: d, Imm: v, Arr: -1, Site: SiteNone, Line: line})
	return d
}

func (lo *lowerer) lowerExpr(e lang.Expr) (VReg, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return lo.constV(e.Value, e.Line), nil

	case *lang.BoolLit:
		v := int64(0)
		if e.Value {
			v = 1
		}
		return lo.constV(v, e.Line), nil

	case *lang.StrLit:
		return 0, &Error{e.Line, "string literal outside crate-call argument"}

	case *lang.VarRef:
		b, ok := lo.lookup(e.Name)
		if !ok {
			return 0, &Error{e.Line, "undeclared variable " + e.Name}
		}
		if b.isArr {
			return 0, &Error{e.Line, "arrays have no value; index them or pass them to crate calls"}
		}
		return b.v, nil

	case *lang.IndexExpr:
		av := e.Arr.(*lang.VarRef)
		b, ok := lo.lookup(av.Name)
		if !ok || !b.isArr {
			return 0, &Error{e.Line, av.Name + " is not an array"}
		}
		idx, err := lo.lowerExpr(e.Idx)
		if err != nil {
			return 0, err
		}
		site := lo.f.newSite("bounds", e.Line)
		d := lo.f.NewVReg()
		lo.emit(Insn{Op: OpArrLoad, Dst: d, Arr: b.arr, A: idx, Site: site, Line: e.Line})
		return d, nil

	case *lang.UnaryExpr:
		x, err := lo.lowerExpr(e.X)
		if err != nil {
			return 0, err
		}
		d := lo.f.NewVReg()
		switch e.Op {
		case "-":
			lo.emit(Insn{Op: OpNeg, Dst: d, A: x, Arr: -1, Site: SiteNone, Line: e.Line})
		case "!":
			lo.emit(Insn{Op: OpCmp, Bin: "==", Dst: d, A: x, BIsImm: true, Arr: -1, Site: SiteNone, Line: e.Line})
		default:
			return 0, &Error{e.Line, "unknown unary operator " + e.Op}
		}
		return d, nil

	case *lang.BinaryExpr:
		return lo.lowerBinary(e)

	case *lang.CallExpr:
		if e.Ns == "kernel" {
			return lo.lowerCrateCall(e)
		}
		return lo.lowerUserCall(e)
	}
	return 0, fmt.Errorf("mir: unknown expression %T", e)
}

func (lo *lowerer) lowerBinary(e *lang.BinaryExpr) (VReg, error) {
	switch e.Op {
	case "&&", "||":
		// Value position: lower as control flow into a 0/1 result.
		d := lo.f.NewVReg()
		tB := lo.newDeferred()
		fB := lo.newDeferred()
		join := lo.newDeferred()
		if err := lo.lowerCond(e, tB.ID, fB.ID); err != nil {
			return 0, err
		}
		lo.place(tB)
		tB.Insns = append(tB.Insns, Insn{Op: OpConst, Dst: d, Imm: 1, Arr: -1, Site: SiteNone, Line: e.Line})
		tB.Term = Terminator{Kind: TermJmp, To: join.ID}
		lo.place(fB)
		fB.Insns = append(fB.Insns, Insn{Op: OpConst, Dst: d, Imm: 0, Arr: -1, Site: SiteNone, Line: e.Line})
		fB.Term = Terminator{Kind: TermJmp, To: join.ID}
		lo.place(join)
		lo.cur = join
		return d, nil

	case "==", "!=", "<", "<=", ">", ">=":
		l, err := lo.lowerExpr(e.L)
		if err != nil {
			return 0, err
		}
		r, err := lo.lowerExpr(e.R)
		if err != nil {
			return 0, err
		}
		d := lo.f.NewVReg()
		lo.emit(Insn{Op: OpCmp, Bin: e.Op, Signed: lo.checked.SignedCmp[e],
			Dst: d, A: l, B: r, Arr: -1, Site: SiteNone, Line: e.Line})
		return d, nil
	}

	l, err := lo.lowerExpr(e.L)
	if err != nil {
		return 0, err
	}
	r, err := lo.lowerExpr(e.R)
	if err != nil {
		return 0, err
	}
	site := SiteNone
	switch e.Op {
	case "/", "%":
		site = lo.f.newSite("div", e.Line)
	case "<<", ">>":
		site = lo.f.newSite("shift-mask", e.Line)
	case "+", "-", "*", "&", "|", "^":
	default:
		return 0, &Error{e.Line, "unknown arithmetic operator " + e.Op}
	}
	d := lo.f.NewVReg()
	lo.emit(Insn{Op: OpBin, Bin: e.Op, Dst: d, A: l, B: r, Arr: -1, Site: site, Line: e.Line})
	return d, nil
}

func (lo *lowerer) lowerUserCall(e *lang.CallExpr) (VReg, error) {
	if len(e.Args) > 5 {
		return 0, &Error{e.Line, "too many arguments"}
	}
	args := make([]Arg, 0, len(e.Args))
	for _, a := range e.Args {
		v, err := lo.lowerExpr(a)
		if err != nil {
			return 0, err
		}
		args = append(args, Arg{Kind: lang.CrateInt, V: v})
	}
	d := lo.f.NewVReg()
	lo.emit(Insn{Op: OpCallUser, Dst: d, Name: e.Name, Args: args, Arr: -1, Site: SiteNone, Line: e.Line})
	return d, nil
}

func (lo *lowerer) lowerCrateCall(e *lang.CallExpr) (VReg, error) {
	cf := lang.Crate[e.Name]
	totalRegs := 0
	args := make([]Arg, 0, len(e.Args))
	for i, a := range e.Args {
		kind := lang.CrateInt
		if i < len(cf.Args) {
			kind = cf.Args[i]
		}
		switch kind {
		case lang.CrateInt, lang.CrateSock:
			v, err := lo.lowerExpr(a)
			if err != nil {
				return 0, err
			}
			args = append(args, Arg{Kind: kind, V: v})
			totalRegs++
		case lang.CrateStr:
			s, ok := a.(*lang.StrLit)
			if !ok {
				return 0, &Error{e.Line, "crate argument must be a string literal"}
			}
			args = append(args, Arg{Kind: kind, Str: s.Value})
			totalRegs += 2
		case lang.CrateBuf:
			vr, ok := a.(*lang.VarRef)
			if !ok {
				return 0, &Error{e.Line, "crate argument must be an array variable"}
			}
			b, found := lo.lookup(vr.Name)
			if !found || !b.isArr {
				return 0, &Error{e.Line, vr.Name + " is not an array"}
			}
			args = append(args, Arg{Kind: kind, Arr: b.arr})
			totalRegs += 2
		case lang.CrateMap:
			vr, ok := a.(*lang.VarRef)
			if !ok {
				return 0, &Error{e.Line, "crate argument must be a map name"}
			}
			args = append(args, Arg{Kind: kind, Sym: vr.Name})
			totalRegs++
		}
	}
	if totalRegs > 5 {
		return 0, &Error{e.Line, "crate call needs too many argument registers"}
	}
	d := lo.f.NewVReg()
	lo.emit(Insn{Op: OpCallCrate, Dst: d, Name: e.Name, Args: args, Arr: -1, Site: SiteNone, Line: e.Line})
	return d, nil
}
