package lang

import (
	"fmt"
	"sort"
)

// TypeError is a semantic rejection by the checker — the moral equivalent
// of rustc refusing to build the extension.
type TypeError struct {
	Line int
	Msg  string
}

func (e *TypeError) Error() string { return fmt.Sprintf("slx:%d: %s", e.Line, e.Msg) }

// Checked is the typed program: the AST plus the facts codegen needs.
type Checked struct {
	File *File
	// ExprTypes records the resolved type of every expression.
	ExprTypes map[Expr]Type
	// SignedCmp records, per comparison, whether it is signed.
	SignedCmp map[*BinaryExpr]bool
	// MapArgs records which call arguments are map references.
	MapArgs map[Expr]*MapDecl
	// CrateCalls lists the crate functions the program uses — the
	// capability set the toolchain audits and embeds in the object.
	CrateCalls []string
}

// Check type-checks a parsed file. The entry point must be
// fn main(...) -> i64; its parameters are provided by the attach point and
// must all be integers.
func Check(f *File) (*Checked, error) {
	c := &checker{
		file: f,
		out: &Checked{
			File:      f,
			ExprTypes: make(map[Expr]Type),
			SignedCmp: make(map[*BinaryExpr]bool),
			MapArgs:   make(map[Expr]*MapDecl),
		},
		maps:  make(map[string]*MapDecl),
		funcs: make(map[string]*FuncDecl),
		crate: make(map[string]bool),
	}
	for _, m := range f.Maps {
		if _, dup := c.maps[m.Name]; dup {
			return nil, &TypeError{m.Line, fmt.Sprintf("duplicate map %q", m.Name)}
		}
		if err := c.checkMapDecl(m); err != nil {
			return nil, err
		}
		c.maps[m.Name] = m
	}
	for _, fn := range f.Funcs {
		if _, dup := c.funcs[fn.Name]; dup {
			return nil, &TypeError{fn.Line, fmt.Sprintf("duplicate function %q", fn.Name)}
		}
		if _, isCrate := Crate[fn.Name]; isCrate {
			return nil, &TypeError{fn.Line, fmt.Sprintf("function %q shadows a kernel-crate function", fn.Name)}
		}
		c.funcs[fn.Name] = fn
	}
	main := c.funcs["main"]
	if main == nil {
		return nil, &TypeError{0, "no fn main"}
	}
	if main.Ret.Kind != TypeI64 {
		return nil, &TypeError{main.Line, "fn main must return i64"}
	}
	if len(main.Params) != 0 {
		return nil, &TypeError{main.Line, "fn main takes no parameters; program inputs come from kernel-crate calls"}
	}
	for _, fn := range f.Funcs {
		if err := c.checkFunc(fn); err != nil {
			return nil, err
		}
	}
	for name := range c.crate {
		c.out.CrateCalls = append(c.out.CrateCalls, name)
	}
	// Sorted, because CrateCalls becomes the signed CAPS section: map order
	// would make the payload, and its registry digest, differ per process.
	sort.Strings(c.out.CrateCalls)
	return c.out, nil
}

type local struct {
	typ Type
	mut bool
}

type checker struct {
	file  *File
	out   *Checked
	maps  map[string]*MapDecl
	funcs map[string]*FuncDecl
	crate map[string]bool

	fn     *FuncDecl
	scopes []map[string]*local
	loops  int
}

func (c *checker) errf(line int, format string, args ...any) error {
	return &TypeError{line, fmt.Sprintf(format, args...)}
}

func (c *checker) checkMapDecl(m *MapDecl) error {
	if m.Entries <= 0 || m.Entries > 1<<20 {
		return c.errf(m.Line, "map %q: entry count %d out of range", m.Name, m.Entries)
	}
	if m.Kind == "ringbuf" {
		return nil
	}
	if !m.KeyType.IsInteger() {
		return c.errf(m.Line, "map %q: key must be an integer type", m.Name)
	}
	if !m.ValType.IsInteger() {
		return c.errf(m.Line, "map %q: value must be an integer type", m.Name)
	}
	return nil
}

func (c *checker) push() { c.scopes = append(c.scopes, make(map[string]*local)) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(line int, name string, t Type, mut bool) error {
	scope := c.scopes[len(c.scopes)-1]
	if _, dup := scope[name]; dup {
		return c.errf(line, "redeclaration of %q in the same scope", name)
	}
	if _, isMap := c.maps[name]; isMap {
		return c.errf(line, "%q shadows a map declaration", name)
	}
	scope[name] = &local{typ: t, mut: mut}
	return nil
}

func (c *checker) lookup(name string) *local {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if l, ok := c.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

func (c *checker) checkFunc(fn *FuncDecl) error {
	if len(fn.Params) > 5 {
		return c.errf(fn.Line, "function %q has more than 5 parameters", fn.Name)
	}
	c.fn = fn
	c.scopes = nil
	c.push()
	for _, p := range fn.Params {
		if p.Type.Kind == TypeArray || p.Type.Kind == TypeSock {
			return c.errf(fn.Line, "parameter %q: arrays and socks cannot be passed between functions", p.Name)
		}
		if err := c.declare(fn.Line, p.Name, p.Type, false); err != nil {
			return err
		}
	}
	if err := c.checkBlock(fn.Body); err != nil {
		return err
	}
	c.pop()
	return nil
}

func (c *checker) checkBlock(b *Block) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *Block:
		return c.checkBlock(s)

	case *LetStmt:
		var t Type
		if s.Init != nil {
			it, err := c.checkExpr(s.Init)
			if err != nil {
				return err
			}
			if it.Kind == TypeUnit {
				return c.errf(s.Line, "cannot bind unit value to %q", s.Name)
			}
			if it.Kind == TypeStr {
				return c.errf(s.Line, "string literals can only be crate-call arguments")
			}
			t = it
			if s.HasType {
				if !assignable(s.Type, it) {
					return c.errf(s.Line, "cannot initialize %s with %s", s.Type, it)
				}
				t = s.Type
			}
		} else {
			t = s.Type // array without initializer, zeroed
		}
		if t.Kind == TypeSock && s.Mut {
			return c.errf(s.Line, "sock bindings are immutable")
		}
		return c.declare(s.Line, s.Name, t, s.Mut)

	case *AssignStmt:
		switch target := s.Target.(type) {
		case *VarRef:
			l := c.lookup(target.Name)
			if l == nil {
				return c.errf(s.Line, "assignment to undeclared %q", target.Name)
			}
			if !l.mut {
				return c.errf(s.Line, "cannot assign to immutable %q (declare with let mut)", target.Name)
			}
			if l.typ.Kind == TypeArray {
				return c.errf(s.Line, "cannot assign whole arrays")
			}
			c.out.ExprTypes[target] = l.typ
			vt, err := c.checkExpr(s.Value)
			if err != nil {
				return err
			}
			if !assignable(l.typ, vt) {
				return c.errf(s.Line, "cannot assign %s to %q of type %s", vt, target.Name, l.typ)
			}
			if s.Op != "=" && !l.typ.IsInteger() {
				return c.errf(s.Line, "compound assignment needs integers")
			}
		case *IndexExpr:
			et, err := c.checkExpr(target)
			if err != nil {
				return err
			}
			vt, err := c.checkExpr(s.Value)
			if err != nil {
				return err
			}
			if !vt.IsInteger() {
				return c.errf(s.Line, "array elements take integers, got %s", vt)
			}
			_ = et
		default:
			return c.errf(s.Line, "invalid assignment target")
		}
		return nil

	case *ExprStmt:
		_, err := c.checkExpr(s.X)
		return err

	case *IfStmt:
		t, err := c.checkExpr(s.Cond)
		if err != nil {
			return err
		}
		if t.Kind != TypeBool {
			return c.errf(s.Line, "if condition must be bool, got %s", t)
		}
		if err := c.checkBlock(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkStmt(s.Else)
		}
		return nil

	case *WhileStmt:
		t, err := c.checkExpr(s.Cond)
		if err != nil {
			return err
		}
		if t.Kind != TypeBool {
			return c.errf(s.Line, "while condition must be bool, got %s", t)
		}
		c.loops++
		err = c.checkBlock(s.Body)
		c.loops--
		return err

	case *ForStmt:
		ft, err := c.checkExpr(s.From)
		if err != nil {
			return err
		}
		tt, err := c.checkExpr(s.To)
		if err != nil {
			return err
		}
		if !ft.IsInteger() || !tt.IsInteger() {
			return c.errf(s.Line, "for bounds must be integers")
		}
		c.push()
		if err := c.declare(s.Line, s.Var, Type{Kind: TypeI64}, false); err != nil {
			return err
		}
		c.loops++
		err = c.checkBlock(s.Body)
		c.loops--
		c.pop()
		return err

	case *ReturnStmt:
		if s.Value == nil {
			if c.fn.Ret.Kind != TypeUnit {
				return c.errf(s.Line, "function %q must return %s", c.fn.Name, c.fn.Ret)
			}
			return nil
		}
		t, err := c.checkExpr(s.Value)
		if err != nil {
			return err
		}
		if t.Kind == TypeSock {
			return c.errf(s.Line, "sock handles cannot escape their scope")
		}
		if !assignable(c.fn.Ret, t) {
			return c.errf(s.Line, "function %q returns %s, got %s", c.fn.Name, c.fn.Ret, t)
		}
		return nil

	case *BreakStmt:
		if c.loops == 0 {
			return c.errf(s.Line, "break outside loop")
		}
		return nil

	case *ContinueStmt:
		if c.loops == 0 {
			return c.errf(s.Line, "continue outside loop")
		}
		return nil

	case *SyncStmt:
		m := c.maps[s.Map]
		if m == nil {
			return c.errf(s.Line, "sync on undeclared map %q", s.Map)
		}
		if m.Kind != "hash" && m.Kind != "array" {
			return c.errf(s.Line, "sync requires a keyed map, %q is %s", s.Map, m.Kind)
		}
		kt, err := c.checkExpr(s.Key)
		if err != nil {
			return err
		}
		if !kt.IsInteger() {
			return c.errf(s.Line, "sync key must be an integer")
		}
		c.crate["lock_acquire"] = true
		c.crate["lock_release"] = true
		return c.checkBlock(s.Body)

	case *TrapStmt:
		return nil
	}
	return fmt.Errorf("slx: unknown statement %T", s)
}

// assignable reports whether a value of type from can be stored into to.
// Integer kinds convert freely (operations are 64-bit two's complement);
// everything else needs an exact match.
func assignable(to, from Type) bool {
	if to.IsInteger() && from.IsInteger() {
		return true
	}
	return to == from
}

func (c *checker) checkExpr(e Expr) (Type, error) {
	t, err := c.exprType(e)
	if err != nil {
		return Type{}, err
	}
	c.out.ExprTypes[e] = t
	return t, nil
}

func (c *checker) exprType(e Expr) (Type, error) {
	switch e := e.(type) {
	case *IntLit:
		return Type{Kind: TypeI64}, nil
	case *BoolLit:
		return Type{Kind: TypeBool}, nil
	case *StrLit:
		return Type{Kind: TypeStr}, nil

	case *VarRef:
		if l := c.lookup(e.Name); l != nil {
			return l.typ, nil
		}
		if _, isMap := c.maps[e.Name]; isMap {
			return Type{}, c.errf(e.Line, "map %q can only appear as a crate-call argument", e.Name)
		}
		return Type{}, c.errf(e.Line, "undeclared variable %q", e.Name)

	case *IndexExpr:
		av, ok := e.Arr.(*VarRef)
		if !ok {
			return Type{}, c.errf(e.Line, "only named arrays can be indexed")
		}
		l := c.lookup(av.Name)
		if l == nil || l.typ.Kind != TypeArray {
			return Type{}, c.errf(e.Line, "%q is not an array", av.Name)
		}
		c.out.ExprTypes[e.Arr] = l.typ
		it, err := c.checkExpr(e.Idx)
		if err != nil {
			return Type{}, err
		}
		if !it.IsInteger() {
			return Type{}, c.errf(e.Line, "array index must be an integer")
		}
		return Type{Kind: TypeU8}, nil

	case *UnaryExpr:
		t, err := c.checkExpr(e.X)
		if err != nil {
			return Type{}, err
		}
		switch e.Op {
		case "-":
			if !t.IsInteger() {
				return Type{}, c.errf(e.Line, "unary - needs an integer, got %s", t)
			}
			return Type{Kind: TypeI64}, nil
		case "!":
			if t.Kind != TypeBool {
				return Type{}, c.errf(e.Line, "unary ! needs bool, got %s", t)
			}
			return t, nil
		}
		return Type{}, c.errf(e.Line, "unknown unary operator %q", e.Op)

	case *BinaryExpr:
		lt, err := c.checkExpr(e.L)
		if err != nil {
			return Type{}, err
		}
		rt, err := c.checkExpr(e.R)
		if err != nil {
			return Type{}, err
		}
		switch e.Op {
		case "&&", "||":
			if lt.Kind != TypeBool || rt.Kind != TypeBool {
				return Type{}, c.errf(e.Line, "%s needs bool operands", e.Op)
			}
			return Type{Kind: TypeBool}, nil
		case "==", "!=", "<", "<=", ">", ">=":
			if lt.Kind == TypeBool && rt.Kind == TypeBool && (e.Op == "==" || e.Op == "!=") {
				c.out.SignedCmp[e] = false
				return Type{Kind: TypeBool}, nil
			}
			if !lt.IsInteger() || !rt.IsInteger() {
				return Type{}, c.errf(e.Line, "%s needs integer operands, got %s and %s", e.Op, lt, rt)
			}
			// Bare integer literals adapt to the other operand's
			// signedness (they are always non-negative; negative literals
			// parse as unary minus, whose result is i64).
			_, lLit := e.L.(*IntLit)
			_, rLit := e.R.(*IntLit)
			switch {
			case lLit && !rLit:
				c.out.SignedCmp[e] = rt.Kind == TypeI64
			case rLit && !lLit:
				c.out.SignedCmp[e] = lt.Kind == TypeI64
			default:
				c.out.SignedCmp[e] = lt.Kind == TypeI64 || rt.Kind == TypeI64
			}
			return Type{Kind: TypeBool}, nil
		default: // arithmetic and bitwise
			if !lt.IsInteger() || !rt.IsInteger() {
				return Type{}, c.errf(e.Line, "%s needs integer operands, got %s and %s", e.Op, lt, rt)
			}
			if lt.Kind == TypeI64 || rt.Kind == TypeI64 {
				return Type{Kind: TypeI64}, nil
			}
			return Type{Kind: TypeU64}, nil
		}

	case *CallExpr:
		if e.Ns == "kernel" {
			return c.checkCrateCall(e)
		}
		if e.Ns != "" {
			return Type{}, c.errf(e.Line, "unknown namespace %q", e.Ns)
		}
		fn := c.funcs[e.Name]
		if fn == nil {
			return Type{}, c.errf(e.Line, "call to undeclared function %q (crate functions need the kernel:: prefix)", e.Name)
		}
		if len(e.Args) != len(fn.Params) {
			return Type{}, c.errf(e.Line, "%q takes %d arguments, got %d", e.Name, len(fn.Params), len(e.Args))
		}
		for i, a := range e.Args {
			at, err := c.checkExpr(a)
			if err != nil {
				return Type{}, err
			}
			if !assignable(fn.Params[i].Type, at) {
				return Type{}, c.errf(e.Line, "%q argument %d: want %s, got %s", e.Name, i+1, fn.Params[i].Type, at)
			}
		}
		return fn.Ret, nil
	}
	return Type{}, fmt.Errorf("slx: unknown expression %T", e)
}

func (c *checker) checkCrateCall(e *CallExpr) (Type, error) {
	cf, ok := Crate[e.Name]
	if !ok {
		return Type{}, c.errf(e.Line, "unknown kernel-crate function %q", e.Name)
	}
	c.crate[e.Name] = true
	min, max := len(cf.Args), len(cf.Args)
	if cf.VariadicInts {
		max += 3
	}
	if len(e.Args) < min || len(e.Args) > max {
		return Type{}, c.errf(e.Line, "kernel::%s takes %d..%d arguments, got %d", e.Name, min, max, len(e.Args))
	}
	for i, a := range e.Args {
		var kind CrateArgKind
		if i < len(cf.Args) {
			kind = cf.Args[i]
		} else {
			kind = CrateInt // variadic tail
		}
		switch kind {
		case CrateInt:
			at, err := c.checkExpr(a)
			if err != nil {
				return Type{}, err
			}
			if !at.IsInteger() {
				return Type{}, c.errf(e.Line, "kernel::%s argument %d: want integer, got %s", e.Name, i+1, at)
			}
		case CrateStr:
			if _, ok := a.(*StrLit); !ok {
				return Type{}, c.errf(e.Line, "kernel::%s argument %d: want string literal", e.Name, i+1)
			}
			c.out.ExprTypes[a] = Type{Kind: TypeStr}
		case CrateMap:
			vr, ok := a.(*VarRef)
			if !ok {
				return Type{}, c.errf(e.Line, "kernel::%s argument %d: want map name", e.Name, i+1)
			}
			m := c.maps[vr.Name]
			if m == nil {
				return Type{}, c.errf(e.Line, "kernel::%s argument %d: %q is not a declared map", e.Name, i+1, vr.Name)
			}
			if cf.MapKind != "" && m.Kind != cf.MapKind {
				return Type{}, c.errf(e.Line, "kernel::%s needs a %s map, %q is %s", e.Name, cf.MapKind, vr.Name, m.Kind)
			}
			if cf.MapKind == "" && m.Kind == "ringbuf" {
				return Type{}, c.errf(e.Line, "kernel::%s needs a keyed map, %q is a ringbuf", e.Name, vr.Name)
			}
			c.out.MapArgs[a] = m
		case CrateBuf:
			vr, ok := a.(*VarRef)
			if !ok {
				return Type{}, c.errf(e.Line, "kernel::%s argument %d: want array variable", e.Name, i+1)
			}
			l := c.lookup(vr.Name)
			if l == nil || l.typ.Kind != TypeArray {
				return Type{}, c.errf(e.Line, "kernel::%s argument %d: %q is not an array", e.Name, i+1, vr.Name)
			}
			c.out.ExprTypes[a] = l.typ
		case CrateSock:
			at, err := c.checkExpr(a)
			if err != nil {
				return Type{}, err
			}
			if at.Kind != TypeSock {
				return Type{}, c.errf(e.Line, "kernel::%s argument %d: want sock, got %s", e.Name, i+1, at)
			}
		}
	}
	return cf.Ret, nil
}
