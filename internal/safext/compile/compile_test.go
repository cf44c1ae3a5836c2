package compile_test

import (
	"fmt"
	"strings"
	"testing"

	"kex/internal/ebpf/isa"
	"kex/internal/kernel"
	"kex/internal/safext/compile"
	"kex/internal/safext/lang"
	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

// compileSrc runs the front half of the toolchain.
func compileSrc(t *testing.T, src string) *compile.Object {
	t.Helper()
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	obj, err := compile.Compile("test", checked)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return obj
}

// execSrc runs source end to end and returns the verdict. Codegen tests
// validate semantics by execution, the strongest oracle available.
func execSrc(t *testing.T, src string) *runtime.Verdict {
	t.Helper()
	v, _, err := runSrc(t, src)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

// runSrc builds, signs, loads and runs src once on a fresh kernel, which
// it returns with the run's verdict, and the run's error.
func runSrc(t *testing.T, src string) (*runtime.Verdict, *kernel.Kernel, error) {
	t.Helper()
	k := kernel.NewDefault()
	rt := runtime.New(k, runtime.DefaultConfig())
	signer, err := toolchain.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	rt.AddKey(signer.PublicKey())
	so, err := signer.BuildAndSign("test", src)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ext, err := rt.Load(so)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	v, err := ext.Run(runtime.RunOptions{})
	return v, k, err
}

func expectR0(t *testing.T, src string, want int64) {
	t.Helper()
	v := execSrc(t, src)
	if !v.Completed || v.R0 != want {
		t.Fatalf("verdict = %+v, want R0 = %d", v, want)
	}
}

func TestObjectShape(t *testing.T) {
	obj := compileSrc(t, `
map m: hash<u32, u64>(64);
fn main() -> i64 {
	kernel::trace("hello %d", 1);
	kernel::map_set(m, 1, 2);
	return 0;
}`)
	if obj.EntryPC != 0 {
		t.Fatalf("entry pc = %d", obj.EntryPC)
	}
	// Rodata holds the NUL-terminated format string.
	if !strings.Contains(string(obj.Rodata), "hello %d\x00") {
		t.Fatalf("rodata = %q", obj.Rodata)
	}
	// Structural validity of the emitted code.
	prog := &isa.Program{Name: "t", Type: isa.Tracing, Insns: obj.Insns}
	if err := prog.ValidateStructure(); err != nil {
		t.Fatal(err)
	}
	// Map reference remains symbolic until load-time fixup.
	sawRef := false
	for _, ins := range obj.Insns {
		if ins.IsMapRef() && ins.MapName == "m" {
			sawRef = true
		}
	}
	if !sawRef {
		t.Fatal("no symbolic map reference emitted")
	}
}

func TestOperatorPrecedenceSemantics(t *testing.T) {
	cases := []struct {
		expr string
		want int64
	}{
		{"2 + 3 * 4", 14},
		{"(2 + 3) * 4", 20},
		{"10 - 4 - 3", 3},
		{"1 << 4 | 1", 17},
		{"7 & 3 ^ 1", 2},
		{"100 / 10 / 2", 5},
		{"17 % 5", 2},
		{"0 - 7", -7},
		{"(1 << 62) >> 60", 4},
	}
	for _, c := range cases {
		expectR0(t, "fn main() -> i64 { return "+c.expr+"; }", c.want)
	}
}

func TestComparisonAndLogicSemantics(t *testing.T) {
	cases := []struct {
		cond string
		want int64
	}{
		{"1 < 2", 1},
		{"2 < 1", 0},
		{"2 <= 2", 1},
		{"3 != 3", 0},
		{"true && false", 0},
		{"true || false", 1},
		{"!false", 1},
		{"1 < 2 && 3 > 2", 1},
		{"(0 - 1) < 0", 1}, // signed
	}
	for _, c := range cases {
		src := "fn main() -> i64 { if " + c.cond + " { return 1; } return 0; }"
		expectR0(t, src, c.want)
	}
}

func TestCompoundAssignment(t *testing.T) {
	expectR0(t, `
fn main() -> i64 {
	let mut x: i64 = 10;
	x += 5; x -= 3; x *= 4; x /= 2; x %= 17; x |= 8; x &= 12; x ^= 1;
	return x;
}`, 13)
}

func TestArrayCompoundAssignment(t *testing.T) {
	expectR0(t, `
fn main() -> i64 {
	let mut a: [u8; 4];
	a[1] = 10;
	a[1] += 5;
	a[1] *= 2;
	return a[1];
}`, 30)
}

func TestNestedLoopsWithBreakContinue(t *testing.T) {
	expectR0(t, `
fn main() -> i64 {
	let mut total: i64 = 0;
	for i in 0..10 {
		if i == 3 { continue; }
		if i == 7 { break; }
		for j in 0..10 {
			if j >= 2 { break; }
			total += 1;
		}
		total += 10;
	}
	return total;
}`, 72) // i in {0,1,2,4,5,6}: 6*(10+2)
}

func TestWhileWithContinue(t *testing.T) {
	expectR0(t, `
fn main() -> i64 {
	let mut i: i64 = 0;
	let mut acc: i64 = 0;
	while i < 10 {
		i += 1;
		if i % 2 == 0 { continue; }
		acc += i;
	}
	return acc;
}`, 25) // 1+3+5+7+9
}

func TestDeepExpressionEvalStack(t *testing.T) {
	// Deeply right-nested arithmetic keeps more temporaries live than
	// R6–R9 hold, so the allocator must spill.
	expectR0(t, `
fn main() -> i64 {
	return 1 + (2 + (3 + (4 + (5 + (6 + (7 + (8 + (9 + (10 + (11 + 12))))))))));
}`, 78)
}

func TestFunctionCallsWithFiveArgs(t *testing.T) {
	expectR0(t, `
fn weigh(a: i64, b: i64, c: i64, d: i64, e: i64) -> i64 {
	return a + 2*b + 3*c + 4*d + 5*e;
}
fn main() -> i64 {
	return weigh(1, 2, 3, 4, 5);
}`, 55)
}

// TestCallChainDepth pins how deep SLX calls nest: one engine frame per
// call and none of the runtime's own, so main and 8 nested calls, the 9
// frames the engines run, complete, and a 9th nested call is stopped
// without damage. SLX programs never meet the verifier's 8-frame rule;
// this is the chain the engines' frame of slack keeps running (DESIGN
// §3.1).
func TestCallChainDepth(t *testing.T) {
	chain := func(n int) string {
		var b strings.Builder
		for i := 1; i < n; i++ {
			fmt.Fprintf(&b, "fn f%d(x: i64) -> i64 {\n\treturn f%d(x) + 1;\n}\n", i, i+1)
		}
		fmt.Fprintf(&b, "fn f%d(x: i64) -> i64 {\n\treturn x;\n}\n", n)
		b.WriteString("fn main() -> i64 {\n\treturn f1(1);\n}\n")
		return b.String()
	}
	expectR0(t, chain(8), 8)
	v, k, err := runSrc(t, chain(9))
	if err == nil && v.Completed {
		t.Fatalf("a 10-frame chain completed: %+v", v)
	}
	if !k.Healthy() {
		t.Fatalf("kernel damaged by a 10-frame chain: %v", k.LastOops())
	}
}

func TestRecursionDepthBounded(t *testing.T) {
	// Recursion compiles, and deep recursion is stopped by the engine's
	// call-depth limit rather than corrupting anything: the program is
	// terminated, the kernel survives.
	k := kernel.NewDefault()
	rt := runtime.New(k, runtime.DefaultConfig())
	signer, _ := toolchain.NewSigner()
	rt.AddKey(signer.PublicKey())
	so, err := signer.BuildAndSign("rec", `
fn down(n: i64) -> i64 {
	if n <= 0 { return 0; }
	return down(n - 1);
}
fn main() -> i64 {
	return down(100);
}`)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := rt.Load(so)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ext.Run(runtime.RunOptions{})
	// 100 frames exceed the 9-frame engine limit: terminated, not crashed.
	if err == nil && v.Completed {
		t.Fatalf("deep recursion completed: %+v", v)
	}
	if !k.Healthy() {
		t.Fatalf("kernel damaged by deep recursion: %v", k.LastOops())
	}
	// Shallow recursion works.
	expectR0(t, `
fn fib(n: i64) -> i64 {
	if n < 2 { return n; }
	return fib(n - 1) + fib(n - 2);
}
fn main() -> i64 {
	return fib(7);
}`, 13)
}

func TestSyncInsideLoopWithBreak(t *testing.T) {
	// break out of a loop from inside a sync section must release the
	// lock; a second iteration acquiring it again proves it did.
	expectR0(t, `
map m: hash<u32, u64>(8);
fn main() -> i64 {
	let mut rounds: i64 = 0;
	for i in 0..5 {
		sync(m, 1) {
			kernel::map_set(m, 1, kernel::map_get(m, 1) + 1);
			if i == 2 { break; }
		}
		rounds += 1;
	}
	return rounds * 100 + (kernel::map_get(m, 1) % 100);
}`, 203) // breaks on i==2: 2 full rounds + 3 increments
}

func TestSockReleasedOnBreak(t *testing.T) {
	k := kernel.NewDefault()
	rt := runtime.New(k, runtime.DefaultConfig())
	signer, _ := toolchain.NewSigner()
	rt.AddKey(signer.PublicKey())
	s := k.Sockets().Add("tcp", 1, 2, 3, 4)
	so, err := signer.BuildAndSign("brk", `
fn main() -> i64 {
	for i in 0..3 {
		let h = kernel::sk_lookup_tcp(1, 2, 3, 4);
		if i == 1 { break; } // handle must be released on this path too
	}
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := rt.Load(so)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ext.Run(runtime.RunOptions{})
	if err != nil || !v.Completed {
		t.Fatalf("%+v %v", v, err)
	}
	if c := s.Ref().Count(); c != 1 {
		t.Fatalf("refcount = %d, want 1 (all handles released)", c)
	}
	if v.CleanedSocks != 0 {
		t.Fatalf("runtime cleanup had to intervene: %+v", v)
	}
}

func TestShiftMaskingSemantics(t *testing.T) {
	// SLX masks shift amounts to 0..63.
	expectR0(t, `
fn main() -> i64 {
	let x: i64 = 1;
	let big: i64 = 65; // masks to 1
	return x << big;
}`, 2)
}

func TestTrapCodes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		code int64
	}{
		{"explicit", `fn main() -> i64 { trap; return 0; }`, compile.TrapExplicit},
		{"oob", `fn main() -> i64 { let mut a: [u8; 2]; let i = kernel::rand() % 2 + 2; a[i] = 1; return 0; }`, compile.TrapOOB},
		{"div0", `fn main() -> i64 { let z = kernel::rand() % 1; return 5 / z; }`, compile.TrapDivByZero},
		{"mod0", `fn main() -> i64 { let z = kernel::rand() % 1; return 5 % z; }`, compile.TrapDivByZero},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := execSrc(t, c.src)
			if !v.Terminated || v.Reason != "trap" || v.TrapCode != c.code {
				t.Fatalf("verdict = %+v, want trap code %d", v, c.code)
			}
		})
	}
}

func TestFrameBudgetEnforced(t *testing.T) {
	f, err := lang.Parse(`
fn main() -> i64 {
	let a: [u8; 200];
	let b: [u8; 200];
	let c: [u8; 200];
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compile.Compile("big", checked); err == nil || !strings.Contains(err.Error(), "frame") {
		t.Fatalf("err = %v, want frame budget rejection", err)
	}
}

// manyLocalsSrc declares n locals that are all live until the final sum.
// The packet is empty, so each is its index and main returns 0+1+…+(n-1).
func manyLocalsSrc(n int) string {
	var sb strings.Builder
	sb.WriteString("fn main() -> i64 {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "\tlet v%d = kernel::pkt_len() + %d;\n", i, i)
	}
	sb.WriteString("\treturn v0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, " + v%d", i)
	}
	sb.WriteString(";\n}\n")
	return sb.String()
}

// TestFrameHoldsManyLiveLocals: at every level the frame is the
// function's arrays plus the allocator's spill slots, and values held in
// R6–R9 take none, so 62 and 63 locals live at once fit the 512-byte
// frame even without the optimizer's passes.
func TestFrameHoldsManyLiveLocals(t *testing.T) {
	signer, err := toolchain.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{62, 63} {
		src := manyLocalsSrc(n)
		want := int64(n * (n - 1) / 2)
		for level, build := range []func(string, string) (*toolchain.SignedObject, error){
			signer.BuildAndSign, signer.BuildAndSignOptimized, signer.BuildAndSignOptimizedMIR,
		} {
			so, err := build("locals", src)
			if err != nil {
				t.Fatalf("%d locals, level %d: %v", n, level, err)
			}
			rt := runtime.New(kernel.NewDefault(), runtime.DefaultConfig())
			rt.AddKey(signer.PublicKey())
			ext, err := rt.Load(so)
			if err != nil {
				t.Fatalf("%d locals, level %d: load: %v", n, level, err)
			}
			v, err := ext.Run(runtime.RunOptions{})
			if err != nil || !v.Completed || v.R0 != want {
				t.Fatalf("%d locals, level %d: verdict %+v (%v), want R0 = %d", n, level, v, err, want)
			}
		}
	}
}

func TestZeroedArrays(t *testing.T) {
	expectR0(t, `
fn main() -> i64 {
	let a: [u8; 16];
	let mut sum: i64 = 0;
	for i in 0..16 {
		sum += a[i];
	}
	return sum;
}`, 0)
}

func TestShadowingAcrossScopes(t *testing.T) {
	expectR0(t, `
fn main() -> i64 {
	let x: i64 = 1;
	if true {
		let x: i64 = 2;
		if x != 2 { return -1; }
	}
	return x;
}`, 1)
}

func TestElseIfChains(t *testing.T) {
	src := `
fn classify(n: i64) -> i64 {
	if n < 10 { return 1; }
	else if n < 100 { return 2; }
	else if n < 1000 { return 3; }
	else { return 4; }
}
fn main() -> i64 {
	return classify(5) * 1000 + classify(50) * 100 + classify(500) * 10 + classify(5000);
}`
	expectR0(t, src, 1234)
}
