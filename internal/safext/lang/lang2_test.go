package lang

import (
	"strings"
	"testing"
)

// Second language batch: crate-ID stability, type rendering, the error
// paths the first suite left cold.

func TestCrateIDStability(t *testing.T) {
	names := CrateNames()
	if len(names) != len(Crate)+len(InternalCrate) {
		t.Fatalf("names = %d, want %d", len(names), len(Crate)+len(InternalCrate))
	}
	// Public names sorted, internals appended in declaration order.
	public := names[:len(Crate)]
	for i := 1; i < len(public); i++ {
		if public[i] < public[i-1] {
			t.Fatalf("public names unsorted at %q", public[i])
		}
	}
	for i, internal := range InternalCrate {
		if names[len(Crate)+i] != internal {
			t.Fatalf("internal %q misplaced", internal)
		}
	}
	// IDs are dense from the base and resolvable.
	seen := map[int32]string{}
	for _, n := range names {
		id, ok := CrateID(n)
		if !ok {
			t.Fatalf("CrateID(%q) missing", n)
		}
		if id < CrateIDBase || id >= CrateIDBase+int32(len(names)) {
			t.Fatalf("CrateID(%q) = %d out of range", n, id)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("id %d shared by %q and %q", id, prev, n)
		}
		seen[id] = n
	}
	if _, ok := CrateID("no_such_fn"); ok {
		t.Fatal("bogus crate name resolved")
	}
}

// TestCrateIDsPinned pins every crate function's helper ID. Signed SLXO
// objects carry these IDs, so adding a crate function may append IDs but
// must never move an existing one.
func TestCrateIDsPinned(t *testing.T) {
	want := map[string]int32{
		"comm": 1000, "cpu": 1001, "emit": 1002, "ktime": 1003,
		"map_del": 1004, "map_get": 1005, "map_inc": 1006, "map_set": 1007,
		"mem_alloc": 1008, "mem_free": 1009, "mem_get": 1010, "mem_set": 1011,
		"pid_tgid": 1012, "pkt_len": 1013, "pkt_read_u16": 1014, "pkt_read_u32": 1015,
		"pkt_read_u8": 1016, "pkt_write_u8": 1017, "rand": 1018, "signal": 1019,
		"sk_lookup_tcp": 1020, "sk_lookup_udp": 1021, "sk_mark": 1022, "sk_ok": 1023,
		"str_eq": 1024, "str_parse": 1025, "trace": 1026, "uid": 1027,
		"trap": 1028, "lock_acquire": 1029, "lock_release": 1030, "sock_release": 1031,
	}
	names := CrateNames()
	if len(names) != len(want) {
		t.Fatalf("%d crate functions, %d pinned", len(names), len(want))
	}
	for i, n := range names {
		id, ok := CrateID(n)
		if !ok || id != want[n] || id != CrateIDBase+int32(i) {
			t.Errorf("CrateID(%q) = %d, %v at position %d; pinned %d", n, id, ok, i, want[n])
		}
	}
	// The returned list is the caller's: changing it moves no ID.
	names[0] = "changed"
	if got := CrateNames()[0]; got != "comm" {
		t.Errorf("CrateNames()[0] = %q after a caller wrote to its copy", got)
	}
}

func TestTypeStringsAndSizes(t *testing.T) {
	cases := map[string]Type{
		"()": {Kind: TypeUnit}, "i64": {Kind: TypeI64}, "u64": {Kind: TypeU64},
		"u32": {Kind: TypeU32}, "u8": {Kind: TypeU8}, "bool": {Kind: TypeBool},
		"[u8; 16]": {Kind: TypeArray, Len: 16}, "str": {Kind: TypeStr}, "sock": {Kind: TypeSock},
	}
	for want, typ := range cases {
		if typ.String() != want {
			t.Errorf("%v renders %q, want %q", typ.Kind, typ.String(), want)
		}
	}
	if (Type{Kind: TypeArray, Len: 16}).Size() != 16 {
		t.Error("array size")
	}
	if (Type{Kind: TypeI64}).Size() != 8 || (Type{Kind: TypeUnit}).Size() != 0 {
		t.Error("scalar/unit size")
	}
	if (Type{Kind: TypeSock}).IsInteger() || !(Type{Kind: TypeU8}).IsInteger() {
		t.Error("IsInteger")
	}
}

func TestTokenRendering(t *testing.T) {
	toks, err := Lex(`x "s"`)
	if err != nil {
		t.Fatal(err)
	}
	if s := toks[0].String(); s != "'x'" {
		t.Errorf("ident renders %q", s)
	}
	if s := toks[1].String(); s != `"s"` {
		t.Errorf("string renders %q", s)
	}
	if s := toks[2].String(); s != "end of file" {
		t.Errorf("eof renders %q", s)
	}
}

func TestLexEdgeCases(t *testing.T) {
	// Bad escape, newline in string, giant hex.
	if _, err := Lex(`"\q"`); err == nil {
		t.Error("bad escape accepted")
	}
	if _, err := Lex("\"ab\ncd\""); err == nil {
		t.Error("newline in string accepted")
	}
	toks, err := Lex("0xFFFF_FFFF_FFFF_FFFF")
	if err != nil || toks[0].Int != -1 {
		t.Errorf("max hex = %d, %v", toks[0].Int, err)
	}
}

func TestParserMapDeclErrors(t *testing.T) {
	cases := []string{
		"map m: unknown<u32,u64>(8);\nfn main() -> i64 { return 0; }",
		"map m: hash<u32,u64>();\nfn main() -> i64 { return 0; }",
		"map m: hash<u32,u64>(8)\nfn main() -> i64 { return 0; }",
	}
	// A sock key parses (it is a type) but the checker rejects it.
	checkErr(t, "map m: hash<sock,u64>(8);\nfn main() -> i64 { return 0; }", "key must be an integer")
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("parsed %q", src)
		}
	}
}

func TestCheckerMapSemanticErrors(t *testing.T) {
	checkErr(t, "map m: hash<u32,u64>(0);\nfn main() -> i64 { return 0; }", "out of range")
	f, err := Parse("map m: hash<bool,u64>(8);\nfn main() -> i64 { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(f); err == nil || !strings.Contains(err.Error(), "key must be an integer") {
		t.Fatalf("bool key: %v", err)
	}
}

func TestArrayDeclarationBounds(t *testing.T) {
	if _, err := Parse("fn main() -> i64 { let a: [u8; 0]; return 0; }"); err == nil {
		t.Error("zero-length array parsed")
	}
	if _, err := Parse("fn main() -> i64 { let a: [u8; 1000]; return 0; }"); err == nil {
		t.Error("oversized array parsed")
	}
}

func TestCheckerVariadicTrace(t *testing.T) {
	checkOK(t, `fn main() -> i64 { kernel::trace("a"); return 0; }`)
	checkOK(t, `fn main() -> i64 { kernel::trace("a %d %d %d", 1, 2, 3); return 0; }`)
	checkErr(t, `fn main() -> i64 { kernel::trace("a", 1, 2, 3, 4); return 0; }`, "arguments")
	checkErr(t, `fn main() -> i64 { kernel::trace(1); return 0; }`, "string literal")
	checkErr(t, `fn main() -> i64 { kernel::trace("a", true); return 0; }`, "want integer")
}

func TestCheckerBufArguments(t *testing.T) {
	checkErr(t, `fn main() -> i64 { kernel::comm(5); return 0; }`, "array variable")
	checkErr(t, `fn main() -> i64 { let x = 1; kernel::comm(x); return 0; }`, "not an array")
}

func TestCheckerScopeLifetime(t *testing.T) {
	checkErr(t, `fn main() -> i64 {
		if true { let inner = 5; }
		return inner;
	}`, "undeclared")
	// For-loop variable out of scope afterwards.
	checkErr(t, `fn main() -> i64 {
		for i in 0..3 { }
		return i;
	}`, "undeclared")
}

func TestCheckerReturnTypeMismatch(t *testing.T) {
	checkErr(t, `fn f() -> bool { return 5; } fn main() -> i64 { return 0; }`, "returns bool")
	checkErr(t, `fn f() { return 5; } fn main() -> i64 { return 0; }`, "returns ()")
	// Unit function with bare return is fine.
	checkOK(t, `fn f() { return; } fn main() -> i64 { f(); return 0; }`)
}

func TestCheckerSyncErrors(t *testing.T) {
	checkErr(t, `fn main() -> i64 { sync(missing, 1) { } return 0; }`, "undeclared map")
	checkErr(t, "map r: ringbuf(64);\nfn main() -> i64 { sync(r, 1) { } return 0; }", "keyed map")
	checkErr(t, "map m: hash<u32,u64>(8);\nfn main() -> i64 { sync(m, true) { } return 0; }", "integer")
}
