package toolchain

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"kex/internal/ebpf/isa"
	"kex/internal/safext/compile"
)

const sample = `
map counts: hash<u32, u64>(128);
map events: ringbuf(512);

fn main() -> i64 {
	kernel::map_inc(counts, 1, 1);
	kernel::trace("msg %d", 5);
	sync(counts, 2) {
		kernel::map_set(counts, 2, 9);
	}
	return 0;
}
`

func TestBuildProducesObject(t *testing.T) {
	obj, err := Build("sample", sample)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Name != "sample" || len(obj.Insns) == 0 {
		t.Fatalf("obj = %+v", obj)
	}
	if len(obj.Maps) != 2 {
		t.Fatalf("maps = %v", obj.Maps)
	}
	// The sync-guarded map carries a lock header.
	if !obj.Maps[0].Locked || obj.Maps[0].ValSize != 16 {
		t.Fatalf("counts spec = %+v", obj.Maps[0])
	}
	if len(obj.Rodata) == 0 {
		t.Fatal("no rodata despite string literal")
	}
	caps := strings.Join(obj.Capabilities, ",")
	for _, want := range []string{"map_inc", "trace", "lock_acquire"} {
		if !strings.Contains(caps, want) {
			t.Errorf("capability %q missing", want)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	obj, err := Build("rt", sample)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := Serialize(obj)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Deserialize(payload)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != obj.Name {
		t.Fatalf("name = %q", back.Name)
	}
	if !reflect.DeepEqual(back.Insns, obj.Insns) {
		t.Fatal("instructions did not round-trip")
	}
	if !reflect.DeepEqual(back.Maps, obj.Maps) {
		t.Fatalf("maps: %v vs %v", back.Maps, obj.Maps)
	}
	if !reflect.DeepEqual(back.Rodata, obj.Rodata) {
		t.Fatal("rodata mismatch")
	}
	if !reflect.DeepEqual(back.Capabilities, obj.Capabilities) {
		t.Fatal("capabilities mismatch")
	}
}

func TestCheckLedgerRoundTrip(t *testing.T) {
	const src = `
fn main() -> i64 {
	let a: [u8; 8];
	a[0] = 1;
	a[7] = 2;
	let i: i64 = kernel::ktime() % 8;
	return a[i] + a[3] / 2;
}
`
	obj, err := BuildOptimized("chek", src)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Checks.BoundsElided == 0 {
		t.Fatalf("expected elisions from the analyzer, got %+v", obj.Checks)
	}
	if obj.Checks.StaticInsnBound <= 0 {
		t.Fatalf("straight-line program should carry a static bound, got %d", obj.Checks.StaticInsnBound)
	}
	payload, err := Serialize(obj)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Deserialize(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Checks, obj.Checks) {
		t.Fatalf("check ledger did not round-trip:\n got %+v\nwant %+v", back.Checks, obj.Checks)
	}
	if len(back.Checks.Elisions) == 0 {
		t.Fatal("elision records lost in serialization")
	}

	// A naive build of the same source must carry more dynamic checks and
	// no static bound — the signed artifacts are distinguishable.
	naive, err := Build("chek-naive", src)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Checks.Elided() != 0 || naive.Checks.StaticInsnBound != 0 {
		t.Fatalf("naive build should elide nothing: %+v", naive.Checks)
	}
	if naive.Checks.Emitted() <= obj.Checks.Emitted() {
		t.Fatalf("naive emitted %d checks, optimized emitted %d", naive.Checks.Emitted(), obj.Checks.Emitted())
	}
}

// TestMIRBuildDeterministic: two level-2 builds of the same source must
// produce byte-identical signed payloads — signature-based distribution
// depends on it (the registry deduplicates by payload hash, and the mir
// package sits in kexlint's DeterministicDirs for the same reason). The
// OPTM section must also survive the round trip intact.
func TestMIRBuildDeterministic(t *testing.T) {
	const src = `
map m: hash<u64, u64>(16);

fn main() -> i64 {
	let mut buf: [u8; 32];
	let mut sum: i64 = 0;
	for i in 0..16 {
		let k = (i * 5) & 31;
		buf[k] = k;
		sum += buf[k] + kernel::map_get(m, k);
	}
	return sum;
}
`
	a, err := BuildOptimizedMIR("det", src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildOptimizedMIR("det", src)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Serialize(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Serialize(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa, pb) {
		t.Fatal("two MIR builds of the same source serialize differently")
	}
	back, err := Deserialize(pa)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Opt, a.Opt) {
		t.Fatalf("OPTM did not round-trip:\n got %+v\nwant %+v", back.Opt, a.Opt)
	}
	if back.Opt.Level != 2 || back.Opt.Folded == 0 {
		t.Fatalf("implausible optimization metadata: %+v", back.Opt)
	}
}

// TestRecursiveMIRBuildValidates: a recursive program builds at level 2.
// The validator's machine stops a recursion past its call-depth limit as
// it stops a run out of fuel, and counts that vector bounded, instead of
// refuting the build.
func TestRecursiveMIRBuildValidates(t *testing.T) {
	for name, src := range map[string]string{
		"fib": `
fn fib(n: i64) -> i64 {
	if n < 2 { return n; }
	return fib(n - 1) + fib(n - 2);
}
fn main() -> i64 {
	return fib(7);
}`,
		"down": `
fn down(n: i64) -> i64 {
	if n <= 0 { return 0; }
	return down(n - 1);
}
fn main() -> i64 {
	return down(100);
}`,
	} {
		obj, err := BuildOptimizedMIR(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tv := obj.TVal
		if obj.Opt.Level != compile.OptMIR || tv == nil || !tv.Validated || tv.Demoted || tv.Bounded == 0 {
			t.Fatalf("%s: level %d, certificate %+v; want a validated level-2 build with bounded vectors", name, obj.Opt.Level, tv)
		}
	}
}

// TestDeserializeRejectsCorruptOptm: the OPTM section is fixed-size; both
// a short and a padded body must be rejected, not zero-filled or ignored.
func TestDeserializeRejectsCorruptOptm(t *testing.T) {
	obj, err := BuildOptimizedMIR("optm", sample)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := Serialize(obj)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.LastIndex(payload, []byte("OPTM"))
	if idx < 0 {
		t.Fatal("no OPTM section in a level-2 payload")
	}
	// OPTM is the last section: rewrite its length and resize the body.
	resize := func(n int) []byte {
		p := append([]byte(nil), payload[:idx+8+n]...)
		if grow := n - 32; grow > 0 {
			p = append(payload[:len(payload):len(payload)], make([]byte, grow)...)
		}
		binary.LittleEndian.PutUint32(p[idx+4:], uint32(n))
		return p
	}
	if _, err := Deserialize(resize(28)); err == nil || !strings.Contains(err.Error(), "truncated OPTM") {
		t.Errorf("short OPTM body: err = %v", err)
	}
	if _, err := Deserialize(resize(36)); err == nil || !strings.Contains(err.Error(), "oversized OPTM") {
		t.Errorf("padded OPTM body: err = %v", err)
	}
}

// garbageObjects are containers Deserialize must reject. FuzzDeserialize
// seeds from them too.
var garbageObjects = [][]byte{
	nil,
	[]byte("nope"),
	[]byte("SLXO\x02\x00\x00\x00"), // bad version
	[]byte("SLXO\x01\x00\x00\x00XXXX\xff\xff\xff\xff"), // truncated section
	// CHEK body cut 2 bytes short of the elision count: the reader
	// must report truncation, not parse a short read as zero.
	append([]byte("SLXO\x01\x00\x00\x00CHEK\x22\x00\x00\x00"), make([]byte, 34)...),
	// A well-formed section with an unknown tag.
	container("XXXX", nil),
	// Repeated sections: a second NAME or CODE must not silently replace
	// the first.
	container("NAME", []byte("a"), "NAME", []byte("b")),
	container("CODE", mustEncode(isa.Exit()), "CODE", mustEncode(isa.Mov64Imm(0, 1), isa.Exit())),
	// CHEK with one trailing byte after an empty elision list, like the
	// padded OPTM case.
	container("CHEK", make([]byte, 24+8+4+1)),
	// An elision count far beyond the body.
	container("CHEK", append(make([]byte, 24+8), 0xff, 0xff, 0xff, 0xff)),
	// A CONC verdict over the 512-byte string cap.
	container("CONC", append([]byte{0x01, 0x02, 0, 0}, make([]byte, 513)...)),
	// A relocation onto a map load whose immediate is not zeroed: Serialize
	// never writes one, and it would not re-encode to the same object.
	container(
		"CODE", mustEncode(isa.Instruction{Op: isa.LoadMapRef(1, "").Op, Dst: 1, Src: isa.PseudoMapFD, Imm: 5, Const: 5}, isa.Exit()),
		"RELO", []byte{0, 0, 0, 0, 1, 0, 0, 0, 'm'},
	),
}

// container assembles an SLXO container from (tag, body) pairs.
func container(sections ...any) []byte {
	out := []byte("SLXO\x01\x00\x00\x00")
	for i := 0; i < len(sections); i += 2 {
		body, _ := sections[i+1].([]byte)
		out = append(out, sections[i].(string)...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
		out = append(out, body...)
	}
	return out
}

func mustEncode(insns ...isa.Instruction) []byte {
	b, err := isa.Encode(insns)
	if err != nil {
		panic(err)
	}
	return b
}

func TestDeserializeRejectsGarbage(t *testing.T) {
	for _, raw := range garbageObjects {
		if _, err := Deserialize(raw); err == nil {
			t.Errorf("accepted %q", raw)
		}
	}
}

// TestSerializeEnforcesDecoderCaps: Serialize refuses to write a
// certificate Deserialize would reject.
func TestSerializeEnforcesDecoderCaps(t *testing.T) {
	long := strings.Repeat("x", concMaxStr+1)
	cases := map[string]*compile.Object{
		"CONC verdict":   {Conc: &compile.ConcReport{Verdict: long}},
		"CONC site note": {Conc: &compile.ConcReport{Maps: []compile.ConcMapVerdict{{Sites: []compile.ConcSite{{Note: long}}}}}},
		"CONC maps":      {Conc: &compile.ConcReport{Maps: make([]compile.ConcMapVerdict, concMaxMaps+1)}},
		"TVAL funcs":     {TVal: &compile.TValCert{Funcs: make([]compile.TValFuncCert, tvalMaxFuncs+1)}},
	}
	for name, obj := range cases {
		if _, err := Serialize(obj); err == nil {
			t.Errorf("%s: serialized past the decoder cap", name)
		}
	}
}

func TestSignAndVerify(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	so, err := s.BuildAndSign("signed", sample)
	if err != nil {
		t.Fatal(err)
	}
	if !so.Verify(s.PublicKey()) {
		t.Fatal("valid signature rejected")
	}
	other, _ := NewSigner()
	if so.Verify(other.PublicKey()) {
		t.Fatal("signature verified under wrong key")
	}
	so.Payload[0] ^= 1
	if so.Verify(s.PublicKey()) {
		t.Fatal("tampered payload verified")
	}
}

func TestPolicyMaxInsns(t *testing.T) {
	s, _ := NewSigner()
	s.Policy.MaxInsns = 5
	if _, err := s.BuildAndSign("big", sample); err == nil || !strings.Contains(err.Error(), "policy limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestBuildSurfacesLanguageErrors(t *testing.T) {
	if _, err := Build("bad", "fn main( {"); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := Build("bad", "fn main() -> i64 { return x; }"); err == nil {
		t.Fatal("type error not surfaced")
	}
}

// TestBuildAndSignPhases pins each tier's load-phase names, in order: the
// benchmark harness reports them as load.<phase>_ns.
func TestBuildAndSignPhases(t *testing.T) {
	s, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name  string
		build func(name, src string) (*SignedObject, error)
		want  []string
	}{
		{"naive", s.BuildAndSign, []string{"parse", "typecheck", "compile", "concheck", "sign"}},
		{"elide", s.BuildAndSignOptimized, []string{"parse", "typecheck", "analyze", "compile", "concheck", "sign"}},
		{"mir", s.BuildAndSignOptimizedMIR, []string{"parse", "typecheck", "analyze", "compile", "transval", "concheck", "sign"}},
	}
	for _, tier := range tiers {
		so, err := tier.build("phases", sample)
		if err != nil {
			t.Fatalf("%s: %v", tier.name, err)
		}
		var got []string
		for _, p := range so.Phases {
			got = append(got, p.Name)
		}
		if !reflect.DeepEqual(got, tier.want) {
			t.Errorf("%s phases = %v, want %v", tier.name, got, tier.want)
		}
	}
}
