package interp

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
)

type fixture struct {
	k   *kernel.Kernel
	m   *Machine
	env *helpers.Env
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	k := kernel.NewDefault()
	reg := maps.NewRegistry()
	m := NewMachine(k, helpers.NewRegistry(), reg)
	env := helpers.NewEnv(k, k.NewContext(0), reg)
	return &fixture{k: k, m: m, env: env}
}

func (f *fixture) run(t *testing.T, insns []isa.Instruction, opts Options) (uint64, error) {
	t.Helper()
	prog := &isa.Program{Name: "t", Type: isa.Tracing, Insns: insns}
	if err := Relocate(prog.Insns, f.m.Maps); err != nil {
		t.Fatal(err)
	}
	return f.m.Run(prog, f.env, opts)
}

func (f *fixture) helperID(t *testing.T, name string) int32 {
	t.Helper()
	s, ok := f.m.Helpers.ByName(name)
	if !ok {
		t.Fatalf("helper %q", name)
	}
	return int32(s.ID)
}

func TestALUPrograms(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		name  string
		insns []isa.Instruction
		want  uint64
	}{
		{"arith", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 10),
			isa.ALU64Imm(isa.OpMul, isa.R0, 7),
			isa.ALU64Imm(isa.OpSub, isa.R0, 4),
			isa.ALU64Imm(isa.OpDiv, isa.R0, 3),
			isa.Exit(),
		}, 22},
		{"div by zero yields zero", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 99),
			isa.Mov64Imm(isa.R1, 0),
			isa.ALU64Reg(isa.OpDiv, isa.R0, isa.R1),
			isa.Exit(),
		}, 0},
		{"mod by zero keeps dst", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 99),
			isa.Mov64Imm(isa.R1, 0),
			isa.ALU64Reg(isa.OpMod, isa.R0, isa.R1),
			isa.Exit(),
		}, 99},
		{"alu32 truncates", []isa.Instruction{
			isa.LoadImm64(isa.R0, 0x1_0000_0005),
			isa.ALU32Imm(isa.OpAdd, isa.R0, 1),
			isa.Exit(),
		}, 6},
		{"neg", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 5),
			isa.Neg64(isa.R0),
			isa.ALU64Imm(isa.OpAdd, isa.R0, 7),
			isa.Exit(),
		}, 2},
		{"shifts", []isa.Instruction{
			isa.Mov64Imm(isa.R0, 1),
			isa.ALU64Imm(isa.OpLsh, isa.R0, 12),
			isa.ALU64Imm(isa.OpRsh, isa.R0, 4),
			isa.Exit(),
		}, 256},
		{"signed arsh", []isa.Instruction{
			isa.Mov64Imm(isa.R0, -16),
			isa.ALU64Imm(isa.OpArsh, isa.R0, 2),
			isa.Exit(),
		}, uint64(0xFFFFFFFFFFFFFFFC)},
		{"branching", []isa.Instruction{
			isa.Mov64Imm(isa.R1, 5),
			isa.Mov64Imm(isa.R0, 0),
			isa.JmpImm(isa.OpJsgt, isa.R1, 3, 1),
			isa.Exit(),
			isa.Mov64Imm(isa.R0, 1),
			isa.Exit(),
		}, 1},
		{"jmp32", []isa.Instruction{
			isa.LoadImm64(isa.R1, 0x1_0000_0000), // low 32 bits are 0
			isa.Mov64Imm(isa.R0, 0),
			isa.Jmp32Imm(isa.OpJeq, isa.R1, 0, 1),
			isa.Exit(),
			isa.Mov64Imm(isa.R0, 1),
			isa.Exit(),
		}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := f.run(t, c.insns, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("R0 = %d, want %d", got, c.want)
			}
		})
	}
}

func TestStackAndMemory(t *testing.T) {
	f := newFixture(t)
	got, err := f.run(t, []isa.Instruction{
		isa.Mov64Imm(isa.R1, 0xbeef),
		isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R1),
		isa.StoreImm(isa.SizeH, isa.R10, -16, 0x1234),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.LoadMem(isa.SizeH, isa.R2, isa.R10, -16),
		isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R2),
		isa.Exit(),
	}, Options{})
	if err != nil || got != 0xbeef+0x1234 {
		t.Fatalf("got %#x, %v", got, err)
	}
}

func TestAtomicOps(t *testing.T) {
	f := newFixture(t)
	got, err := f.run(t, []isa.Instruction{
		isa.Mov64Imm(isa.R1, 10),
		isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R1),
		isa.Mov64Imm(isa.R2, 5),
		isa.AtomicAdd64(isa.R10, -8, isa.R2),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.Exit(),
	}, Options{})
	if err != nil || got != 15 {
		t.Fatalf("atomic add: %d, %v", got, err)
	}
}

func TestBadMemoryAccessCrashesKernel(t *testing.T) {
	f := newFixture(t)
	// The interpreter trusts the verifier: an unverified NULL load is a
	// kernel crash, not a graceful error.
	_, err := f.run(t, []isa.Instruction{
		isa.Mov64Imm(isa.R1, 0),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R1, 0),
		isa.Exit(),
	}, Options{})
	if !errors.Is(err, helpers.ErrKernelCrash) {
		t.Fatalf("err = %v, want crash", err)
	}
	if o := f.k.LastOops(); o == nil || o.Kind != kernel.OopsNullDeref {
		t.Fatalf("oops = %v", o)
	}
}

func TestMapRoundTripThroughBytecode(t *testing.T) {
	f := newFixture(t)
	_, _, err := f.m.Maps.Create(f.k, maps.Spec{Name: "counts", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	// key 2 -> value 77, then read it back through lookup.
	insns := []isa.Instruction{
		isa.StoreImm(isa.SizeW, isa.R10, -4, 2), // key
		isa.Mov64Imm(isa.R1, 77),
		isa.StoreMem(isa.SizeDW, isa.R10, -16, isa.R1), // value
		isa.LoadMapRef(isa.R1, "counts"),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.Mov64Reg(isa.R3, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R3, -16),
		isa.Mov64Imm(isa.R4, 0),
		isa.Call(f.helperID(t, "bpf_map_update_elem")),
		isa.LoadMapRef(isa.R1, "counts"),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.Call(f.helperID(t, "bpf_map_lookup_elem")),
		isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
		isa.Exit(),
	}
	got, err := f.run(t, insns, Options{})
	if err != nil || got != 77 {
		t.Fatalf("R0 = %d, %v", got, err)
	}
}

func TestBPFToBPFCall(t *testing.T) {
	f := newFixture(t)
	got, err := f.run(t, []isa.Instruction{
		isa.Mov64Imm(isa.R1, 21),
		isa.CallBPF(1),
		isa.Exit(),
		// double:
		isa.Mov64Reg(isa.R0, isa.R1),
		isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R1),
		isa.Exit(),
	}, Options{})
	if err != nil || got != 42 {
		t.Fatalf("R0 = %d, %v", got, err)
	}
}

func TestBPFLoopCallback(t *testing.T) {
	f := newFixture(t)
	// Sum 0..9 via bpf_loop: callback adds i into a stack slot passed as ctx.
	insns := []isa.Instruction{
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Mov64Imm(isa.R1, 10),
		isa.LoadFuncRef(isa.R2, 9),
		isa.Mov64Reg(isa.R3, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R3, -8),
		isa.Mov64Imm(isa.R4, 0),
		isa.Call(f.helperID(t, "bpf_loop")),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.Exit(),
		// callback(i, ctxptr): *ctxptr += i; return 0
		isa.LoadMem(isa.SizeDW, isa.R3, isa.R2, 0),
		isa.ALU64Reg(isa.OpAdd, isa.R3, isa.R1),
		isa.StoreMem(isa.SizeDW, isa.R2, 0, isa.R3),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	got, err := f.run(t, insns, Options{})
	if err != nil || got != 45 {
		t.Fatalf("sum = %d, %v", got, err)
	}
}

func TestTailCall(t *testing.T) {
	f := newFixture(t)
	target := &isa.Program{Name: "target", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 123),
		isa.Exit(),
	}}
	_, h, _ := f.m.Maps.Create(f.k, maps.Spec{Name: "progs", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	_ = h
	insns := []isa.Instruction{
		isa.Mov64Reg(isa.R1, isa.R1), // ctx
		isa.LoadMapRef(isa.R2, "progs"),
		isa.Mov64Imm(isa.R3, 0), // index
		isa.Call(f.helperID(t, "bpf_tail_call")),
		isa.Mov64Imm(isa.R0, 7), // only reached if tail call fails
		isa.Exit(),
	}
	got, err := f.run(t, insns, Options{ProgArray: []*isa.Program{target}})
	if err != nil || got != 123 {
		t.Fatalf("R0 = %d, %v", got, err)
	}
	// Missing index: helper returns, fall-through path runs.
	insns[2] = isa.Mov64Imm(isa.R3, 5)
	got, err = f.run(t, insns, Options{ProgArray: []*isa.Program{target}})
	if err != nil || got != 7 {
		t.Fatalf("fallthrough R0 = %d, %v", got, err)
	}
}

func TestTailCallLimit(t *testing.T) {
	f := newFixture(t)
	// A program that tail-calls itself forever: stopped at 33.
	self := &isa.Program{Name: "self", Type: isa.Tracing}
	insns := []isa.Instruction{
		isa.LoadMapRef(isa.R2, "progs"),
		isa.Mov64Imm(isa.R3, 0),
		isa.Call(f.helperID(t, "bpf_tail_call")),
		isa.Mov64Imm(isa.R0, 55), // reached when the chain is cut
		isa.Exit(),
	}
	_, _, _ = f.m.Maps.Create(f.k, maps.Spec{Name: "progs", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	if err := Relocate(insns, f.m.Maps); err != nil {
		t.Fatal(err)
	}
	self.Insns = insns
	got, err := f.m.Run(self, f.env, Options{ProgArray: []*isa.Program{self}})
	if err != nil || got != 55 {
		t.Fatalf("R0 = %d, %v", got, err)
	}
}

func TestFuelTerminatesInfiniteLoop(t *testing.T) {
	f := newFixture(t)
	_, err := f.run(t, []isa.Instruction{
		isa.Mov64Imm(isa.R0, 0),
		isa.Ja(-1),
		isa.Exit(),
	}, Options{Fuel: 10_000})
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("err = %v, want fuel exhaustion", err)
	}
	if f.env.Ctx.Instructions < 10_000 {
		t.Fatalf("instructions = %d", f.env.Ctx.Instructions)
	}
}

func TestNoFuelMeansNoNet(t *testing.T) {
	f := newFixture(t)
	// Without fuel, a long-but-finite loop runs to completion: the
	// verified-eBPF stack has no runtime brake.
	got, err := f.run(t, []isa.Instruction{
		isa.Mov64Imm(isa.R6, 200_000),
		isa.Mov64Imm(isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R0, 1),
		isa.ALU64Imm(isa.OpSub, isa.R6, 1),
		isa.JmpImm(isa.OpJne, isa.R6, 0, -3),
		isa.Exit(),
	}, Options{})
	if err != nil || got != 200_000 {
		t.Fatalf("R0 = %d, %v", got, err)
	}
}

func TestCrashThroughHelperDespiteVerification(t *testing.T) {
	// The bytecode-level E1: a program that would pass verification calls
	// bpf_sys_bpf with a zeroed union; the buggy helper derefs NULL.
	f := newFixture(t)
	insns := []isa.Instruction{
		isa.StoreImm(isa.SizeDW, isa.R10, -24, 0),
		isa.StoreImm(isa.SizeDW, isa.R10, -16, 0),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Mov64Imm(isa.R1, helpers.SysBpfProgLoad),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -24),
		isa.Mov64Imm(isa.R3, 24),
		isa.Call(f.helperID(t, "bpf_sys_bpf")),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	_, err := f.run(t, insns, Options{Bugs: helpers.BugConfig{SysBpfNullDeref: true}})
	if !errors.Is(err, helpers.ErrKernelCrash) {
		t.Fatalf("err = %v, want crash", err)
	}
	if o := f.k.LastOops(); o == nil || o.Kind != kernel.OopsNullDeref {
		t.Fatalf("oops = %v", o)
	}
}

func TestSocketRefLeakObservableAtExit(t *testing.T) {
	f := newFixture(t)
	f.k.Sockets().Add("tcp", 0x01020304, 80, 0x05060708, 4000)
	// Build the tuple on the stack and look up, never releasing.
	tuple := make([]byte, 12)
	binary.LittleEndian.PutUint32(tuple[0:], 0x01020304)
	binary.LittleEndian.PutUint32(tuple[4:], 0x05060708)
	binary.LittleEndian.PutUint16(tuple[8:], 80)
	binary.LittleEndian.PutUint16(tuple[10:], 4000)

	insns := []isa.Instruction{
		isa.LoadImm64(isa.R1, int64(binary.LittleEndian.Uint64(tuple[0:8]))),
		isa.StoreMem(isa.SizeDW, isa.R10, -16, isa.R1),
		isa.LoadImm64(isa.R1, int64(binary.LittleEndian.Uint64(append(tuple[8:12], 0, 0, 0, 0)))),
		isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R1),
		isa.Mov64Reg(isa.R1, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R1, -16),
		isa.Mov64Imm(isa.R2, 12),
		isa.Call(f.helperID(t, "bpf_sk_lookup_tcp")),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	_, err := f.run(t, insns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The context audit finds the leaked reference.
	oopses := f.env.Ctx.ExitAudit()
	if len(oopses) != 1 || oopses[0].Kind != kernel.OopsRefLeak {
		t.Fatalf("audit = %v", oopses)
	}
}

func TestRelocateUnknownMapFails(t *testing.T) {
	f := newFixture(t)
	insns := []isa.Instruction{isa.LoadMapRef(isa.R1, "nope"), isa.Exit()}
	if err := Relocate(insns, f.m.Maps); err == nil {
		t.Fatal("relocation of unknown map succeeded")
	}
}

func TestCallDepthLimit(t *testing.T) {
	f := newFixture(t)
	// Self-recursive function with no base case: must hit the depth cap.
	_, err := f.run(t, []isa.Instruction{
		isa.Mov64Imm(isa.R1, 0),
		isa.CallBPF(1),
		isa.Exit(),
		// f: call f
		isa.CallBPF(-1),
		isa.Exit(),
	}, Options{})
	if !errors.Is(err, ErrCallDepth) {
		t.Fatalf("err = %v", err)
	}
}

func TestCallbackDepthRestartsInDeepChain(t *testing.T) {
	f := newFixture(t)
	// main calls f1..f8, reaching the deepest activation; f8 runs a
	// bpf_loop callback that makes two nested calls of its own. The
	// callback starts again at depth 1, so the program completes.
	insns := []isa.Instruction{
		isa.Mov64Imm(isa.R1, 0),
		isa.CallBPF(1), // f1 at 3
		isa.Exit(),
	}
	for i := 1; i < 8; i++ { // f1..f7: call the next function
		insns = append(insns, isa.CallBPF(1), isa.Exit())
	}
	insns = append(insns,
		// f8 at 17: *fp-8 = 0; bpf_loop(1, cb, fp-8, 0); return *fp-8
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Mov64Imm(isa.R1, 1),
		isa.LoadFuncRef(isa.R2, 26),
		isa.Mov64Reg(isa.R3, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R3, -8),
		isa.Mov64Imm(isa.R4, 0),
		isa.Call(f.helperID(t, "bpf_loop")),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.Exit(),
		// cb at 26: *ctx = g1(); return 0
		isa.Mov64Reg(isa.R6, isa.R2),
		isa.CallBPF(3), // g1 at 31
		isa.StoreMem(isa.SizeDW, isa.R6, 0, isa.R0),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		// g1 at 31: return g2() + 1
		isa.CallBPF(2), // g2 at 34
		isa.ALU64Imm(isa.OpAdd, isa.R0, 1),
		isa.Exit(),
		// g2 at 34: return 41
		isa.Mov64Imm(isa.R0, 41),
		isa.Exit(),
	)
	for run := 0; run < 2; run++ {
		got, err := f.run(t, insns, Options{})
		if err != nil || got != 42 {
			t.Fatalf("run %d: R0 = %d, %v", run, got, err)
		}
	}
}

// TestFrameCachePadded pins the per-CPU frame cache's layout: it ends in a
// full cache line of padding, so neighbouring CPUs' caches are at least
// 64 bytes apart whatever the alignment of the array holding them.
func TestFrameCachePadded(t *testing.T) {
	typ := reflect.TypeOf(frameCache{})
	last := typ.Field(typ.NumField() - 1)
	if last.Type != reflect.TypeOf(kernel.CacheLinePad{}) {
		t.Fatalf("frameCache ends in %v, want kernel.CacheLinePad", last.Type)
	}
	if gap := typ.Size() - last.Offset; gap < 64 {
		t.Fatalf("neighbouring frame caches are %d bytes apart, want >= 64", gap)
	}
}
