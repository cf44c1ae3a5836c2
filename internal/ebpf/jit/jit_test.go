package jit

import (
	"errors"
	"math/rand"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
)

type fixture struct {
	k   *kernel.Kernel
	m   *interp.Machine
	env *helpers.Env
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	k := kernel.NewDefault()
	reg := maps.NewRegistry()
	return &fixture{
		k:   k,
		m:   interp.NewMachine(k, helpers.NewRegistry(), reg),
		env: helpers.NewEnv(k, k.NewContext(0), reg),
	}
}

func (f *fixture) jitRun(t *testing.T, insns []isa.Instruction, cfg Config) (uint64, error) {
	t.Helper()
	prog := &isa.Program{Name: "jit", Type: isa.Tracing, Insns: insns}
	c, err := Compile(prog, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c.Run(f.m, f.env, interp.Options{})
}

func TestJITBasicPrograms(t *testing.T) {
	f := newFixture(t)
	got, err := f.jitRun(t, []isa.Instruction{
		isa.Mov64Imm(isa.R0, 6),
		isa.ALU64Imm(isa.OpMul, isa.R0, 7),
		isa.Exit(),
	}, Config{})
	if err != nil || got != 42 {
		t.Fatalf("R0 = %d, %v", got, err)
	}
}

func TestJITStackAndCalls(t *testing.T) {
	f := newFixture(t)
	got, err := f.jitRun(t, []isa.Instruction{
		isa.Mov64Imm(isa.R1, 4),
		isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R1),
		isa.LoadMem(isa.SizeDW, isa.R1, isa.R10, -8),
		isa.CallBPF(1),
		isa.Exit(),
		// square:
		isa.Mov64Reg(isa.R0, isa.R1),
		isa.ALU64Reg(isa.OpMul, isa.R0, isa.R1),
		isa.Exit(),
	}, Config{})
	if err != nil || got != 16 {
		t.Fatalf("R0 = %d, %v", got, err)
	}
}

func TestJITHelperCall(t *testing.T) {
	f := newFixture(t)
	f.k.Clock.Advance(777)
	s, _ := f.m.Helpers.ByName("bpf_ktime_get_ns")
	got, err := f.jitRun(t, []isa.Instruction{
		isa.Call(int32(s.ID)),
		isa.Exit(),
	}, Config{})
	if err != nil || got < 777 {
		t.Fatalf("R0 = %d, %v", got, err)
	}
}

func TestJITCrashOnBadAccess(t *testing.T) {
	f := newFixture(t)
	_, err := f.jitRun(t, []isa.Instruction{
		isa.Mov64Imm(isa.R1, 0),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R1, 0),
		isa.Exit(),
	}, Config{})
	if !errors.Is(err, helpers.ErrKernelCrash) {
		t.Fatalf("err = %v", err)
	}
	if o := f.k.LastOops(); o == nil || o.Kind != kernel.OopsNullDeref {
		t.Fatalf("oops = %v", o)
	}
}

func TestJITRejectsUnresolvedMapRef(t *testing.T) {
	prog := &isa.Program{Name: "m", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.LoadMapRef(isa.R1, "counts"),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}}
	if _, err := Compile(prog, Config{}); err == nil {
		t.Fatal("compiled with unresolved map ref")
	}
}

// The CVE-2021-29154 analogue: a verified bounds check is miscompiled, and
// the "safe" program corrupts memory beyond its map value.
func TestInjectedBranchBugBreaksVerifiedBoundsCheck(t *testing.T) {
	f := newFixture(t)
	_, _, err := f.m.Maps.Create(f.k, maps.Spec{Name: "v", Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	lookup, _ := f.m.Helpers.ByName("bpf_map_lookup_elem")
	// idx comes from ctx; program checks "if idx >= 57 goto out" so idx <= 56
	// and idx+8 <= 64 stays in bounds. The buggy JIT compiles >= as >,
	// letting idx == 57 through: an 8-byte store at offset 57 overruns the
	// 64-byte value by one byte.
	build := func() []isa.Instruction {
		return []isa.Instruction{
			isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 0), // idx from ctx
			isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
			isa.LoadMapRef(isa.R1, "v"),
			isa.Call(int32(lookup.ID)),
			isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
			isa.JmpImm(isa.OpJge, isa.R6, 57, 3), // bounds check (verified!)
			isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R6),
			isa.Mov64Imm(isa.R1, 0xff),
			isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R1),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		}
	}

	// Context carries idx = 57.
	ctx := f.k.Mem.Map(64, kernel.ProtRW, "ctx")
	f.k.Mem.StoreUint(ctx.Base, 8, 57)
	f.env.CtxAddr = ctx.Base

	run := func(cfg Config) error {
		insns := build()
		if err := interp.Relocate(insns, f.m.Maps); err != nil {
			t.Fatal(err)
		}
		prog := &isa.Program{Name: "bounds", Type: isa.Tracing, Insns: insns}
		c, err := Compile(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run(f.m, f.env, interp.Options{})
		return err
	}

	// Correct JIT: idx 57 takes the out branch, nothing bad happens.
	if err := run(Config{}); err != nil {
		t.Fatalf("correct JIT errored: %v", err)
	}
	if !f.k.Healthy() {
		t.Fatalf("correct JIT oopsed: %v", f.k.LastOops())
	}
	// Buggy JIT: the same verified program corrupts kernel memory. Thanks
	// to the simulator's guard gaps the overrun faults.
	err = run(Config{InjectBranchBug: true})
	if !errors.Is(err, helpers.ErrKernelCrash) {
		t.Fatalf("buggy JIT err = %v, want crash", err)
	}
	if f.k.Healthy() {
		t.Fatal("buggy JIT left kernel healthy")
	}
}

// Differential testing: random straight-line ALU programs must produce
// identical results under the interpreter and the JIT.
func TestJITMatchesInterpreter(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(42))
	ops := []uint8{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMov, isa.OpArsh}

	for trial := 0; trial < 200; trial++ {
		var insns []isa.Instruction
		insns = append(insns, isa.Mov64Imm(isa.R0, int32(rng.Int31())))
		for r := isa.R1; r <= isa.R5; r++ {
			insns = append(insns, isa.Mov64Imm(r, int32(rng.Int31())))
		}
		for i := 0; i < 20; i++ {
			op := ops[rng.Intn(len(ops))]
			dst := isa.Register(rng.Intn(6))
			if rng.Intn(2) == 0 {
				imm := int32(rng.Int31())
				if op == isa.OpArsh {
					imm = int32(rng.Intn(64))
				}
				if rng.Intn(2) == 0 {
					insns = append(insns, isa.ALU64Imm(op, dst, imm))
				} else {
					insns = append(insns, isa.ALU32Imm(op, dst, imm))
				}
			} else {
				src := isa.Register(rng.Intn(6))
				if op == isa.OpArsh {
					// register shifts may exceed 63 and error in both
					// engines identically, but keep the diff simple.
					continue
				}
				insns = append(insns, isa.ALU64Reg(op, dst, src))
			}
			// Occasionally a forward conditional jump over one insn.
			if rng.Intn(4) == 0 && i < 18 {
				insns = append(insns, isa.JmpImm(isa.OpJgt, dst, int32(rng.Int31()), 1))
				insns = append(insns, isa.ALU64Imm(isa.OpXor, dst, 1))
			}
		}
		insns = append(insns, isa.Exit())
		prog := &isa.Program{Name: "diff", Type: isa.Tracing, Insns: insns}

		want, errI := f.m.Run(prog, f.env, interp.Options{})
		c, err := Compile(prog, Config{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		got, errJ := c.Run(f.m, f.env, interp.Options{})
		if (errI == nil) != (errJ == nil) {
			t.Fatalf("trial %d: interp err %v, jit err %v", trial, errI, errJ)
		}
		if errI == nil && got != want {
			t.Fatalf("trial %d: interp %#x, jit %#x\nprog:\n%v", trial, want, got, insns)
		}
	}
}

func TestJIT32BitOps(t *testing.T) {
	f := newFixture(t)
	got, err := f.jitRun(t, []isa.Instruction{
		isa.LoadImm64(isa.R1, 0x1_0000_0010),
		isa.Mov32Reg(isa.R0, isa.R1), // truncates to 0x10
		isa.ALU32Imm(isa.OpAdd, isa.R0, 2),
		isa.Jmp32Imm(isa.OpJeq, isa.R0, 0x12, 1),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}, Config{})
	if err != nil || got != 0x12 {
		t.Fatalf("R0 = %#x, %v", got, err)
	}
}

func TestJITSignedJumps(t *testing.T) {
	f := newFixture(t)
	got, err := f.jitRun(t, []isa.Instruction{
		isa.Mov64Imm(isa.R1, -5),
		isa.Mov64Imm(isa.R0, 0),
		isa.JmpImm(isa.OpJslt, isa.R1, 0, 1), // -5 s< 0: taken
		isa.Exit(),
		isa.Mov64Imm(isa.R0, 1),
		isa.Exit(),
	}, Config{})
	if err != nil || got != 1 {
		t.Fatalf("R0 = %d, %v", got, err)
	}
}

func TestJITRejectsStructurallyInvalid(t *testing.T) {
	if _, err := Compile(&isa.Program{Name: "bad", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 0),
	}}, Config{}); err == nil {
		t.Fatal("program without exit compiled")
	}
}
