package jit

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/ebpf/verifier"
)

// helperID resolves a helper name to its id; ids are fixed by the
// registry's static table, so any registry's ids fit every fixture.
func helperID(t *testing.T, name string) int32 {
	t.Helper()
	s, ok := helpers.NewRegistry().ByName(name)
	if !ok {
		t.Fatalf("helper %q", name)
	}
	return int32(s.ID)
}

// engineCase is one program of the two-engine table.
type engineCase struct {
	name  string
	insns []isa.Instruction
	opts  interp.Options
	// tailSelf makes the program its own tail-call target at index 0.
	tailSelf bool
	// verified requires the verifier to accept the program, so the
	// engines' success is the verifier's verdict.
	verified bool
	want     uint64
	err      error // errors.Is target; nil means the run succeeds
}

// engineRun is what the table compares between the engines.
type engineRun struct {
	r0           uint64
	err          string
	instructions uint64
	fuelUsed     uint64
}

// runEngine runs c on a fresh kernel, whose clock starts where the other
// engine's did, with a one-slot "progs" map for tail calls.
func runEngine(t *testing.T, c engineCase, useJIT bool) (engineRun, error) {
	t.Helper()
	f := newFixture(t)
	if _, _, err := f.m.Maps.Create(f.k, maps.Spec{Name: "progs", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 1}); err != nil {
		t.Fatal(err)
	}
	insns := slices.Clone(c.insns)
	if err := interp.Relocate(insns, f.m.Maps); err != nil {
		t.Fatal(err)
	}
	prog := &isa.Program{Name: c.name, Type: isa.Tracing, Insns: insns}
	opts := c.opts
	if c.tailSelf {
		opts.ProgArray = []*isa.Program{prog}
	}
	var r0 uint64
	var err error
	if useJIT {
		comp, cerr := Compile(prog, Config{})
		if cerr != nil {
			t.Fatalf("compile: %v", cerr)
		}
		r0, err = comp.Run(f.m, f.env, opts)
	} else {
		r0, err = f.m.Run(prog, f.env, opts)
	}
	return engineRun{r0: r0, err: fmt.Sprint(err), instructions: f.env.Ctx.Instructions, fuelUsed: f.env.FuelUsed}, err
}

// spin is an infinite loop, for the runtime nets.
var spin = []isa.Instruction{
	isa.Mov64Imm(isa.R0, 0),
	isa.Ja(-1),
	isa.Exit(),
}

// TestEngines runs every case on the interpreter (Machine.Run) and on the
// JIT (Compiled.Run): both must give the case's outcome and the same R0,
// error, retired instructions and fuel reading, because both execute on
// the one run state in package interp.
func TestEngines(t *testing.T) {
	atomic := func(dst, src isa.Register, kind int32) isa.Instruction {
		return isa.Instruction{Op: isa.ClassSTX | isa.ModeATOMIC | isa.SizeDW, Dst: dst, Src: src, Off: -8, Imm: kind}
	}
	tailCall := helperID(t, "bpf_tail_call")
	tailTarget := &isa.Program{Name: "target", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 77),
		isa.Exit(),
	}}
	tailTo := func(index int32) []isa.Instruction {
		return []isa.Instruction{
			isa.LoadMapRef(isa.R2, "progs"),
			isa.Mov64Imm(isa.R3, index),
			isa.Call(tailCall),
			isa.Mov64Imm(isa.R0, 55), // reached when the tail call fails
			isa.Exit(),
		}
	}
	loop := helperID(t, "bpf_loop")

	// deepChain: main calls f1..fn, so fn runs in frame n+1. fn returns
	// bpf_loop(2, cb): the number of iterations its callback completes.
	// The callback makes two nested calls and continues the loop when they
	// return 42. It starts again at depth 1, so the program returns 2.
	deepChain := func(n int) []isa.Instruction {
		insns := []isa.Instruction{
			isa.Mov64Imm(isa.R1, 0),
			isa.CallBPF(1), // f1 at 3
			isa.Exit(),
		}
		for i := 1; i < n; i++ { // f1..fn-1: call the next function
			insns = append(insns, isa.CallBPF(1), isa.Exit())
		}
		cb := int32(len(insns) + 6)
		return append(insns,
			// fn: return bpf_loop(2, cb, 0, 0)
			isa.Mov64Imm(isa.R1, 2),
			isa.LoadFuncRef(isa.R2, cb),
			isa.Mov64Imm(isa.R3, 0),
			isa.Mov64Imm(isa.R4, 0),
			isa.Call(loop),
			isa.Exit(),
			// cb: return g1() == 42 ? 0 : 1
			isa.CallBPF(5), // g1
			isa.JmpImm(isa.OpJeq, isa.R0, 42, 2),
			isa.Mov64Imm(isa.R0, 1),
			isa.Exit(),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
			// g1: return g2() + 1
			isa.CallBPF(2), // g2
			isa.ALU64Imm(isa.OpAdd, isa.R0, 1),
			isa.Exit(),
			// g2: return 41
			isa.Mov64Imm(isa.R0, 41),
			isa.Exit(),
		)
	}

	unimplemented, ok := helpers.NewRegistry().ByName("bpf_d_path") // metadata only
	if !ok || unimplemented.Impl != nil {
		t.Fatal("bpf_d_path is no longer a metadata-only helper")
	}

	cases := []engineCase{
		{name: "fuel", insns: spin, opts: interp.Options{Fuel: 5000}, err: interp.ErrFuelExhausted},
		{name: "watchdog", insns: spin, opts: interp.Options{WatchdogNs: 1_000_000}, err: interp.ErrWatchdogExpired},
		{name: "atomics", insns: []isa.Instruction{
			// slot = 10
			isa.Mov64Imm(isa.R1, 10),
			isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R1),
			// fetch-add 5: r2 gets the old value (10), slot becomes 15
			isa.Mov64Imm(isa.R2, 5),
			atomic(isa.R10, isa.R2, isa.AtomicAdd|isa.AtomicFetch),
			// add 0 without fetch: slot stays 15, r2 stays 10
			isa.Mov64Imm(isa.R6, 0),
			atomic(isa.R10, isa.R6, isa.AtomicAdd),
			// xchg 100: r3 gets 15, slot becomes 100
			isa.Mov64Imm(isa.R3, 100),
			atomic(isa.R10, isa.R3, isa.AtomicXchg),
			// cmpxchg(expect r0=100 -> 7): succeeds; r0 gets old (100)
			isa.Mov64Imm(isa.R0, 100),
			isa.Mov64Imm(isa.R4, 7),
			atomic(isa.R10, isa.R4, isa.AtomicCmpXchg),
			// r0 = old(100) + fetched(10) + xchged(15) + slot(7)
			isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R2),
			isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R3),
			isa.LoadMem(isa.SizeDW, isa.R5, isa.R10, -8),
			isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R5),
			isa.Exit(),
		}, want: 100 + 10 + 15 + 7},
		{name: "failed cmpxchg", insns: []isa.Instruction{
			isa.Mov64Imm(isa.R1, 10),
			isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R1),
			isa.Mov64Imm(isa.R0, 99), // expectation mismatch: memory stays 10
			isa.Mov64Imm(isa.R4, 7),
			atomic(isa.R10, isa.R4, isa.AtomicCmpXchg),
			isa.LoadMem(isa.SizeDW, isa.R5, isa.R10, -8),
			isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R5),
			isa.Exit(),
		}, want: 10 + 10},
		{name: "bpf_loop", insns: []isa.Instruction{
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
			isa.Mov64Imm(isa.R1, 5),
			isa.LoadFuncRef(isa.R2, 9),
			isa.Mov64Reg(isa.R3, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R3, -8),
			isa.Mov64Imm(isa.R4, 0),
			isa.Call(loop),
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
			isa.Exit(),
			// callback(i, ctx): *ctx += i*i
			isa.Mov64Reg(isa.R3, isa.R1),
			isa.ALU64Reg(isa.OpMul, isa.R3, isa.R1),
			isa.LoadMem(isa.SizeDW, isa.R4, isa.R2, 0),
			isa.ALU64Reg(isa.OpAdd, isa.R4, isa.R3),
			isa.StoreMem(isa.SizeDW, isa.R2, 0, isa.R4),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		}, want: 0 + 1 + 4 + 9 + 16},
		{name: "tail call", insns: tailTo(0), opts: interp.Options{ProgArray: []*isa.Program{tailTarget}}, want: 77},
		{name: "tail call to missing index", insns: tailTo(5), opts: interp.Options{ProgArray: []*isa.Program{tailTarget}}, want: 55},
		// A program that tail-calls itself forever is cut after 33.
		{name: "tail call limit", insns: tailTo(0), tailSelf: true, want: 55},
		{name: "call depth limit", insns: []isa.Instruction{
			isa.Mov64Imm(isa.R1, 0),
			isa.CallBPF(1),
			isa.Exit(),
			// f: call f, with no base case
			isa.CallBPF(-1),
			isa.Exit(),
		}, err: interp.ErrCallDepth},
		// bpf_sys_bpf with a zeroed union: the buggy helper derefs NULL.
		{name: "helper error", insns: []isa.Instruction{
			isa.StoreImm(isa.SizeDW, isa.R10, -24, 0),
			isa.StoreImm(isa.SizeDW, isa.R10, -16, 0),
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
			isa.Mov64Imm(isa.R1, helpers.SysBpfProgLoad),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R2, -24),
			isa.Mov64Imm(isa.R3, 24),
			isa.Call(helperID(t, "bpf_sys_bpf")),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		}, opts: interp.Options{Bugs: helpers.BugConfig{SysBpfNullDeref: true}}, err: helpers.ErrKernelCrash},
		{name: "unimplemented helper", insns: []isa.Instruction{
			isa.Call(int32(unimplemented.ID)),
			isa.Exit(),
		}, err: helpers.ErrUnimplemented},

		// The cases below are where the engines used to diverge.

		// A helper sees the clock as of its call: 3 moves and the call
		// itself are charged first.
		{name: "ktime sees charged instructions", insns: []isa.Instruction{
			isa.Mov64Imm(isa.R6, 1),
			isa.Mov64Imm(isa.R7, 2),
			isa.Mov64Imm(isa.R8, 3),
			isa.Call(helperID(t, "bpf_ktime_get_ns")),
			isa.Exit(),
		}, want: 4},
		// Every callback exit is a charge point, so the watchdog fires in
		// a loop of callbacks far shorter than a tick batch.
		{name: "watchdog in short callbacks", insns: []isa.Instruction{
			isa.Mov64Imm(isa.R1, 1<<20),
			isa.LoadFuncRef(isa.R2, 5),
			isa.Mov64Imm(isa.R3, 0),
			isa.Mov64Imm(isa.R4, 0),
			isa.Call(loop),
			isa.Exit(),
			// callback at 6: return 0
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		}, opts: interp.Options{WatchdogNs: 1_000_000}, err: interp.ErrWatchdogExpired},
		// The chain reaches the deepest activation the engines run, frame 9.
		{name: "callback depth restarts in deep chain", insns: deepChain(8), want: 2},
		// The chain reaches the deepest frame the verifier admits, frame 8.
		{name: "callback depth restarts in verified chain", insns: deepChain(7), verified: true, want: 2},
		// The fuel meter is read before a helper runs: the call is the
		// third instruction, which exhausts Fuel 3.
		{name: "fuel before helper", insns: []isa.Instruction{
			isa.Mov64Imm(isa.R6, 1),
			isa.Mov64Imm(isa.R7, 2),
			isa.Call(helperID(t, "bpf_get_smp_processor_id")),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		}, opts: interp.Options{Fuel: 3}, err: interp.ErrFuelExhausted},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.verified {
				prog := &isa.Program{Name: c.name, Type: isa.Tracing, Insns: c.insns}
				if _, err := verifier.Verify(prog, helpers.NewRegistry(), nil, verifier.DefaultConfig()); err != nil {
					t.Fatalf("verifier rejects the program: %v", err)
				}
			}
			ir, ierr := runEngine(t, c, false)
			jr, jerr := runEngine(t, c, true)
			for _, e := range []struct {
				name string
				run  engineRun
				err  error
			}{{"interp", ir, ierr}, {"jit", jr, jerr}} {
				if c.err == nil && e.err != nil || c.err != nil && !errors.Is(e.err, c.err) {
					t.Errorf("%s: err = %v, want %v", e.name, e.err, c.err)
				}
				if c.err == nil && e.run.r0 != c.want {
					t.Errorf("%s: R0 = %d, want %d", e.name, e.run.r0, c.want)
				}
			}
			if ir != jr {
				t.Errorf("engines disagree:\ninterp %+v\njit    %+v", ir, jr)
			}
		})
	}
}
