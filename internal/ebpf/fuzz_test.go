package ebpf

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
)

// The verifier's core contract: any program it ACCEPTS must not damage the
// kernel at runtime. This differential fuzz generates random programs from
// a vocabulary that includes dangerous shapes (pointer arithmetic, stack
// and map-value access at random offsets, helper calls, branches), feeds
// them through the load pipeline, and for every accepted program asserts
// that (a) execution does not oops the kernel, (b) no references or locks
// leak, and (c) the interpreter and the JIT give the same deterministic
// report.

// progGen builds random-but-structured programs.
type progGen struct {
	rng      *rand.Rand
	insns    []isa.Instruction
	inited   map[isa.Register]bool
	ptrish   map[isa.Register]bool // likely holds a pointer at runtime
	written  []int16               // stack offsets stored to so far
	lookupID int32
	// cpuID is bpf_get_smp_processor_id, whose result does not depend on
	// the kernel clock.
	cpuID int32
}

func newProgGen(seed int64, s *Stack) *progGen {
	lookup, _ := s.Helpers.ByName("bpf_map_lookup_elem")
	cpu, _ := s.Helpers.ByName("bpf_get_smp_processor_id")
	return &progGen{
		rng:      rand.New(rand.NewSource(seed)),
		inited:   map[isa.Register]bool{isa.R1: true, isa.R10: true},
		ptrish:   map[isa.Register]bool{isa.R1: true, isa.R10: true},
		lookupID: int32(lookup.ID),
		cpuID:    int32(cpu.ID),
	}
}

func (g *progGen) reg(initedOnly bool) isa.Register {
	if initedOnly {
		var cands []isa.Register
		for r, ok := range g.inited {
			if ok && r != isa.R10 {
				cands = append(cands, r)
			}
		}
		if len(cands) == 0 {
			return isa.R1
		}
		return cands[g.rng.Intn(len(cands))]
	}
	return isa.Register(g.rng.Intn(10))
}

// scalarReg prefers an initialized register that is probably not a
// pointer, so arithmetic and comparisons usually verify; with a small
// probability it returns anything, to keep probing the pointer rules.
func (g *progGen) scalarReg() isa.Register {
	if g.rng.Intn(8) == 0 {
		return g.reg(true)
	}
	var cands []isa.Register
	for r, ok := range g.inited {
		if ok && r != isa.R10 && !g.ptrish[r] {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return g.reg(true)
	}
	return cands[g.rng.Intn(len(cands))]
}

func (g *progGen) emit(ins isa.Instruction) { g.insns = append(g.insns, ins) }

// step appends one random statement. The vocabulary is biased toward
// verifiable code so execution is exercised, but every dangerous shape —
// wild stack offsets, arbitrary-register dereference, missing null checks,
// pointer copies — stays in the mix to probe the verifier.
func (g *progGen) step() {
	switch g.rng.Intn(17) {
	case 0, 1, 2: // constant move
		dst := g.reg(false)
		g.emit(isa.Mov64Imm(dst, int32(g.rng.Int63n(1<<20)-1<<19)))
		g.inited[dst] = true
		g.ptrish[dst] = false
	case 3, 4: // ALU, usually on scalars (occasionally pointer arithmetic!)
		ops := []uint8{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpRsh, isa.OpDiv}
		op := ops[g.rng.Intn(len(ops))]
		dst := g.scalarReg()
		if g.rng.Intn(2) == 0 {
			g.emit(isa.ALU64Imm(op, dst, int32(g.rng.Intn(64))))
		} else {
			g.emit(isa.ALU64Reg(op, dst, g.scalarReg()))
		}
	case 5: // register copy (may copy r10!)
		dst := g.reg(false)
		src := g.reg(true)
		if g.rng.Intn(4) == 0 {
			src = isa.R10
		}
		g.emit(isa.Mov64Reg(dst, src))
		g.inited[dst] = true
		g.ptrish[dst] = g.ptrish[src]
	case 6, 7: // stack store, usually in frame, occasionally wild
		off := int16(-8 * (1 + g.rng.Intn(8)))
		if g.rng.Intn(8) == 0 {
			off = int16(-8 * g.rng.Intn(70)) // may leave the frame
		}
		g.emit(isa.StoreMem(isa.SizeDW, isa.R10, off, g.reg(true)))
		g.written = append(g.written, off)
	case 8, 9: // stack load, usually from a written slot
		dst := g.reg(false)
		var off int16
		if len(g.written) > 0 && g.rng.Intn(8) != 0 {
			off = g.written[g.rng.Intn(len(g.written))]
		} else {
			off = int16(-8 * (1 + g.rng.Intn(68)))
		}
		g.emit(isa.LoadMem(isa.SizeDW, dst, isa.R10, off))
		g.inited[dst] = true
		g.ptrish[dst] = true // spills may hold pointers; stay conservative
	case 10: // context load, occasionally a wild dereference
		dst := g.reg(false)
		if g.rng.Intn(4) == 0 {
			g.emit(isa.LoadMem(isa.SizeW, dst, g.reg(true), int16(g.rng.Intn(128)-16)))
		} else {
			g.emit(isa.LoadMem(isa.SizeW, dst, isa.R1, int16(g.rng.Intn(15)*4)))
		}
		g.inited[dst] = true
		g.ptrish[dst] = false
	case 11, 12: // forward conditional branch on a scalar
		remaining := 3 + g.rng.Intn(4)
		ops := []uint8{isa.OpJeq, isa.OpJne, isa.OpJgt, isa.OpJsgt, isa.OpJle}
		g.emit(isa.JmpImm(ops[g.rng.Intn(len(ops))], g.scalarReg(), int32(g.rng.Intn(100)), int16(g.rng.Intn(remaining))))
	case 13: // helper call with a deterministic result
		g.emit(isa.Call(g.cpuID))
		g.inited[isa.R0] = true
		g.ptrish[isa.R0] = false
		for r := isa.R1; r <= isa.R5; r++ {
			g.inited[r] = false
		}
	case 14: // the map lookup idiom, sometimes missing its null check
		g.emit(isa.StoreImm(isa.SizeW, isa.R10, -4, int32(g.rng.Intn(8))))
		g.emit(isa.Mov64Reg(isa.R2, isa.R10))
		g.emit(isa.ALU64Imm(isa.OpAdd, isa.R2, -4))
		g.emit(isa.LoadMapRef(isa.R1, "fuzzmap"))
		g.emit(isa.Call(g.lookupID))
		g.inited[isa.R0] = true
		g.ptrish[isa.R0] = true
		for r := isa.R1; r <= isa.R5; r++ {
			g.inited[r] = false
		}
		if g.rng.Intn(4) > 0 { // usually emit the null check
			g.emit(isa.JmpImm(isa.OpJne, isa.R0, 0, 1))
			g.emit(isa.Mov64Imm(isa.R0, 0))
			// Accesses after this point may deref R0 at random offsets.
			if g.rng.Intn(2) == 0 {
				dst := g.reg(false)
				g.emit(isa.LoadMem(isa.SizeW, dst, isa.R0, int16(g.rng.Intn(16))))
				g.inited[dst] = true
				g.ptrish[dst] = false
			}
		}
	case 15: // 32-bit op
		g.emit(isa.ALU32Imm(isa.OpAdd, g.scalarReg(), int32(g.rng.Intn(1000))))
	case 16: // 32-bit signed compare against a boundary-ish immediate
		remaining := 3 + g.rng.Intn(4)
		ops := []uint8{isa.OpJsgt, isa.OpJsle, isa.OpJsge, isa.OpJslt}
		imms := []int32{-1, 0, 1, 0x7fffffff, -0x80000000, int32(g.rng.Intn(100))}
		g.emit(isa.Jmp32Imm(ops[g.rng.Intn(len(ops))], g.scalarReg(), imms[g.rng.Intn(len(imms))], int16(g.rng.Intn(remaining))))
	}
}

func (g *progGen) finish() []isa.Instruction {
	g.emit(isa.Mov64Imm(isa.R0, int32(g.rng.Intn(2))))
	g.emit(isa.Exit())
	// Fix any branch that escapes the program.
	n := len(g.insns)
	for i := range g.insns {
		if g.insns[i].IsJump() {
			if tgt := i + 1 + int(g.insns[i].Off); tgt >= n || tgt < 0 {
				g.insns[i].Off = int16(n - 1 - i - 1)
			}
		}
	}
	return g.insns
}

func TestVerifierSoundnessFuzz(t *testing.T) {
	const trials = 2000
	accepted, crashed := 0, 0
	for seed := int64(0); seed < trials; seed++ {
		k := kernel.NewDefault()
		s := NewStack(k)
		if _, err := s.CreateMap(maps.Spec{Name: "fuzzmap", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 8}); err != nil {
			t.Fatal(err)
		}
		g := newProgGen(seed, s)
		steps := 4 + g.rng.Intn(20)
		for i := 0; i < steps; i++ {
			g.step()
		}
		prog := &isa.Program{Name: "fuzz", Type: isa.Tracing, Insns: g.finish()}

		s.UseJIT = false
		li, err := s.Load(prog)
		if err != nil {
			continue // rejected: fine, the fuzz only audits acceptances
		}
		accepted++

		repI, errI := li.Run(RunOptions{})
		switch {
		case errors.Is(errI, helpers.ErrKernelCrash):
			crashed++
			t.Errorf("seed %d: ACCEPTED program crashed the kernel: %v\nlast oops: %v\nprog:\n%v",
				seed, errI, k.LastOops(), prog.Insns)
		case errI != nil:
			t.Errorf("seed %d: accepted program failed: %v", seed, errI)
		case len(repI.ExitOopses) != 0:
			t.Errorf("seed %d: accepted program left kernel damage: %v", seed, repI.ExitOopses)
		}

		// Differential: the JIT must give the interpreter's report.
		s2 := NewStack(kernel.NewDefault())
		if _, err := s2.CreateMap(maps.Spec{Name: "fuzzmap", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 8}); err != nil {
			t.Fatal(err)
		}
		s2.UseJIT = true
		lj, err := s2.Load(prog)
		if err != nil {
			t.Errorf("seed %d: JIT stack rejected what interp stack accepted: %v", seed, err)
			continue
		}
		repJ, errJ := lj.Run(RunOptions{})
		if i, j := deterministicReport(repI, errI), deterministicReport(repJ, errJ); i != j {
			t.Errorf("seed %d: engines disagree\ninterp %s\njit    %s\nprog:\n%v", seed, i, j, prog.Insns)
		}
	}
	t.Logf("fuzz: %d/%d programs accepted, %d crashed", accepted, trials, crashed)
	if accepted < trials/20 {
		t.Fatalf("generator too hostile: only %d/%d accepted — the fuzz is not exercising execution", accepted, trials)
	}
}

// deterministicReport renders the part of a run's outcome that does not
// depend on the host: R0, the error, retired instructions, virtual CPU
// time, fuel and helper calls.
func deterministicReport(rep *RunReport, err error) string {
	return fmt.Sprintf("R0=%#x err=%v insns=%d cpu=%dns fuel=%d helpers=%v",
		rep.R0, err, rep.Instructions, rep.CPUTimeNs, rep.FuelUsed, rep.HelperCalls)
}
