package verifier

import (
	"fmt"
	"strings"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
)

var testHelpers = helpers.NewRegistry()

func helperID(t *testing.T, name string) int32 {
	t.Helper()
	s, ok := testHelpers.ByName(name)
	if !ok {
		t.Fatalf("helper %q missing", name)
	}
	return int32(s.ID)
}

var testMaps = map[string]*MapMeta{
	"counts": {Name: "counts", KeySize: 4, ValueSize: 8},
	"big":    {Name: "big", KeySize: 4, ValueSize: 64},
	"locked": {Name: "locked", KeySize: 4, ValueSize: 16, HasLock: true},
	"ring":   {Name: "ring", KeySize: 0, ValueSize: 0},
}

func verify(t *testing.T, progType isa.ProgType, insns []isa.Instruction) (*Result, error) {
	t.Helper()
	prog := &isa.Program{Name: "test", Type: progType, Insns: insns}
	return Verify(prog, testHelpers, testMaps, DefaultConfig())
}

func mustVerify(t *testing.T, progType isa.ProgType, insns []isa.Instruction) *Result {
	t.Helper()
	res, err := verify(t, progType, insns)
	if err != nil {
		t.Fatalf("expected to verify: %v", err)
	}
	return res
}

func mustReject(t *testing.T, progType isa.ProgType, insns []isa.Instruction, wantSubstr string) {
	t.Helper()
	_, err := verify(t, progType, insns)
	if err == nil {
		t.Fatalf("expected rejection containing %q, but program verified", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err, wantSubstr)
	}
}

// ---- basics ---------------------------------------------------------------

func TestVerifyTrivial(t *testing.T) {
	mustVerify(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	})
}

func TestRejectExitWithoutR0(t *testing.T) {
	mustReject(t, isa.Tracing, []isa.Instruction{isa.Exit()}, "R0 !read_ok")
}

func TestRejectUninitRegister(t *testing.T) {
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Reg(isa.R0, isa.R5),
		isa.Exit(),
	}, "!read_ok")
}

func TestRejectUnreachableCode(t *testing.T) {
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		isa.Mov64Imm(isa.R0, 1), // dead
		isa.Exit(),
	}, "unreachable")
}

func TestRejectWriteToR10(t *testing.T) {
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Imm(isa.R10, 0),
		isa.Exit(),
	}, "frame pointer is read only")
}

func TestPointerLeakToMapRejected(t *testing.T) {
	// Storing the ctx pointer into a map value would leak a kernel address.
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R8, "counts"),
		isa.Mov64Reg(isa.R7, isa.R1), // save ctx
		isa.Mov64Reg(isa.R1, isa.R8),
		isa.Call(int32(mustHelperID("bpf_map_lookup_elem"))),
		isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R7), // leak ctx ptr into map value
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}, "leaks pointer")
}

// ---- ALU / bounds -----------------------------------------------------------

func TestDivByZeroAccepted(t *testing.T) {
	// eBPF defines x/0 == 0 at runtime, so the verifier accepts it.
	mustVerify(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Imm(isa.R0, 10),
		isa.Mov64Imm(isa.R1, 0),
		isa.ALU64Reg(isa.OpDiv, isa.R0, isa.R1),
		isa.Exit(),
	})
}

func TestRejectHugeConstShift(t *testing.T) {
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Imm(isa.R0, 1),
		isa.ALU64Imm(isa.OpLsh, isa.R0, 64),
		isa.Exit(),
	}, "invalid shift")
}

func TestRejectPointerMul(t *testing.T) {
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpMul, isa.R2, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}, "pointer arithmetic")
}

func TestReject32BitPointerALU(t *testing.T) {
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU32Imm(isa.OpAdd, isa.R2, 4),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}, "32-bit pointer arithmetic")
}

func TestRejectPointerComparisonWithScalar(t *testing.T) {
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Imm(isa.R2, 5),
		isa.JmpReg(isa.OpJgt, isa.R10, isa.R2, 1),
		isa.Mov64Imm(isa.R0, 0),
		isa.Mov64Imm(isa.R0, 1),
		isa.Exit(),
	}, "pointer comparison")
}

// ---- stack -------------------------------------------------------------------

func TestStackWriteRead(t *testing.T) {
	mustVerify(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Imm(isa.R1, 42),
		isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R1),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.Exit(),
	})
}

func TestRejectUninitStackRead(t *testing.T) {
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.Exit(),
	}, "uninitialized")
}

func TestRejectStackOOB(t *testing.T) {
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Imm(isa.R1, 1),
		isa.StoreMem(isa.SizeDW, isa.R10, -520, isa.R1),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}, "invalid stack access")
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Imm(isa.R1, 1),
		isa.StoreMem(isa.SizeDW, isa.R10, 0, isa.R1), // above frame bottom
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}, "invalid stack access")
}

func TestSpillFillPreservesPointer(t *testing.T) {
	// Spilling the ctx pointer and filling it back must preserve its type.
	mustVerify(t, isa.Tracing, []isa.Instruction{
		isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R1),
		isa.LoadMem(isa.SizeDW, isa.R2, isa.R10, -8),
		isa.LoadMem(isa.SizeW, isa.R0, isa.R2, 0), // ctx load through filled ptr
		isa.Exit(),
	})
}

func TestRejectPartialPointerFill(t *testing.T) {
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R1),
		isa.LoadMem(isa.SizeW, isa.R0, isa.R10, -8), // half of a pointer
		isa.Exit(),
	}, "partial read of spilled pointer")
}

func TestRejectVariableStackOffset(t *testing.T) {
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.LoadMem(isa.SizeW, isa.R2, isa.R1, 0), // unknown scalar from ctx
		isa.Mov64Reg(isa.R3, isa.R10),
		isa.ALU64Reg(isa.OpAdd, isa.R3, isa.R2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}, "variable offset into stack")
}

// ---- ctx access ----------------------------------------------------------------

func TestCtxAccess(t *testing.T) {
	mustVerify(t, isa.Tracing, []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R1, 0),
		isa.Exit(),
	})
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R1, 64), // beyond ctx
		isa.Exit(),
	}, "invalid bpf_context access")
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Imm(isa.R2, 0),
		isa.StoreMem(isa.SizeDW, isa.R1, 0, isa.R2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}, "write into ctx")
}

// ---- map access -------------------------------------------------------------------

// mapLookup builds the canonical lookup sequence leaving the value pointer
// in R0 and a verified non-null copy in R7 (jumping to exitPC when null).
func mapLookupProg(tail []isa.Instruction) []isa.Instruction {
	prog := []isa.Instruction{
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R1, "counts"),
		isa.Call(int32(mustHelperID("bpf_map_lookup_elem"))),
		isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	return append(prog, tail...)
}

func mustHelperID(name string) helpers.ID {
	s, ok := testHelpers.ByName(name)
	if !ok {
		panic("missing helper " + name)
	}
	return s.ID
}

func TestMapLookupNullCheckRequired(t *testing.T) {
	// With the null check, dereference verifies.
	mustVerify(t, isa.Tracing, mapLookupProg([]isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
		isa.Exit(),
	}))
	// Without it, rejection.
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R1, "counts"),
		isa.Call(int32(mustHelperID("bpf_map_lookup_elem"))),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
		isa.Exit(),
	}, "map_value_or_null")
}

func TestMapValueBoundsChecked(t *testing.T) {
	// In-bounds access at offset 0..7 of an 8-byte value: ok.
	mustVerify(t, isa.Tracing, mapLookupProg([]isa.Instruction{
		isa.LoadMem(isa.SizeW, isa.R1, isa.R0, 4),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}))
	// Out of bounds: rejected.
	mustReject(t, isa.Tracing, mapLookupProg([]isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R1, isa.R0, 4), // bytes 4..11 of 8
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}), "invalid access to map value")
}

func TestMapValueVariableOffsetNeedsBounds(t *testing.T) {
	// A bounded variable index into a 64-byte value verifies.
	bounded := []isa.Instruction{
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R1, "big"),
		isa.Call(int32(mustHelperID("bpf_map_lookup_elem"))),
		isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		isa.LoadMem(isa.SizeW, isa.R2, isa.R1, 0), // scalar from ctx... R1 clobbered; use stack instead
	}
	_ = bounded
	prog := []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 0), // unknown scalar from ctx
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R1, "big"),
		isa.Call(int32(mustHelperID("bpf_map_lookup_elem"))),
		isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		// Bound the index to [0, 56] and add it to the value pointer.
		isa.JmpImm(isa.OpJle, isa.R6, 56, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R6),
		isa.LoadMem(isa.SizeDW, isa.R1, isa.R0, 0),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	mustVerify(t, isa.Tracing, prog)

	// Without the bounds check the same access is rejected.
	unbounded := append([]isa.Instruction{}, prog[:9]...)
	unbounded = append(unbounded,
		isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R6),
		isa.LoadMem(isa.SizeDW, isa.R1, isa.R0, 0),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, isa.Tracing, unbounded, "unbounded memory access")
}

// ---- loops and complexity -----------------------------------------------------------

func loopProg(n int32) []isa.Instruction {
	return []isa.Instruction{
		isa.Mov64Imm(isa.R6, 0),
		isa.Mov64Imm(isa.R0, 0),
		// loop: r6 += 1; if r6 < n goto loop
		isa.ALU64Imm(isa.OpAdd, isa.R6, 1),
		isa.JmpImm(isa.OpJlt, isa.R6, n, -2),
		isa.Exit(),
	}
}

func TestBoundedLoopVerifies(t *testing.T) {
	res := mustVerify(t, isa.Tracing, loopProg(100))
	if res.InsnsProcessed < 200 {
		t.Fatalf("loop under-explored: %d insns", res.InsnsProcessed)
	}
}

func TestLoopRejectedWithoutFeature(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AllowLoops = false
	prog := &isa.Program{Name: "loop", Type: isa.Tracing, Insns: loopProg(10)}
	_, err := Verify(prog, testHelpers, testMaps, cfg)
	if err == nil || !strings.Contains(err.Error(), "back-edge") {
		t.Fatalf("err = %v, want back-edge rejection", err)
	}
}

func TestComplexityLimitKillsBigLoops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ComplexityLimit = 10_000
	prog := &isa.Program{Name: "big-loop", Type: isa.Tracing, Insns: loopProg(1 << 20)}
	_, err := Verify(prog, testHelpers, testMaps, cfg)
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("err = %v, want complexity rejection", err)
	}
}

func TestInfiniteLoopRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ComplexityLimit = 10_000
	prog := &isa.Program{Name: "inf", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 0),
		isa.Ja(-1), // while(1);
		isa.Exit(),
	}}
	_, err := Verify(prog, testHelpers, testMaps, cfg)
	if err == nil {
		t.Fatal("infinite loop verified")
	}
}

func TestPruningConvergesDiamonds(t *testing.T) {
	// A chain of diamonds has 2^n paths; pruning must visit far fewer.
	// Both arms overwrite the branched-on register so the join states are
	// identical and the second arrival prunes.
	var insns []isa.Instruction
	const diamonds = 16
	for i := 0; i < diamonds; i++ {
		insns = append(insns,
			isa.LoadMem(isa.SizeDW, isa.R4, isa.R1, 0), // fresh unknown
			isa.JmpImm(isa.OpJeq, isa.R4, 0, 2),
			isa.Mov64Imm(isa.R4, 1),
			isa.Ja(1),
			isa.Mov64Imm(isa.R4, 1),
		)
	}
	insns = append(insns, isa.Mov64Imm(isa.R0, 0), isa.Exit())
	res := mustVerify(t, isa.Tracing, insns)
	if res.InsnsProcessed > 2000 {
		t.Fatalf("pruning failed: processed %d insns for %d diamonds", res.InsnsProcessed, diamonds)
	}
	if res.StatesPruned < diamonds {
		t.Fatalf("pruned %d states, want >= %d", res.StatesPruned, diamonds)
	}
}

// ---- packet access -----------------------------------------------------------------

func TestPacketAccessRequiresBoundCheck(t *testing.T) {
	good := []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R2, isa.R1, 0), // data
		isa.LoadMem(isa.SizeDW, isa.R3, isa.R1, 8), // data_end
		isa.Mov64Reg(isa.R4, isa.R2),
		isa.ALU64Imm(isa.OpAdd, isa.R4, 14),
		isa.JmpReg(isa.OpJgt, isa.R4, isa.R3, 2),   // if data+14 > end: drop
		isa.LoadMem(isa.SizeW, isa.R0, isa.R2, 10), // within proven 14
		isa.Ja(1),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	mustVerify(t, isa.SocketFilter, good)

	bad := []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R2, isa.R1, 0),
		isa.LoadMem(isa.SizeW, isa.R0, isa.R2, 10), // no bound check
		isa.Exit(),
	}
	mustReject(t, isa.SocketFilter, bad, "invalid access to packet")
}

func TestPacketWriteOnlyForXDP(t *testing.T) {
	prog := []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R2, isa.R1, 0),
		isa.LoadMem(isa.SizeDW, isa.R3, isa.R1, 8),
		isa.Mov64Reg(isa.R4, isa.R2),
		isa.ALU64Imm(isa.OpAdd, isa.R4, 8),
		isa.JmpReg(isa.OpJgt, isa.R4, isa.R3, 1),
		isa.StoreImm(isa.SizeW, isa.R2, 0, 7),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	mustVerify(t, isa.XDP, prog)
	mustReject(t, isa.SocketFilter, prog, "write into packet")
}

// ---- references ----------------------------------------------------------------------

func skLookupSeq() []isa.Instruction {
	return []isa.Instruction{
		// Build a 12-byte tuple on the stack.
		isa.StoreImm(isa.SizeDW, isa.R10, -16, 0),
		isa.StoreImm(isa.SizeW, isa.R10, -8, 0),
		isa.Mov64Reg(isa.R1, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R1, -16),
		isa.Mov64Imm(isa.R2, 12),
		isa.Call(int32(mustHelperID("bpf_sk_lookup_tcp"))),
	}
}

func TestSocketRefMustBeReleased(t *testing.T) {
	// Correct: lookup, null check, release.
	good := append(skLookupSeq(),
		isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		isa.Mov64Reg(isa.R1, isa.R0),
		isa.Call(int32(mustHelperID("bpf_sk_release"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustVerify(t, isa.Tracing, good)

	// Leak: exit on the non-null path without releasing.
	leak := append(skLookupSeq(),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, isa.Tracing, leak, "Unreleased reference")
}

func TestReleaseRequiresNonNull(t *testing.T) {
	prog := append(skLookupSeq(),
		isa.Mov64Reg(isa.R1, isa.R0),
		isa.Call(int32(mustHelperID("bpf_sk_release"))), // no null check
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, isa.Tracing, prog, "possibly-NULL sock")
}

func TestUseAfterReleaseRejected(t *testing.T) {
	prog := append(skLookupSeq(),
		isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		isa.Mov64Reg(isa.R6, isa.R0),
		isa.Mov64Reg(isa.R1, isa.R0),
		isa.Call(int32(mustHelperID("bpf_sk_release"))),
		isa.LoadMem(isa.SizeW, isa.R0, isa.R6, 0), // stale pointer
		isa.Exit(),
	)
	mustReject(t, isa.Tracing, prog, "!read_ok")
}

func TestRingbufReserveMustSubmit(t *testing.T) {
	reserve := []isa.Instruction{
		isa.LoadMapRef(isa.R1, "ring"),
		isa.Mov64Imm(isa.R2, 16),
		isa.Mov64Imm(isa.R3, 0),
		isa.Call(int32(mustHelperID("bpf_ringbuf_reserve"))),
	}
	good := append(append([]isa.Instruction{}, reserve...),
		isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		// Write into the 16-byte record, then submit.
		isa.Mov64Imm(isa.R2, 7),
		isa.StoreMem(isa.SizeDW, isa.R0, 8, isa.R2),
		isa.Mov64Reg(isa.R1, isa.R0),
		isa.Mov64Imm(isa.R2, 0),
		isa.Call(int32(mustHelperID("bpf_ringbuf_submit"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustVerify(t, isa.Tracing, good)

	leak := append(append([]isa.Instruction{}, reserve...),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, isa.Tracing, leak, "Unreleased reference")

	oob := append(append([]isa.Instruction{}, reserve...),
		isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		isa.Mov64Imm(isa.R2, 7),
		isa.StoreMem(isa.SizeDW, isa.R0, 12, isa.R2), // bytes 12..19 of 16
		isa.Mov64Reg(isa.R1, isa.R0),
		isa.Mov64Imm(isa.R2, 0),
		isa.Call(int32(mustHelperID("bpf_ringbuf_submit"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, isa.Tracing, oob, "invalid access to memory")
}

// ---- spin locks --------------------------------------------------------------------------

func lockValueSeq() []isa.Instruction {
	return []isa.Instruction{
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R1, "locked"),
		isa.Call(int32(mustHelperID("bpf_map_lookup_elem"))),
		isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		isa.Mov64Reg(isa.R6, isa.R0), // non-null lock value in R6
	}
}

func TestSpinLockPairing(t *testing.T) {
	good := append(lockValueSeq(),
		isa.Mov64Reg(isa.R1, isa.R6),
		isa.Call(int32(mustHelperID("bpf_spin_lock"))),
		isa.Mov64Reg(isa.R1, isa.R6),
		isa.Call(int32(mustHelperID("bpf_spin_unlock"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustVerify(t, isa.Tracing, good)

	// Exit while holding the lock.
	leak := append(lockValueSeq(),
		isa.Mov64Reg(isa.R1, isa.R6),
		isa.Call(int32(mustHelperID("bpf_spin_lock"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, isa.Tracing, leak, "not released")

	// Helper call while holding the lock.
	helperWhileLocked := append(lockValueSeq(),
		isa.Mov64Reg(isa.R1, isa.R6),
		isa.Call(int32(mustHelperID("bpf_spin_lock"))),
		isa.Call(int32(mustHelperID("bpf_ktime_get_ns"))),
		isa.Mov64Reg(isa.R1, isa.R6),
		isa.Call(int32(mustHelperID("bpf_spin_unlock"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, isa.Tracing, helperWhileLocked, "prohibited while holding a spin lock")

	// Unlock without lock.
	noLock := append(lockValueSeq(),
		isa.Mov64Reg(isa.R1, isa.R6),
		isa.Call(int32(mustHelperID("bpf_spin_unlock"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, isa.Tracing, noLock, "without held lock")
}

func TestDirectAccessToLockRegionRejected(t *testing.T) {
	prog := append(lockValueSeq(),
		isa.LoadMem(isa.SizeW, isa.R1, isa.R6, 0), // the lock header
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	mustReject(t, isa.Tracing, prog, "invalid access to map value")
}

// ---- helper argument checking ---------------------------------------------------------------

func TestHelperArgTypeChecked(t *testing.T) {
	// Scalar where map handle expected.
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Imm(isa.R1, 1234),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
		isa.Call(int32(mustHelperID("bpf_map_lookup_elem"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}, "expected=map_ptr")

	// Uninitialized buffer passed as readable mem.
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Reg(isa.R1, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R1, -16),
		isa.Mov64Imm(isa.R2, 16),
		isa.Mov64Imm(isa.R3, 0),
		isa.Mov64Imm(isa.R4, 0),
		isa.Mov64Imm(isa.R5, 0),
		isa.Call(int32(mustHelperID("bpf_trace_printk"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}, "invalid indirect read from stack")

	// Unknown helper id.
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.Mov64Imm(isa.R0, 0),
		isa.Call(9999),
		isa.Exit(),
	}, "invalid func id")

	// Unbounded size argument.
	mustReject(t, isa.Tracing, []isa.Instruction{
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.LoadMem(isa.SizeDW, isa.R2, isa.R1, 0), // unbounded scalar
		isa.Mov64Reg(isa.R1, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R1, -8),
		isa.Mov64Imm(isa.R3, 0),
		isa.Mov64Imm(isa.R4, 0),
		isa.Mov64Imm(isa.R5, 0),
		isa.Call(int32(mustHelperID("bpf_trace_printk"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}, "unbounded size")
}

// The E1 precondition: a NULL-bearing union passes shallow checking.
func TestSysBpfUnionPassesShallowCheck(t *testing.T) {
	prog := []isa.Instruction{
		// Zero 24 bytes of stack as the union bpf_attr.
		isa.StoreImm(isa.SizeDW, isa.R10, -24, 0),
		isa.StoreImm(isa.SizeDW, isa.R10, -16, 0),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Mov64Imm(isa.R1, 1), // PROG_LOAD
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -24),
		isa.Mov64Imm(isa.R3, 24),
		isa.Call(int32(mustHelperID("bpf_sys_bpf"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	// The verifier accepts this program — the union's NULL pointer field is
	// invisible to shallow argument checking. (The runtime consequence is
	// demonstrated in the exploit experiments.)
	mustVerify(t, isa.Syscall, prog)
}

// PtrToTask nullness is not checked (the task_storage_get gap).
func TestTaskArgNullnessNotChecked(t *testing.T) {
	prog := []isa.Instruction{
		isa.LoadMapRef(isa.R1, "counts"),
		isa.Mov64Imm(isa.R2, 0), // literal NULL task pointer
		isa.Mov64Imm(isa.R3, 0),
		isa.Mov64Imm(isa.R4, 1),
		isa.Call(int32(mustHelperID("bpf_task_storage_get"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	mustVerify(t, isa.Tracing, prog)
}

// ---- BPF-to-BPF calls --------------------------------------------------------------------------

func TestBPFCall(t *testing.T) {
	prog := []isa.Instruction{
		isa.Mov64Imm(isa.R1, 20),
		isa.CallBPF(1), // call double() at element 3
		isa.Exit(),     // return its result
		// double(x): r0 = x + x
		isa.Mov64Reg(isa.R0, isa.R1),
		isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R1),
		isa.Exit(),
	}
	mustVerify(t, isa.Tracing, prog)
}

func TestBPFCallDepthLimited(t *testing.T) {
	// main calls f, f calls f (self-recursion exceeds the frame cap).
	prog := []isa.Instruction{
		isa.Mov64Imm(isa.R1, 1),
		isa.CallBPF(1), // call f at element 3
		isa.Exit(),
		// f:
		isa.Mov64Imm(isa.R0, 0),
		isa.CallBPF(-2), // call f again
		isa.Exit(),
	}
	mustReject(t, isa.Tracing, prog, "call stack")
}

func TestBPFCallScratchesCallerRegs(t *testing.T) {
	prog := []isa.Instruction{
		isa.Mov64Imm(isa.R2, 7),
		isa.Mov64Imm(isa.R1, 1),
		isa.CallBPF(2),               // call element 5
		isa.Mov64Reg(isa.R0, isa.R2), // R2 was clobbered by the call
		isa.Exit(),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	mustReject(t, isa.Tracing, prog, "!read_ok")
}

func TestCalleeSavedSurviveCall(t *testing.T) {
	prog := []isa.Instruction{
		isa.Mov64Imm(isa.R6, 7),
		isa.Mov64Imm(isa.R1, 1),
		isa.CallBPF(2),               // call element 5
		isa.Mov64Reg(isa.R0, isa.R6), // R6 survives
		isa.Exit(),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	mustVerify(t, isa.Tracing, prog)
}

// ---- callbacks --------------------------------------------------------------------------------

func TestLoopCallbackVerified(t *testing.T) {
	good := []isa.Instruction{
		isa.Mov64Imm(isa.R1, 10),
		isa.LoadFuncRef(isa.R2, 7),
		isa.Mov64Imm(isa.R3, 0),
		isa.Mov64Imm(isa.R4, 0),
		isa.Call(int32(mustHelperID("bpf_loop"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		// callback(i, ctx): return 0
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	mustVerify(t, isa.Tracing, good)

	// A callback with a safety violation is rejected even though it is
	// only reachable through the helper.
	bad := []isa.Instruction{
		isa.Mov64Imm(isa.R1, 10),
		isa.LoadFuncRef(isa.R2, 7),
		isa.Mov64Imm(isa.R3, 0),
		isa.Mov64Imm(isa.R4, 0),
		isa.Call(int32(mustHelperID("bpf_loop"))),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
		// callback: read uninit stack
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.Exit(),
	}
	mustReject(t, isa.Tracing, bad, "uninitialized")
}

// ---- era configs -------------------------------------------------------------------------------

func TestEraConfigsGrowFeatures(t *testing.T) {
	prev := -1
	for _, era := range []string{"v3.18", "v4.9", "v4.20", "v5.4", "v5.15"} {
		n := EraConfig(era).FeatureCount()
		if n < prev {
			t.Fatalf("feature count shrank at %s: %d < %d", era, n, prev)
		}
		prev = n
	}
	if EraConfig("v3.18").AllowLoops {
		t.Fatal("v3.18 allows loops")
	}
	if !EraConfig("v5.4").AllowLoops {
		t.Fatal("v5.4 disallows loops")
	}
}

func TestProgramSizeCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInsns = 8
	insns := make([]isa.Instruction, 0, 12)
	for i := 0; i < 10; i++ {
		insns = append(insns, isa.Mov64Imm(isa.R0, int32(i)))
	}
	insns = append(insns, isa.Exit())
	prog := &isa.Program{Name: "big", Type: isa.Tracing, Insns: insns}
	_, err := Verify(prog, testHelpers, testMaps, cfg)
	if err == nil || !strings.Contains(err.Error(), "program too large") {
		t.Fatalf("err = %v", err)
	}
}

// ---- state log ------------------------------------------------------------

// TestLogStateDumpsPerInsnState covers the Config.LogState switch behind
// `kexverify -dump-state`: on, the result carries one line per instruction
// visit with the abstract register state; off, the log stays empty.
func TestLogStateDumpsPerInsnState(t *testing.T) {
	insns := []isa.Instruction{
		isa.Mov64Imm(isa.R0, 7),
		isa.ALU64Imm(isa.OpAdd, isa.R0, 1),
		isa.Exit(),
	}
	prog := &isa.Program{Name: "log", Type: isa.Tracing, Insns: insns}

	cfg := DefaultConfig()
	res, err := Verify(prog, testHelpers, testMaps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Log) != 0 {
		t.Fatalf("log populated without LogState: %v", res.Log)
	}

	cfg.LogState = true
	res, err = Verify(prog, testHelpers, testMaps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Log) < len(insns) {
		t.Fatalf("log has %d lines, want at least %d: %v", len(res.Log), len(insns), res.Log)
	}
	for i, line := range res.Log[:len(insns)] {
		if !strings.HasPrefix(line, fmt.Sprintf("%d:", i)) {
			t.Errorf("log line %d = %q, want pc prefix", i, line)
		}
	}
	if !strings.Contains(res.Log[1], "r0=7") {
		t.Errorf("state after mov not visible in %q", res.Log[1])
	}
}

// TestCallFactsJoinVisits: the facts at a helper call are joined over every
// state that reaches it. Two arms of a diamond pass a map and a spilled key
// to one lookup; a fact is known when both arms agree and poisoned when
// they differ, and a key slot holding no constant poisons it on any path.
func TestCallFactsJoinVisits(t *testing.T) {
	lookup := helperID(t, "bpf_map_lookup_elem")
	for _, tc := range []struct {
		name            string
		mapA, mapB      string
		keyA, keyB      isa.Instruction // sets r7, the key spilled at r10-8
		wantMap         string          // "" when poisoned
		wantKey         uint64
		wantKeyConstant bool
	}{
		{"agree", "counts", "counts", isa.Mov64Imm(isa.R7, 3), isa.Mov64Imm(isa.R7, 3), "counts", 3, true},
		{"maps differ", "counts", "big", isa.Mov64Imm(isa.R7, 3), isa.Mov64Imm(isa.R7, 3), "", 3, true},
		{"keys differ", "counts", "counts", isa.Mov64Imm(isa.R7, 3), isa.Mov64Imm(isa.R7, 4), "counts", 0, false},
		{"key unknown", "counts", "counts", isa.Mov64Imm(isa.R7, 3), isa.Mov64Reg(isa.R7, isa.R6), "counts", 0, false},
	} {
		res := mustVerify(t, isa.Tracing, []isa.Instruction{
			isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 0), // unknown
			isa.JmpImm(isa.OpJgt, isa.R6, 5, 3),
			tc.keyA,
			isa.LoadMapRef(isa.R1, tc.mapA),
			isa.Ja(2),
			tc.keyB,
			isa.LoadMapRef(isa.R1, tc.mapB),
			isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R7),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R2, -8),
			isa.Call(lookup), // pc 10
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		})
		fact := res.Facts[10]
		got := ""
		if m, ok := fact.Map.Get(); ok {
			got = m.Name
		}
		if got != tc.wantMap {
			t.Errorf("%s: map fact %q, want %q", tc.name, got, tc.wantMap)
		}
		if k, ok := fact.Key.Get(); ok != tc.wantKeyConstant || k != tc.wantKey {
			t.Errorf("%s: key fact %d (known %v), want %d (known %v)", tc.name, k, ok, tc.wantKey, tc.wantKeyConstant)
		}
		for pc, f := range res.Facts {
			if pc != 10 && f != (CallFact{}) {
				t.Errorf("%s: pc %d is no helper call but has a fact", tc.name, pc)
			}
		}
	}
}
