package concheck

import (
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/verifier"
	"kex/internal/safext/compile"
)

// bpfTestEnv builds the registry + helper IDs the bytecode tests share.
type bpfTestEnv struct {
	reg    *helpers.Registry
	lookup int32
	update int32
	delete int32
	cpu    int32
	pid    int32
}

func newBPFEnv(t *testing.T) *bpfTestEnv {
	t.Helper()
	reg := helpers.NewRegistry()
	id := func(name string) int32 {
		s, ok := reg.ByName(name)
		if !ok {
			t.Fatalf("helper %s not in registry", name)
		}
		return int32(s.ID)
	}
	return &bpfTestEnv{
		reg:    reg,
		lookup: id("bpf_map_lookup_elem"),
		update: id("bpf_map_update_elem"),
		delete: id("bpf_map_delete_elem"),
		cpu:    id("bpf_get_smp_processor_id"),
		pid:    id("bpf_get_current_pid_tgid"),
	}
}

func (e *bpfTestEnv) analyze(t *testing.T, name string, insns []isa.Instruction,
	kinds map[string]string, facts []verifier.CallFact) *compile.ConcReport {
	t.Helper()
	prog := &isa.Program{Name: name, Type: isa.Tracing, License: "GPL", Insns: insns}
	meta := map[string]*verifier.MapMeta{}
	for m, kind := range kinds {
		ks := 8
		if kind == "array" || kind == "percpu_array" {
			ks = 4
		}
		meta[m] = &verifier.MapMeta{Name: m, KeySize: ks, ValueSize: 8}
	}
	rep, err := AnalyzeBPF(prog, e.reg, meta, kinds, facts)
	if err != nil {
		t.Fatalf("%s: AnalyzeBPF: %v", name, err)
	}
	return rep
}

// counterCommon builds the shared prologue: key -> [r10-8], r2 = &key,
// r1 = map handle, call lookup, null-check skipping `skip` insns.
func lookupSeq(e *bpfTestEnv, mapName string, keyInsns []isa.Instruction, skip int16) []isa.Instruction {
	seq := append([]isa.Instruction{}, keyInsns...) // leaves key in r6
	seq = append(seq,
		isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R6),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -8),
		isa.LoadMapRef(isa.R1, mapName),
		isa.Call(e.lookup),
		isa.JmpImm(isa.OpJeq, isa.R0, 0, skip),
	)
	return seq
}

// TestBPFAtomicCounter: lookup + atomic add through the value pointer is
// ShardSafe — the production answer the eBPF runtime paper documents.
func TestBPFAtomicCounter(t *testing.T) {
	e := newBPFEnv(t)
	insns := lookupSeq(e, "counts", []isa.Instruction{isa.Mov64Imm(isa.R6, 0)}, 2)
	insns = append(insns,
		isa.Mov64Imm(isa.R1, 1),
		isa.AtomicAdd64(isa.R0, 0, isa.R1),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	rep := e.analyze(t, "atomic_counter", insns, map[string]string{"counts": "hash"}, nil)
	if rep.Verdict != compile.VerdictShardSafe {
		t.Fatalf("verdict %s, want ShardSafe (%s)", rep.Verdict, rep.Reason)
	}
	var atomic bool
	for _, s := range rep.Maps[0].Sites {
		if s.Op == "atomic-add" && s.Class == compile.ClassAtomic {
			atomic = true
		}
	}
	if !atomic {
		t.Error("atomic add site not classified atomic")
	}
}

// TestBPFRacyStoreBack: load through the value pointer, add, store back —
// the lost-update window in its rawest bytecode form.
func TestBPFRacyStoreBack(t *testing.T) {
	e := newBPFEnv(t)
	insns := lookupSeq(e, "counts", []isa.Instruction{isa.Mov64Imm(isa.R6, 0)}, 4)
	insns = append(insns,
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R7, 1),
		isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R7),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	rep := e.analyze(t, "racy_counter", insns, map[string]string{"counts": "hash"}, nil)
	if !rep.Racy() {
		t.Fatalf("verdict %s, want Racy", rep.Verdict)
	}
}

// TestBPFPerCPUExempt: the same racy shape on a per-CPU map is safe by
// construction.
func TestBPFPerCPUExempt(t *testing.T) {
	e := newBPFEnv(t)
	insns := lookupSeq(e, "counts", []isa.Instruction{isa.Mov64Imm(isa.R6, 0)}, 4)
	insns = append(insns,
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R7, 1),
		isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R7),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	rep := e.analyze(t, "percpu_counter", insns, map[string]string{"counts": "percpu_array"}, nil)
	if rep.Verdict != compile.VerdictShardSafe {
		t.Fatalf("verdict %s, want ShardSafe (%s)", rep.Verdict, rep.Reason)
	}
	for _, s := range rep.Maps[0].Sites {
		if s.Class != compile.ClassPerCPU {
			t.Errorf("site %s: class %s, want percpu", s.Op, s.Class)
		}
	}
}

// TestBPFCPUKeyed: keying every access by bpf_get_smp_processor_id makes a
// shared map shard-private.
func TestBPFCPUKeyed(t *testing.T) {
	e := newBPFEnv(t)
	key := []isa.Instruction{
		isa.Call(e.cpu),
		isa.Mov64Reg(isa.R6, isa.R0),
	}
	insns := lookupSeq(e, "lanes", key, 4)
	insns = append(insns,
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R7, 1),
		isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R7),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	rep := e.analyze(t, "cpu_keyed", insns, map[string]string{"lanes": "hash"}, nil)
	if rep.Verdict != compile.VerdictShardSafe {
		t.Fatalf("verdict %s, want ShardSafe (%s)", rep.Verdict, rep.Reason)
	}
	var cpuKeyed bool
	for _, s := range rep.Maps[0].Sites {
		if s.Class == compile.ClassCPUKeyed {
			cpuKeyed = true
		}
	}
	if !cpuKeyed {
		t.Error("store-back window not proven cpu-keyed")
	}
}

// TestBPFBranchArmsOwnTheirState: both arms of a conditional branch reach
// new instructions, and a loop on the fall-through arm later widens that
// arm's key. The taken arm must keep its own state: its window is still
// keyed by the CPU id alone, so it is proven cpu-keyed.
func TestBPFBranchArmsOwnTheirState(t *testing.T) {
	e := newBPFEnv(t)
	insns := []isa.Instruction{
		isa.LoadMem(isa.SizeW, isa.R9, isa.R1, 0),
		isa.Mov64Imm(isa.R8, 0),
		isa.Call(e.cpu),
		isa.Mov64Reg(isa.R6, isa.R0),
		isa.JmpImm(isa.OpJeq, isa.R9, 0, 6), // taken: the window below
		isa.Mov64Reg(isa.R7, isa.R6),        // loop head
		isa.Mov64Imm(isa.R6, 9),
		isa.ALU64Imm(isa.OpAdd, isa.R8, 1),
		isa.JmpImm(isa.OpJlt, isa.R8, 4, -4),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}
	insns = append(insns, lookupSeq(e, "lanes", nil, 4)...)
	insns = append(insns,
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R7, 1),
		isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R7),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	rep := e.analyze(t, "branch_arms", insns, map[string]string{"lanes": "hash"}, nil)
	if rep.Verdict != compile.VerdictShardSafe {
		t.Fatalf("verdict %s, want ShardSafe (%s)", rep.Verdict, rep.Reason)
	}
}

// TestBPFRacyUpdateHelper: the window through the update helper — value
// buffer on the stack carries the looked-up value's taint, key is
// ctx-derived (pid).
func TestBPFRacyUpdateHelper(t *testing.T) {
	e := newBPFEnv(t)
	key := []isa.Instruction{
		isa.Call(e.pid),
		isa.Mov64Reg(isa.R6, isa.R0),
	}
	insns := lookupSeq(e, "counts", key, 10)
	insns = append(insns,
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R7, 1),
		isa.StoreMem(isa.SizeDW, isa.R10, -16, isa.R7), // value buffer
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -8),
		isa.Mov64Reg(isa.R3, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R3, -16),
		isa.LoadMapRef(isa.R1, "counts"),
		isa.Mov64Imm(isa.R4, 0),
		isa.Call(e.update),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	rep := e.analyze(t, "racy_update", insns, map[string]string{"counts": "hash"}, nil)
	if !rep.Racy() {
		t.Fatalf("verdict %s, want Racy", rep.Verdict)
	}
}

// TestBPFReadOnly: a lookup that only reads is ReadOnly.
func TestBPFReadOnly(t *testing.T) {
	e := newBPFEnv(t)
	insns := lookupSeq(e, "allow", []isa.Instruction{isa.Mov64Imm(isa.R6, 7)}, 1)
	insns = append(insns,
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
		isa.Exit(),
	)
	rep := e.analyze(t, "readonly", insns, map[string]string{"allow": "hash"}, nil)
	if rep.Maps[0].Verdict != compile.VerdictReadOnly {
		t.Fatalf("map verdict %s, want ReadOnly (%s)", rep.Maps[0].Verdict, rep.Maps[0].Reason)
	}
	if rep.Maps[0].Sites[0].Key != "const 7" {
		t.Errorf("lookup key %q, want const 7", rep.Maps[0].Sites[0].Key)
	}
}

// TestBPFSnapshotFallback: the local pass degrades arithmetic it does not
// model (arsh), but the verifier's facts still know the spilled key is a
// constant — the analyzer must recover it from there.
func TestBPFSnapshotFallback(t *testing.T) {
	e := newBPFEnv(t)
	key := []isa.Instruction{
		isa.Mov64Imm(isa.R6, 10),
		isa.ALU64Imm(isa.OpArsh, isa.R6, 1), // r6 = 5; concheck alone sees unknown
	}
	insns := lookupSeq(e, "allow", key, 1)
	insns = append(insns,
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
		isa.Exit(),
	)
	prog := &isa.Program{Name: "snap_fallback", Type: isa.Tracing, License: "GPL", Insns: insns}
	meta := map[string]*verifier.MapMeta{"allow": {Name: "allow", KeySize: 8, ValueSize: 8}}

	// Without the verifier's facts the key degrades to unknown.
	rep, err := AnalyzeBPF(prog, e.reg, meta, map[string]string{"allow": "hash"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Maps[0].Sites[0].Key; got != "unknown" {
		t.Fatalf("without facts: key %q, want unknown", got)
	}

	res, err := verifier.Verify(prog, e.reg, meta, verifier.DefaultConfig())
	if err != nil {
		t.Fatalf("verifier rejected fixture: %v", err)
	}
	rep, err = AnalyzeBPF(prog, e.reg, meta, map[string]string{"allow": "hash"}, res.Facts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Maps[0].Sites[0].Key; got != "const 5" {
		t.Errorf("with facts: key %q, want const 5 (recovered from the verifier's facts)", got)
	}
}

// TestBPFFalsePerCPUClaim: cpu()*2^32 on a 4-byte-key array map collapses
// to one shared cell — the bytecode twin of the SLX false-percpu mutant.
func TestBPFFalsePerCPUClaim(t *testing.T) {
	e := newBPFEnv(t)
	key := []isa.Instruction{
		isa.Call(e.cpu),
		isa.Mov64Reg(isa.R6, isa.R0),
		isa.ALU64Imm(isa.OpLsh, isa.R6, 32),
	}
	insns := lookupSeq(e, "lanes", key, 4)
	insns = append(insns,
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R7, 1),
		isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R7),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	// On the 4-byte-key array map the multiplier vanishes: Racy.
	rep := e.analyze(t, "false_percpu", insns, map[string]string{"lanes": "array"}, nil)
	if !rep.Racy() {
		t.Fatalf("4-byte key: verdict %s, want Racy", rep.Verdict)
	}
	// On an 8-byte-key hash map the same key really is injective: safe.
	rep = e.analyze(t, "true_cpu_shifted", insns, map[string]string{"lanes": "hash"}, nil)
	if rep.Verdict != compile.VerdictShardSafe {
		t.Fatalf("8-byte key: verdict %s, want ShardSafe (%s)", rep.Verdict, rep.Reason)
	}
}

// TestBPFControlWindowDelete: delete conditioned on the cell's own value.
func TestBPFControlWindowDelete(t *testing.T) {
	e := newBPFEnv(t)
	insns := lookupSeq(e, "sessions", []isa.Instruction{isa.Mov64Imm(isa.R6, 3)}, 7)
	insns = append(insns,
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R0, 0),
		isa.JmpImm(isa.OpJle, isa.R7, 5, 5), // if value <= 5 skip delete
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -8),
		isa.LoadMapRef(isa.R1, "sessions"),
		isa.Call(e.delete),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	)
	rep := e.analyze(t, "racy_delete", insns, map[string]string{"sessions": "hash"}, nil)
	if !rep.Racy() {
		t.Fatalf("verdict %s, want Racy (check-then-act delete)", rep.Verdict)
	}
}

// TestBPFSlotJoinDropsOneSidedSlots: the two arms of a branch write
// different stack slots and meet again. Each arm reads its own slot as the
// constant it wrote. At the merge the slot both arms wrote keeps its
// constant, and each slot only one arm wrote reads as unknown: a join keeps
// only the slots present on both sides.
func TestBPFSlotJoinDropsOneSidedSlots(t *testing.T) {
	e := newBPFEnv(t)
	lookupAt := func(off int32) []isa.Instruction {
		return []isa.Instruction{
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R2, off),
			isa.LoadMapRef(isa.R1, "allow"),
			isa.Call(e.lookup),
		}
	}
	insns := []isa.Instruction{
		isa.LoadMem(isa.SizeW, isa.R9, isa.R1, 0),
		isa.Mov64Imm(isa.R6, 3),
		isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R6), // both arms
		isa.JmpImm(isa.OpJeq, isa.R9, 0, 6),
		isa.StoreImm(isa.SizeDW, isa.R10, -16, 5), // fall-through arm only
	}
	insns = append(insns, lookupAt(-16)...)
	insns = append(insns,
		isa.Ja(5),
		isa.StoreImm(isa.SizeDW, isa.R10, -24, 7), // taken arm only
	)
	insns = append(insns, lookupAt(-24)...)
	merge := len(insns)
	for _, off := range []int32{-8, -16, -24} {
		insns = append(insns, lookupAt(off)...)
	}
	insns = append(insns, isa.Mov64Imm(isa.R0, 0), isa.Exit())
	if 3+1+int(insns[3].Off) != 10 || 9+1+int(insns[9].Off) != merge {
		t.Fatal("fixture jumps miss their targets")
	}

	rep := e.analyze(t, "slot_join", insns, map[string]string{"allow": "hash"}, nil)
	keys := map[int]string{}
	for _, s := range rep.Maps[0].Sites {
		keys[s.PC] = s.Key
	}
	for _, want := range []struct {
		pc  int
		key string
	}{
		{8, "const 5"},          // fall-through arm reads its own slot
		{14, "const 7"},         // taken arm reads its own slot
		{merge + 3, "const 3"},  // written on both arms
		{merge + 7, "unknown"},  // fall-through arm only
		{merge + 11, "unknown"}, // taken arm only
	} {
		if got, ok := keys[want.pc]; !ok || got != want.key {
			t.Errorf("lookup at pc %d: key %q (site recorded: %v), want %q", want.pc, got, ok, want.key)
		}
	}
}

// TestBPFOneStatePerBlock: the analysis keeps a state only at block
// leaders and steps one working state through each block, so what it
// allocates does not grow with a block's length.
func TestBPFOneStatePerBlock(t *testing.T) {
	e := newBPFEnv(t)
	allocs := func(n int) float64 {
		insns := lookupSeq(e, "allow", []isa.Instruction{isa.Mov64Imm(isa.R6, 7)}, 1)
		insns = append(insns, isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0))
		for i := 0; i < n; i++ {
			insns = append(insns, isa.ALU64Imm(isa.OpAdd, isa.R0, 1))
		}
		insns = append(insns, isa.Exit())
		prog := &isa.Program{Name: "straight", Type: isa.Tracing, License: "GPL", Insns: insns}
		meta := map[string]*verifier.MapMeta{"allow": {Name: "allow", KeySize: 8, ValueSize: 8}}
		kinds := map[string]string{"allow": "hash"}
		return testing.AllocsPerRun(10, func() {
			if _, err := AnalyzeBPF(prog, e.reg, meta, kinds, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(4), allocs(400); long != short {
		t.Errorf("AnalyzeBPF allocates %.0f times with 4 straight-line insns, %.0f with 400", short, long)
	}
}
