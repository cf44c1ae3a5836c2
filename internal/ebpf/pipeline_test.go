package ebpf

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/exec"
	"kex/internal/kernel"
)

func counterProg(t *testing.T, s *Stack) *isa.Program {
	t.Helper()
	lookup, _ := s.Helpers.ByName("bpf_map_lookup_elem")
	return &isa.Program{
		Name: "counter",
		Type: isa.Tracing,
		Insns: []isa.Instruction{
			isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
			isa.LoadMapRef(isa.R1, "hits"),
			isa.Call(int32(lookup.ID)),
			isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
			isa.Mov64Imm(isa.R1, 1),
			isa.AtomicAdd64(isa.R0, 0, isa.R1),
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0),
			isa.Exit(),
		},
	}
}

func TestFullPipeline(t *testing.T) {
	for _, useJIT := range []bool{false, true} {
		k := kernel.NewDefault()
		s := NewStack(k)
		s.UseJIT = useJIT
		if _, err := s.CreateMap(maps.Spec{Name: "hits", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 1}); err != nil {
			t.Fatal(err)
		}
		l, err := s.Load(counterProg(t, s))
		if err != nil {
			t.Fatalf("jit=%v: %v", useJIT, err)
		}
		if l.Verdict.InsnsProcessed == 0 {
			t.Fatal("verifier did no work")
		}
		for i := 1; i <= 3; i++ {
			rep, err := l.Run(RunOptions{CPU: 0})
			if err != nil {
				t.Fatal(err)
			}
			if rep.R0 != uint64(i) {
				t.Fatalf("invocation %d: count = %d", i, rep.R0)
			}
			if len(rep.ExitOopses) != 0 {
				t.Fatalf("clean program left oopses: %v", rep.ExitOopses)
			}
		}
		if !k.Healthy() {
			t.Fatalf("kernel unhealthy after clean runs: %v", k.LastOops())
		}
	}
}

func TestLoadRejectsUnsafeProgram(t *testing.T) {
	s := NewStack(kernel.NewDefault())
	bad := &isa.Program{Name: "bad", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R1, 0),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R1, 0), // NULL deref
		isa.Exit(),
	}}
	if _, err := s.Load(bad); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunReportsCrashFromBuggyHelper(t *testing.T) {
	k := kernel.NewDefault()
	s := NewStack(k)
	sysbpf, _ := s.Helpers.ByName("bpf_sys_bpf")
	prog := &isa.Program{Name: "exploit", Type: isa.Syscall, Insns: []isa.Instruction{
		isa.StoreImm(isa.SizeDW, isa.R10, -24, 0),
		isa.StoreImm(isa.SizeDW, isa.R10, -16, 0),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
		isa.Mov64Imm(isa.R1, helpers.SysBpfProgLoad),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -24),
		isa.Mov64Imm(isa.R3, 24),
		isa.Call(int32(sysbpf.ID)),
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}}
	l, err := s.Load(prog) // verification PASSES
	if err != nil {
		t.Fatalf("verified exploit rejected: %v", err)
	}
	_, err = l.Run(RunOptions{Bugs: helpers.BugConfig{SysBpfNullDeref: true}})
	if !errors.Is(err, helpers.ErrKernelCrash) {
		t.Fatalf("err = %v, want kernel crash", err)
	}
	if k.Healthy() {
		t.Fatal("kernel healthy after exploit")
	}
}

func TestEraConfigRestrictsLoad(t *testing.T) {
	s := NewStack(kernel.NewDefault())
	s.VerifierConfig.AllowLoops = false
	loop := &isa.Program{Name: "loop", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R6, 0),
		isa.Mov64Imm(isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R6, 1),
		isa.JmpImm(isa.OpJlt, isa.R6, 10, -2),
		isa.Exit(),
	}}
	if _, err := s.Load(loop); err == nil {
		t.Fatal("loop loaded on loop-less config")
	}
}

func TestTailCallViaProgArray(t *testing.T) {
	k := kernel.NewDefault()
	s := NewStack(k)
	tailID, _ := s.Helpers.ByName("bpf_tail_call")
	if _, err := s.CreateMap(maps.Spec{Name: "jmp_table", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 2}); err != nil {
		t.Fatal(err)
	}
	target := &isa.Program{Name: "target", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 99),
		isa.Exit(),
	}}
	caller := &isa.Program{Name: "caller", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.LoadMapRef(isa.R2, "jmp_table"),
		isa.Mov64Imm(isa.R3, 0),
		isa.Call(int32(tailID.ID)),
		isa.Mov64Imm(isa.R0, 1),
		isa.Exit(),
	}}
	lt, err := s.Load(target)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := s.Load(caller)
	if err != nil {
		t.Fatal(err)
	}
	lc.ProgArray = []*isa.Program{lt.Prog}
	rep, err := lc.Run(RunOptions{})
	if err != nil || rep.R0 != 99 {
		t.Fatalf("R0 = %d, %v", rep.R0, err)
	}
}

// TestTailCallBothEngines runs the same prog-array dispatch on the
// interpreter and the JIT through the shared execution core.
func TestTailCallBothEngines(t *testing.T) {
	for _, useJIT := range []bool{false, true} {
		k := kernel.NewDefault()
		s := NewStack(k)
		s.UseJIT = useJIT
		tailID, _ := s.Helpers.ByName("bpf_tail_call")
		if _, err := s.CreateMap(maps.Spec{Name: "jmp_table", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 2}); err != nil {
			t.Fatal(err)
		}
		target := &isa.Program{Name: "target", Type: isa.Tracing, Insns: []isa.Instruction{
			isa.Mov64Imm(isa.R0, 99),
			isa.Exit(),
		}}
		caller := &isa.Program{Name: "caller", Type: isa.Tracing, Insns: []isa.Instruction{
			isa.LoadMapRef(isa.R2, "jmp_table"),
			isa.Mov64Imm(isa.R3, 0),
			isa.Call(int32(tailID.ID)),
			isa.Mov64Imm(isa.R0, 1),
			isa.Exit(),
		}}
		lt, err := s.Load(target)
		if err != nil {
			t.Fatal(err)
		}
		lc, err := s.Load(caller)
		if err != nil {
			t.Fatal(err)
		}
		lc.ProgArray = []*isa.Program{lt.Prog}
		rep, err := lc.Run(RunOptions{})
		if err != nil || rep.R0 != 99 {
			t.Fatalf("jit=%v: R0 = %d, %v", useJIT, rep.R0, err)
		}
		if rep.HelperCalls.Get("bpf_tail_call") != 1 {
			t.Fatalf("jit=%v: helper calls = %v", useJIT, rep.HelperCalls)
		}
	}
}

// TestTailCallChainLimit tail-calls into itself; the engine must cut the
// chain at the kernel's limit of 33 programs and fall through.
func TestTailCallChainLimit(t *testing.T) {
	k := kernel.NewDefault()
	s := NewStack(k)
	tailID, _ := s.Helpers.ByName("bpf_tail_call")
	if _, err := s.CreateMap(maps.Spec{Name: "jmp_table", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 1}); err != nil {
		t.Fatal(err)
	}
	self := &isa.Program{Name: "self", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.LoadMapRef(isa.R2, "jmp_table"),
		isa.Mov64Imm(isa.R3, 0),
		isa.Call(int32(tailID.ID)),
		isa.Mov64Imm(isa.R0, 7), // reached only when the chain is cut
		isa.Exit(),
	}}
	l, err := s.Load(self)
	if err != nil {
		t.Fatal(err)
	}
	l.ProgArray = []*isa.Program{l.Prog}
	rep, err := l.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.R0 != 7 {
		t.Fatalf("R0 = %d, want fall-through after chain limit", rep.R0)
	}
	if rep.HelperCalls.Get("bpf_tail_call") < 33 {
		t.Fatalf("tail-call attempts = %d, want >= 33", rep.HelperCalls.Get("bpf_tail_call"))
	}
}

// TestLoadedClose checks that closing releases the default-context region
// and that a closed program can still run (the region is re-mapped).
func TestLoadedClose(t *testing.T) {
	k := kernel.NewDefault()
	s := NewStack(k)
	prog := &isa.Program{Name: "ret", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 5),
		isa.Exit(),
	}}
	base := len(k.Mem.Regions())
	for i := 0; i < 50; i++ {
		l, err := s.Load(prog)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		l.Close() // idempotent
	}
	if got := len(k.Mem.Regions()); got != base {
		t.Fatalf("regions after 50 load/close cycles = %d, want %d (leak)", got, base)
	}
	l, err := s.Load(prog)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	rep, err := l.Run(RunOptions{})
	if err != nil || rep.R0 != 5 {
		t.Fatalf("run after close: R0 = %d, %v", rep.R0, err)
	}
}

// TestLoadPhaseTimings checks both load pipelines report their phases in
// order through the shared core's stats.
func TestLoadPhaseTimings(t *testing.T) {
	s := NewStack(kernel.NewDefault())
	l, err := s.Load(&isa.Program{Name: "p", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"verify", "relocate", "jit-compile"}
	if len(l.LoadPhases) != len(want) {
		t.Fatalf("phases = %v", l.LoadPhases)
	}
	for i, name := range want {
		if l.LoadPhases[i].Name != name {
			t.Fatalf("phase %d = %q, want %q", i, l.LoadPhases[i].Name, name)
		}
	}
	snap := s.Stats.Snapshot()
	if snap.Loads != 1 || len(snap.LoadPhases) != 3 {
		t.Fatalf("stats loads = %d phases = %v", snap.Loads, snap.LoadPhases)
	}
}

// TestLoadBytesPerProgram pins what one Load of each kexperf-shaped program
// (kvcache and flows) allocates with the shard-safety analysis and the JIT
// on: the mean MemStats.TotalAlloc delta over 50 loads. The bound holds
// only while a load captures no state table (concheck reads the verifier's
// per-call facts instead), each verifier state copy carries only the stack
// slots the program wrote, and concheck keeps one state per basic block,
// each a short slice of slots.
func TestLoadBytesPerProgram(t *testing.T) {
	const loads = 50
	const bound = 80 << 10
	s := NewStack(kernel.NewDefault())
	s.Conc = exec.ConcStrict
	for _, spec := range []maps.Spec{
		{Name: "cache", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 4096},
		{Name: "stats", Type: maps.PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 4},
		{Name: "flows", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 1000},
		{Name: "pkts", Type: maps.PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 1},
	} {
		if _, err := s.CreateMap(spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, shape := range []struct {
		name  string
		insns []isa.Instruction
	}{
		{"kvcache", kvcacheShaped(s)},
		{"flows", flowsShaped(s)},
	} {
		progs := make([]*isa.Program, loads+1)
		for i := range progs {
			progs[i] = &isa.Program{Name: fmt.Sprintf("%s_%d", shape.name, i), Type: isa.Tracing, Insns: shape.insns}
		}
		load := func(p *isa.Program) {
			l, err := s.Load(p)
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
		}
		load(progs[loads]) // warm the stack's one-time state
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, p := range progs[:loads] {
			load(p)
		}
		runtime.ReadMemStats(&after)
		perLoad := (after.TotalAlloc - before.TotalAlloc) / loads
		t.Logf("%s: %d bytes per load", shape.name, perLoad)
		if perLoad > bound {
			t.Errorf("%s: a load allocates %d bytes, bound %d", shape.name, perLoad, bound)
		}
	}
}

// TestLoadDropsConcStateTable: shard-safety enforcement reads the
// verifier's per-call facts, so a load captures no state table for it. A
// stack whose own VerifierConfig asks for capture keeps the table.
func TestLoadDropsConcStateTable(t *testing.T) {
	for _, keep := range []bool{false, true} {
		s := NewStack(kernel.NewDefault())
		s.Conc = exec.ConcStrict
		s.VerifierConfig.CaptureState = keep
		for _, spec := range []maps.Spec{
			{Name: "cache", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 4096},
			{Name: "stats", Type: maps.PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 4},
		} {
			if _, err := s.CreateMap(spec); err != nil {
				t.Fatal(err)
			}
		}
		l, err := s.Load(&isa.Program{Name: "kv", Type: isa.Tracing, Insns: kvcacheShaped(s)})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if l.Conc == nil || len(l.Conc.Maps) == 0 {
			t.Fatalf("CaptureState=%v: no shard-safety report", keep)
		}
		switch got := l.Verdict.States; {
		case keep && (got == nil || got.Snapshots() == 0):
			t.Errorf("CaptureState=true: the loaded program lost its state table")
		case !keep && got != nil:
			t.Errorf("CaptureState=false: the load captured a %d-snapshot table", got.Snapshots())
		}
	}
}
