package ebpf

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"kex/internal/analysis/concheck"
	"kex/internal/analysis/statecheck"
	"kex/internal/ebpf/asm"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/ebpf/verifier"
	"kex/internal/kernel"
)

// The verifier golden: for each program of a corpus drawn from the eBPF
// programs the repo verifies, one SHA-256 over what verification and the shard-safety analysis conclude
// about it — the Result counters and error, the captured state table
// (json.Marshal(res.States)) and the AnalyzeBPF report JSON, the report
// taken from a run configured as Stack.Load runs it. A change to
// how the verifier represents or copies its states must leave every
// digest as it is: pruning, snapshot dedup, the exported table and the
// CONC verdicts are the verifier's behaviour, not its plumbing.

// goldenProgram is one program of the golden corpus.
type goldenProgram struct {
	name  string
	typ   isa.ProgType
	insns []isa.Instruction
	maps  []maps.Spec
	bugs  verifier.BugConfig
}

// goldenDigest verifies p with state capture on, then again as Stack.Load
// does (capture off), requires both runs to agree on counters and error,
// runs AnalyzeBPF over an accepted program with the second run's facts,
// and hashes the three outputs. It also returns the counters, for the
// failure message.
func goldenDigest(t testing.TB, p goldenProgram) (digest, counters string) {
	s := NewStack(kernel.NewDefault())
	for _, spec := range p.maps {
		if _, err := s.CreateMap(spec); err != nil {
			t.Fatalf("%s: create map %s: %v", p.name, spec.Name, err)
		}
	}
	prog := &isa.Program{Name: p.name, Type: p.typ, Insns: p.insns}
	count := func(res *verifier.Result, err error) string {
		return fmt.Sprintf("insns=%d explored=%d pruned=%d peak=%d err=%v",
			res.InsnsProcessed, res.StatesExplored, res.StatesPruned, res.PeakStates, err)
	}
	cfg := s.VerifierConfig
	cfg.Bugs = p.bugs
	load, lerr := verifier.Verify(prog, s.Helpers, s.mapMeta, cfg)
	cfg.CaptureState = true
	res, verr := verifier.Verify(prog, s.Helpers, s.mapMeta, cfg)
	counters = count(res, verr)
	if got := count(load, lerr); got != counters {
		t.Errorf("%s: capture off: %s, capture on: %s", p.name, got, counters)
	}
	h := sha256.New()
	fmt.Fprintln(h, counters)
	table, err := json.Marshal(res.States)
	if err != nil {
		t.Fatalf("%s: marshal state table: %v", p.name, err)
	}
	h.Write(table)
	if verr == nil {
		rep, err := concheck.AnalyzeBPF(prog, s.Helpers, s.mapMeta, s.mapKinds, load.Facts)
		if err != nil {
			t.Fatalf("%s: AnalyzeBPF: %v", p.name, err)
		}
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("%s: marshal conc report: %v", p.name, err)
		}
		fmt.Fprintln(h)
		h.Write(out)
	}
	return hex.EncodeToString(h.Sum(nil)), counters
}

func TestVerifierGoldenDigests(t *testing.T) {
	corpus := goldenCorpus(t)
	names := make([]string, 0, len(corpus))
	seen := make(map[string]bool)
	for _, p := range corpus {
		if seen[p.name] {
			t.Fatalf("duplicate golden program %q", p.name)
		}
		seen[p.name] = true
		names = append(names, p.name)
	}
	if len(corpus) != len(verifierGoldens) {
		t.Errorf("corpus has %d programs, %d goldens", len(corpus), len(verifierGoldens))
	}
	sort.Strings(names)
	byName := make(map[string]goldenProgram, len(corpus))
	for _, p := range corpus {
		byName[p.name] = p
	}
	for _, name := range names {
		got, counters := goldenDigest(t, byName[name])
		if want := verifierGoldens[name]; got != want {
			t.Errorf("%s: sha256 %s, golden %s (%s)", name, got, want, counters)
		}
	}
}

// goldenCorpus gathers the programs: the examples' eBPF programs, the
// bugcorpus witness repros (under their recorded bug flags and under the
// fixed verifier), statecheck's handwritten corpus and the generated
// programs of its campaigns (seeds 1-60), A1's branchy and loop programs,
// kexperf-shaped kvcache and flows programs, and a handful of stack-layout
// edge cases.
func goldenCorpus(t testing.TB) []goldenProgram {
	s := NewStack(kernel.NewDefault())
	var out []goldenProgram
	add := func(p goldenProgram) { out = append(out, p) }

	for _, ex := range []struct {
		name string
		typ  isa.ProgType
		maps []maps.Spec
		src  string
	}{
		{"example/quickstart", isa.Tracing,
			[]maps.Spec{{Name: "hits", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 1}}, `
		*(u32 *)(r10 -4) = 0
		r2 = r10
		r2 += -4
		r1 = map[hits]
		call bpf_map_lookup_elem
		if r0 != 0 goto hit
		r0 = 0
		exit
	hit:
		r1 = 1
		lock *(u64 *)(r0 +0) += r1
		r0 = *(u64 *)(r0 +0)
		exit
	`},
		{"example/firewall", isa.SocketFilter, nil, `
		r2 = *(u64 *)(r1 +0)
		r3 = *(u64 *)(r1 +8)
		r4 = r2
		r4 += 3
		if r4 > r3 goto drop
		r5 = *(u8 *)(r2 +0)
		if r5 != 6 goto drop
		r5 = *(u16 *)(r2 +1)
		if r5 != 443 goto drop
		r0 = 1
		exit
	drop:
		r0 = 0
		exit
	`},
		{"example/firewall_exploit", isa.Syscall, nil, `
		*(u64 *)(r10 -24) = 0
		*(u64 *)(r10 -16) = 0
		*(u64 *)(r10 -8) = 0
		r1 = 1
		r2 = r10
		r2 += -24
		r3 = 24
		call bpf_sys_bpf
		r0 = 0
		exit
	`},
	} {
		insns, err := asm.Assemble(ex.src, s.Helpers)
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		add(goldenProgram{name: ex.name, typ: ex.typ, insns: insns, maps: ex.maps})
	}

	files, err := filepath.Glob(filepath.Join("..", "bugcorpus", "testdata", "witnesses", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no bugcorpus witnesses found (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var w struct {
			ID    string             `json:"id"`
			Bugs  verifier.BugConfig `json:"bugs"`
			Insns []isa.Instruction  `json:"insns"`
			Maps  []maps.Spec        `json:"maps"`
		}
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		add(goldenProgram{name: "witness/" + w.ID, typ: isa.Tracing, insns: w.Insns, maps: w.Maps, bugs: w.Bugs})
		add(goldenProgram{name: "witness/" + w.ID + "/fixed", typ: isa.Tracing, insns: w.Insns, maps: w.Maps})
	}

	for _, p := range statecheck.Corpus() {
		add(goldenProgram{name: "statecheck/" + p.Name, typ: p.Type, insns: p.Insns, maps: p.Maps})
	}

	for seed := int64(1); seed <= 60; seed++ {
		p := statecheck.Generate(seed, 0)
		add(goldenProgram{name: fmt.Sprintf("statecheck/gen%d", seed), typ: p.Type, insns: p.Insns, maps: p.Maps})
	}

	for _, n := range []int{8, 12, 16} {
		add(goldenProgram{name: fmt.Sprintf("a1/branchy%d", n), typ: isa.Tracing, insns: goldenBranchy(n)})
	}
	for _, n := range []int32{10, 100, 1000} {
		add(goldenProgram{name: fmt.Sprintf("a1/loop%d", n), typ: isa.Tracing, insns: goldenLoop(n)})
	}

	kexperfMaps := []maps.Spec{
		{Name: "cache", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 4096},
		{Name: "stats", Type: maps.PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 4},
		{Name: "flows", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 1000},
		{Name: "pkts", Type: maps.PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 1},
	}
	add(goldenProgram{name: "kexperf/kvcache", typ: isa.Tracing, insns: kvcacheShaped(s), maps: kexperfMaps})
	add(goldenProgram{name: "kexperf/flows", typ: isa.Tracing, insns: flowsShaped(s), maps: kexperfMaps})

	for _, p := range stackEdgePrograms(t, s) {
		add(p)
	}
	for seed := int64(1); seed <= 40; seed++ {
		add(goldenProgram{name: fmt.Sprintf("stackgen/%d", seed), typ: isa.Tracing,
			insns: stackShuffle(s, seed), maps: stackShuffleMaps})
	}
	return out
}

// stackShuffleMaps is the map stackShuffle's lookups name.
var stackShuffleMaps = []maps.Spec{{Name: "m", Type: maps.Hash, KeySize: 8, ValueSize: 8, MaxEntries: 4}}

// stackShuffle generates a program that mostly verifies and mostly works
// the stack: stores of every width anywhere in the frame, spills of a
// scalar and of the ctx pointer, reloads of written slots, helper calls
// that read or fill stack buffers, and forward branches on ctx-derived
// scalars, so that paths reach their joins with stacks of different
// depths and contents. The sequence depends only on seed.
func stackShuffle(s *Stack, seed int64) []isa.Instruction {
	rng := rand.New(rand.NewSource(seed))
	id := func(name string) int32 {
		spec, _ := s.Helpers.ByName(name)
		return int32(spec.ID)
	}
	type step struct {
		insns  []isa.Instruction
		target int // branch target step, -1 for none
	}
	// r6 and r7 are ctx scalars, r9 the ctx pointer; r5 takes reloads.
	steps := []step{{insns: []isa.Instruction{
		isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0),
		isa.LoadMem(isa.SizeW, isa.R7, isa.R1, 4),
		isa.Mov64Reg(isa.R9, isa.R1),
	}, target: -1}}
	var written []int16
	n := 12 + rng.Intn(20)
	for i := 0; i < n; i++ {
		st := step{target: -1}
		slot := int16(-8 * (1 + rng.Intn(64)))
		switch k := rng.Intn(20); {
		case k < 5:
			size := []uint8{isa.SizeB, isa.SizeH, isa.SizeW, isa.SizeDW}[rng.Intn(4)]
			w := int16(isa.SizeBytes(size))
			off := slot + w*int16(rng.Intn(int(8/w)))
			st.insns = []isa.Instruction{isa.StoreImm(size, isa.R10, off, int32(rng.Intn(3)))}
			if size == isa.SizeDW {
				written = append(written, off)
			}
		case k < 8:
			src := []isa.Register{isa.R6, isa.R7, isa.R9}[rng.Intn(3)]
			st.insns = []isa.Instruction{isa.StoreMem(isa.SizeDW, isa.R10, slot, src)}
			written = append(written, slot)
		case k < 10 && len(written) > 0:
			st.insns = []isa.Instruction{isa.LoadMem(isa.SizeDW, isa.R5, isa.R10, written[rng.Intn(len(written))])}
		case k < 13:
			st.target = i + 2 + rng.Intn(4) // this is step i+1; past the end is the epilogue
			reg := []isa.Register{isa.R6, isa.R7}[rng.Intn(2)]
			op := []uint8{isa.OpJgt, isa.OpJeq, isa.OpJset, isa.OpJlt}[rng.Intn(4)]
			st.insns = []isa.Instruction{isa.JmpImm(op, reg, int32(rng.Intn(16)), 0)}
		case k < 15:
			st.insns = []isa.Instruction{isa.ALU64Imm([]uint8{isa.OpAdd, isa.OpAnd}[rng.Intn(2)],
				[]isa.Register{isa.R6, isa.R7}[rng.Intn(2)], int32(1+rng.Intn(15)))}
		case k < 16:
			st.insns = []isa.Instruction{
				isa.Mov64Reg(isa.R1, isa.R10),
				isa.ALU64Imm(isa.OpAdd, isa.R1, int32(slot)),
				isa.Mov64Imm(isa.R2, 8),
				isa.Call(id("bpf_get_current_comm")),
			}
			written = append(written, slot)
		case k < 17 && len(written) > 0:
			st.insns = []isa.Instruction{
				isa.LoadMapRef(isa.R1, "m"),
				isa.Mov64Reg(isa.R2, isa.R10),
				isa.ALU64Imm(isa.OpAdd, isa.R2, int32(written[rng.Intn(len(written))])),
				isa.Call(id("bpf_map_lookup_elem")),
			}
		case k < 18 && rng.Intn(8) == 0:
			// Now and then a read the verifier may have to refuse.
			st.insns = []isa.Instruction{isa.LoadMem(isa.SizeW, isa.R5, isa.R10, slot+4)}
		default:
			st.insns = []isa.Instruction{isa.Mov64Imm(isa.R6, int32(rng.Intn(32)))}
		}
		steps = append(steps, st)
	}
	steps = append(steps, step{insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 0), isa.Exit()}, target: -1})
	start := make([]int, len(steps))
	pc := 0
	for i, st := range steps {
		start[i] = pc
		pc += len(st.insns)
	}
	var out []isa.Instruction
	for i, st := range steps {
		if st.target >= 0 {
			t := st.target
			if t >= len(steps) {
				t = len(steps) - 1
			}
			st.insns[0].Off = int16(start[t] - (start[i] + 1))
		}
		out = append(out, st.insns...)
	}
	return out
}

// goldenBranchy is A1's chain of n data-dependent diamonds.
func goldenBranchy(n int) []isa.Instruction {
	insns := []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R2, isa.R1, 0),
		isa.Mov64Imm(isa.R3, 0),
	}
	for i := 0; i < n; i++ {
		insns = append(insns,
			isa.JmpImm(isa.OpJset, isa.R2, 1<<uint(i%32), 1),
			isa.ALU64Imm(isa.OpAdd, isa.R3, int32(1<<uint(i%16))),
		)
	}
	return append(insns, isa.Mov64Reg(isa.R0, isa.R3), isa.Exit())
}

// goldenLoop is A1's counted loop of n iterations.
func goldenLoop(n int32) []isa.Instruction {
	return []isa.Instruction{
		isa.Mov64Imm(isa.R6, 0),
		isa.Mov64Imm(isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R6, 1),
		isa.ALU64Imm(isa.OpAdd, isa.R0, 3),
		isa.JmpImm(isa.OpJlt, isa.R6, n, -3),
		isa.Exit(),
	}
}

// kvcacheShaped is the eBPF form of examples/kvcache's lookaside cache as
// the kexperf benchmark deploys it: look the ctx key up in "cache", count
// a hit or a miss in the per-CPU "stats", return the value or -1.
func kvcacheShaped(s *Stack) []isa.Instruction {
	lookup, _ := s.Helpers.ByName("bpf_map_lookup_elem")
	call := isa.Call(int32(lookup.ID))
	return []isa.Instruction{
		isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0),
		isa.StoreMem(isa.SizeW, isa.R10, -4, isa.R6),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R1, "cache"),
		call,
		isa.Mov64Imm(isa.R7, 0),
		isa.JmpImm(isa.OpJeq, isa.R0, 0, 1),
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R0, 0),
		isa.Mov64Imm(isa.R8, 1),
		isa.JmpImm(isa.OpJne, isa.R7, 0, 1),
		isa.Mov64Imm(isa.R8, 2),
		isa.StoreMem(isa.SizeW, isa.R10, -8, isa.R8),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -8),
		isa.LoadMapRef(isa.R1, "stats"),
		call,
		isa.JmpImm(isa.OpJeq, isa.R0, 0, 3),
		isa.LoadMem(isa.SizeDW, isa.R1, isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R1, 1),
		isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R1),
		isa.JmpImm(isa.OpJeq, isa.R7, 0, 3),
		isa.Mov64Reg(isa.R0, isa.R7),
		isa.ALU64Imm(isa.OpAnd, isa.R0, 0x7fffffff),
		isa.Exit(),
		isa.Mov64Imm(isa.R0, -1),
		isa.Exit(),
	}
}

// flowsShaped adds the ctx length to the flow's byte counter in "flows"
// (an atomic add through the looked-up value) and bumps the per-CPU
// packet count in "pkts", as the kexperf flows workload does.
func flowsShaped(s *Stack) []isa.Instruction {
	lookup, _ := s.Helpers.ByName("bpf_map_lookup_elem")
	call := isa.Call(int32(lookup.ID))
	return []isa.Instruction{
		isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0),
		isa.LoadMem(isa.SizeW, isa.R7, isa.R1, 4),
		isa.StoreMem(isa.SizeW, isa.R10, -4, isa.R6),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R1, "flows"),
		call,
		isa.JmpImm(isa.OpJeq, isa.R0, 0, 12),
		isa.AtomicAdd64(isa.R0, 0, isa.R7),
		isa.StoreImm(isa.SizeW, isa.R10, -8, 0),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -8),
		isa.LoadMapRef(isa.R1, "pkts"),
		call,
		isa.JmpImm(isa.OpJeq, isa.R0, 0, 5),
		isa.LoadMem(isa.SizeDW, isa.R8, isa.R0, 0),
		isa.ALU64Imm(isa.OpAdd, isa.R8, 1),
		isa.StoreMem(isa.SizeDW, isa.R0, 0, isa.R8),
		isa.Mov64Imm(isa.R0, 1),
		isa.Exit(),
		isa.Mov64Imm(isa.R0, -1),
		isa.Exit(),
	}
}

// stackEdgePrograms exercise the stack's layout: writes at the top and the
// bottom of the frame, partial writes, holes below the deepest write,
// reads past it, paths that join with different stack depths, spilled
// pointers the verifier must update in place (a released socket, a packet
// pointer whose range grows), a callee frame with its own stack, and a
// callback that reads a stack it never wrote.
func stackEdgePrograms(t testing.TB, s *Stack) []goldenProgram {
	srcs := []struct {
		name string
		typ  isa.ProgType
		src  string
	}{
		{"stack/extremes", isa.Tracing, `
		r2 = *(u32 *)(r1 +0)
		*(u64 *)(r10 -512) = r2
		*(u8 *)(r10 -1) = 7
		*(u16 *)(r10 -300) = 1
		*(u32 *)(r10 -260) = 0
		r3 = *(u8 *)(r10 -1)
		r4 = *(u64 *)(r10 -512)
		r5 = *(u16 *)(r10 -300)
		r0 = r3
		r0 += r4
		r0 += r5
		exit
	`},
		{"stack/hole_read", isa.Tracing, `
		*(u64 *)(r10 -64) = 0
		r0 = *(u64 *)(r10 -32)
		exit
	`},
		{"stack/past_deepest_read", isa.Tracing, `
		*(u64 *)(r10 -8) = 1
		r0 = *(u64 *)(r10 -16)
		exit
	`},
		{"stack/unaligned_past_deepest", isa.Tracing, `
		*(u64 *)(r10 -8) = 1
		r0 = *(u32 *)(r10 -12)
		exit
	`},
		{"stack/out_of_frame", isa.Tracing, `
		*(u64 *)(r10 -520) = 1
		r0 = 0
		exit
	`},
		{"stack/join_depths", isa.Tracing, `
		r2 = *(u32 *)(r1 +0)
		r6 = 0
	top:
		*(u64 *)(r10 -8) = r6
		if r2 > 10 goto deep
		*(u64 *)(r10 -16) = r2
		goto join
	deep:
		*(u64 *)(r10 -400) = r1
		*(u64 *)(r10 -16) = 0
	join:
		r6 += 1
		if r6 < 4 goto top
		r0 = *(u64 *)(r10 -16)
		exit
	`},
		{"stack/prune_shallow_covers_deep", isa.Tracing, `
		r3 = *(u32 *)(r1 +0)
		*(u64 *)(r10 -8) = 1
		if r3 != 0 goto w
		goto a
	w:
		*(u64 *)(r10 -400) = r1
		*(u64 *)(r10 -408) = 0
		r3 = 0
	a:
		r0 = *(u64 *)(r10 -8)
		exit
	`},
		{"stack/prune_deep_vs_shallow", isa.Tracing, `
		r3 = *(u32 *)(r1 +0)
		*(u64 *)(r10 -8) = 1
		if r3 != 0 goto a
		*(u64 *)(r10 -400) = 0
	a:
		r3 = 0
		if r3 == 0 goto b
		r0 = 1
		exit
	b:
		r0 = *(u64 *)(r10 -8)
		exit
	`},
		{"stack/prune_misc_covers_zero", isa.Tracing, `
		r3 = *(u32 *)(r1 +0)
		if r3 != 0 goto w
		*(u32 *)(r10 -296) = r3
		goto a
	w:
		*(u64 *)(r10 -296) = 0
		r3 = 0
	a:
		r0 = *(u64 *)(r10 -296)
		exit
	`},
		{"stack/zero_vs_misc_join", isa.Tracing, `
		r2 = *(u32 *)(r1 +0)
		if r2 == 0 goto z
		*(u32 *)(r10 -100) = r2
		*(u32 *)(r10 -104) = r2
		goto j
	z:
		*(u64 *)(r10 -104) = 0
	j:
		r0 = *(u64 *)(r10 -104)
		exit
	`},
		{"stack/helper_buffers", isa.Tracing, `
		r1 = r10
		r1 += -64
		r2 = 16
		call bpf_get_current_comm
		r1 = r10
		r1 += -200
		r2 = 24
		r3 = 0
		call bpf_probe_read
		r0 = *(u64 *)(r10 -56)
		r1 = *(u64 *)(r10 -184)
		r0 += r1
		exit
	`},
		{"stack/helper_unwritten_buffer", isa.Tracing, `
		*(u64 *)(r10 -8) = 0
		r1 = map[m]
		r2 = r10
		r2 += -16
		call bpf_map_lookup_elem
		r0 = 0
		exit
	`},
		{"stack/spilled_pointer_partial", isa.Tracing, `
		*(u64 *)(r10 -24) = r1
		r0 = *(u32 *)(r10 -24)
		exit
	`},
		{"stack/spilled_pkt_range", isa.SocketFilter, `
		r2 = *(u64 *)(r1 +0)
		r3 = *(u64 *)(r1 +8)
		*(u64 *)(r10 -8) = r2
		*(u64 *)(r10 -480) = r2
		r4 = r2
		r4 += 8
		if r4 > r3 goto out
		r5 = *(u64 *)(r10 -480)
		r0 = *(u8 *)(r5 +7)
		exit
	out:
		r0 = 0
		exit
	`},
	}
	m := []maps.Spec{{Name: "m", Type: maps.Hash, KeySize: 16, ValueSize: 8, MaxEntries: 4}}
	var out []goldenProgram
	for _, p := range srcs {
		insns, err := asm.Assemble(p.src, s.Helpers)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		out = append(out, goldenProgram{name: p.name, typ: p.typ, insns: insns, maps: m})
	}

	id := func(name string) int32 {
		spec, ok := s.Helpers.ByName(name)
		if !ok {
			t.Fatalf("missing helper %s", name)
		}
		return int32(spec.ID)
	}
	sockLookup := func(tail ...isa.Instruction) []isa.Instruction {
		return append([]isa.Instruction{
			isa.LoadImm64(isa.R1, int64(uint64(7)|uint64(8)<<32)),
			isa.StoreMem(isa.SizeDW, isa.R10, -16, isa.R1),
			isa.LoadImm64(isa.R1, int64(uint64(80)|uint64(9000)<<16)),
			isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R1),
			isa.Mov64Reg(isa.R1, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R1, -16),
			isa.Mov64Imm(isa.R2, 12),
			isa.Call(id("bpf_sk_lookup_tcp")),
			isa.JmpImm(isa.OpJne, isa.R0, 0, 2),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		}, tail...)
	}
	// A socket pointer spilled deep in the frame, then released: the
	// release must scrub the spilled copy, so reloading and using it is
	// rejected (and accepted under SkipReleaseScrub).
	uar := sockLookup(
		isa.StoreMem(isa.SizeDW, isa.R10, -448, isa.R0),
		isa.Mov64Reg(isa.R1, isa.R0),
		isa.Call(id("bpf_sk_release")),
		isa.LoadMem(isa.SizeDW, isa.R6, isa.R10, -448),
		isa.LoadMem(isa.SizeW, isa.R0, isa.R6, 0),
		isa.Exit(),
	)
	out = append(out,
		goldenProgram{name: "stack/spilled_sock_release", typ: isa.Tracing, insns: uar},
		goldenProgram{name: "stack/spilled_sock_release/noscrub", typ: isa.Tracing, insns: uar,
			bugs: verifier.BugConfig{SkipReleaseScrub: true}},
		goldenProgram{name: "stack/spilled_sock_kept", typ: isa.Tracing, insns: sockLookup(
			isa.StoreMem(isa.SizeDW, isa.R10, -96, isa.R0),
			isa.LoadMem(isa.SizeDW, isa.R1, isa.R10, -96),
			isa.Call(id("bpf_sk_release")),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		)},
		goldenProgram{name: "stack/callee_frame", typ: isa.Tracing, insns: []isa.Instruction{
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 5),
			isa.StoreImm(isa.SizeDW, isa.R10, -320, 9),
			isa.Mov64Imm(isa.R1, 3),
			isa.CallBPF(5),
			isa.LoadMem(isa.SizeDW, isa.R1, isa.R10, -320),
			isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R1),
			isa.LoadMem(isa.SizeDW, isa.R1, isa.R10, -8),
			isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R1),
			isa.Exit(),
			// f(x): spills x into its own frame, deeper than the caller's
			// deepest write, and reads it back.
			isa.StoreMem(isa.SizeDW, isa.R10, -504, isa.R1),
			isa.StoreImm(isa.SizeW, isa.R10, -4, 1),
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -504),
			isa.Exit(),
		}},
		goldenProgram{name: "stack/callee_reads_caller_slot", typ: isa.Tracing, insns: []isa.Instruction{
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 5),
			isa.Mov64Imm(isa.R1, 3),
			isa.CallBPF(2),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
			isa.Exit(),
		}},
		goldenProgram{name: "stack/callback_uninit", typ: isa.Tracing, insns: []isa.Instruction{
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 1),
			isa.Mov64Imm(isa.R1, 10),
			isa.LoadFuncRef(isa.R2, 8),
			isa.Mov64Imm(isa.R3, 0),
			isa.Mov64Imm(isa.R4, 0),
			isa.Call(id("bpf_loop")),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
			isa.Exit(),
		}},
	)
	return out
}

// verifierGoldens are the committed digests, one per corpus program.
var verifierGoldens = map[string]string{
	"a1/branchy12":                       "0ebf20db6542e8e3db1e5193278387f6505cf90126399e8c5c73ce005d9dee45",
	"a1/branchy16":                       "70e78b66ea34d981752a05b109206fbc59e2cfaf2aa00a57e5d7fa9ec9f8382c",
	"a1/branchy8":                        "58d2a1275e169bd1eae505cef5cf9a54406ddf537053fe88b5b0d37bd5844d36",
	"a1/loop10":                          "ec909281cef8a6b5f090e515a9bd5f90177479ac7fabc42f5f4fd220c6854b3e",
	"a1/loop100":                         "37e52cf7c0a510d093eedcffcbf96c08bf3bdd072043ad61b685a7979d42498d",
	"a1/loop1000":                        "ae347fa8d468726d0689e63c390fe1e331a678d1d0c62ce52eb432e42603639a",
	"example/firewall":                   "add994de88d550aa598052bff938a17c972f56dc20c5cbea131eddc39a70d884",
	"example/firewall_exploit":           "b209805a163c13907b7e1b3617bd620c43e821144e5729135ec3045e45a939d1",
	"example/quickstart":                 "d858fa6cfe4c5844c0ebe59f2cef5747655611c27590eedac50edf9ca20f485a",
	"kexperf/flows":                      "7e29000a7bb412850ec69b3a88e3d602261cf8bc0926d43aa1a35e747ac73275",
	"kexperf/kvcache":                    "f596cd7206382ca8a5fc4a4b44d8ba334d42369057448154b8ceb46e19b161c1",
	"stack/callback_uninit":              "9b289cd68c8271fc21803ecca107f1cb7f439a01895cce23c83579519f3d73eb",
	"stack/callee_frame":                 "271212bd780757dc84cf1fe0a2a82a12d272759c608132a9c0b9f85a80ccf408",
	"stack/callee_reads_caller_slot":     "11bce98da621e85f5b494f8fa53107e89d5b006424a6d5759b07a90e50ca5415",
	"stack/extremes":                     "a1ba034e4ce3e61fc0a4c1168eb33123293ddf970cc0044aa674f84639ac611e",
	"stack/helper_buffers":               "326e90af94b0e5d185a0d00947abed8ebe95ffffd81eda9f05cd91aec315fbef",
	"stack/helper_unwritten_buffer":      "f84a4cbe0cf9eb29c1155b650a0ec4a857c2f10c8ab9275af50580510538e725",
	"stack/hole_read":                    "a75440a37b71977c580a107f5b992cd2cca7aca9834883ff7bda18126671fa51",
	"stack/join_depths":                  "46826e173dbc32f9fd3a3375a669b6521f39221e827bd5f9cb82af7acb01f0a1",
	"stack/out_of_frame":                 "2954c189102aa0651f14a90825578d85a24002bc824e0f8e195615fdc7443239",
	"stack/past_deepest_read":            "8dfdce55ad16532a8abcddbe8507acbb43d4f7c004e45603b2416dc9c27d2be3",
	"stack/prune_deep_vs_shallow":        "77a47238c0d0506b9f35eabc905b0e6a91b3d72b3c2dc503f2ddee8c9a857643",
	"stack/prune_misc_covers_zero":       "43aef121ce578fa9f87ef0a4eb691c7a50f790ddc0e14d9b0d29d370b51f4d9a",
	"stack/prune_shallow_covers_deep":    "bc069080ef2b5e21f11dfc643c8f9dadf1ebd924f997c290fc5accbbe79da5fb",
	"stack/spilled_pkt_range":            "51f7e7c3f1b19829af65ddd9128f85a9f29dcd53b851bee804fbe4eca3237117",
	"stack/spilled_pointer_partial":      "63a3eef2087ebb861fcde0cfe6b27f3bdf82e7d6d32c640e373f3b9b393d52ea",
	"stack/spilled_sock_kept":            "b89e83ca9cd451929d033ba5c7dab6bfe4f45ec42bb31e19de17e781ee3519fc",
	"stack/spilled_sock_release":         "6cd91b9651720488c589138cbba4dad4211731acc97a94cc7d12390dd4176e1e",
	"stack/spilled_sock_release/noscrub": "4903c94b4a9900e81601540599812f7a79713d0c7ed7ae14c1016a6a257f537c",
	"stack/unaligned_past_deepest":       "96140bd594d8fc750408c4b16bf08bc0ef76f43043388c291d344675452f43df",
	"stack/zero_vs_misc_join":            "941cc3350ef7498cb27240e24d8061a9bed32dae51454d47c65961618c880154",
	"stackgen/1":                         "5177838d4f4e1cb7a45e183236a41c0a1d3c5a373f262bcf499ea1ed7cae43d3",
	"stackgen/10":                        "75b84637592cf7e31eec42dc5ac5b9d06dd02ae1d38fe27fdf51c8607ca2ba14",
	"stackgen/11":                        "45300c6f534caba81e0506e882faa8a9d0b74362b89f1256d8bc6883b2df9a5f",
	"stackgen/12":                        "0db693feaea84fe92667a7961946e007df402643241d0ca5671670f1ec5eb40c",
	"stackgen/13":                        "215aa189dcc1fc11a6908d6a8362cb9706b2678cd60adbd3d2b8ca7caabbef5c",
	"stackgen/14":                        "c6711628fc2ce6540dd52e9c4c54c59f8461d424ecf4df739b88959a8a89bcaa",
	"stackgen/15":                        "7825cda529aa4bdb82b0d79e2ecce55e4bb9bd85f04c238ce09279a6b92ab674",
	"stackgen/16":                        "c06f93adad6e6a25faac1a6378fa71f26bfc94d6ef7b615ba659301779862825",
	"stackgen/17":                        "f7bf97b563a8c181d77ef399b72936f292ab4ef3a9bde126fb332af1d5682201",
	"stackgen/18":                        "e90434553566d8c8e953d18022c3c734aabc815243b6a31b01784bcfd6e2b6c5",
	"stackgen/19":                        "0d139557902d73e83b9fbab0592573eaf8cd60d4d1629f1c1c80b809427ad8f6",
	"stackgen/2":                         "969ed364938da849beef6e2aa9bd7d905916dd2dc7a6575e11b2b272a9a21e08",
	"stackgen/20":                        "041f6876a9a2130ec87fef185565b8e725124a05ef02b9379b3e8006fece1f0a",
	"stackgen/21":                        "ae6e481afede3c3767f1e4944d12632fd8d1b5804212890431f56b98707c4042",
	"stackgen/22":                        "61d7d8ed97f20a75ba82b9d21c5b7c6d95338de74271e6ab2ca8f359ccf317ea",
	"stackgen/23":                        "bfb74fe641b558d58d4c90520b8dd223eb34c162464da7aeef298df554789a19",
	"stackgen/24":                        "850edd6829e1a253affd738e964f538356f04b1f1d5dced5a4d82e9abd5ff544",
	"stackgen/25":                        "c5c10ba5a1618411d6915fc63e4cbaf1655322382810de290f070649a1c14279",
	"stackgen/26":                        "eebe8347d2ba8f3e3c441bc2f4a70b010de8582766d38288587605bb9cc9972c",
	"stackgen/27":                        "25ecb6e2c153bb38e3dad3e238f0c4ddfea1aa1894ef6d4810d942d38bb19249",
	"stackgen/28":                        "a89243283a2f61adfb9563a8d375556705d2e023b2c42a081ebc561e10f44f9e",
	"stackgen/29":                        "2c5790dda973375b199cb959dbae4f272b259d4c0fb04ce806a67e0b5c4a8b2d",
	"stackgen/3":                         "89daf269c23df0edbb65e9c485a0c763406a006e0c13c20aafb8c5f9d06b07e5",
	"stackgen/30":                        "6dd2a5110482bda7316c365f2060311b05619254103512a4603e151e3efa4ca9",
	"stackgen/31":                        "d78637d3f8bc462c56fb2fb8ceda80e6de7f6f6a13816892f905b9433bfffe0c",
	"stackgen/32":                        "528044fcaf33ad224d238f176dbc84c383f8e718638fe281354685871208e776",
	"stackgen/33":                        "d3d23d81f91def2c696eb867c99c2e0e5e55fc498e39b848ee9abc550c0984a9",
	"stackgen/34":                        "20702e462997987e69d2bf802a3e81f57e78df6237226aafcaa16fc446998645",
	"stackgen/35":                        "284e344325146da060e231a87c42a74bf89613311f24bd7da798a09a21ba7593",
	"stackgen/36":                        "2054e5676aa585f1cd43ed66e7fb9fa54381a12ad8e55c6b5e7f5b0dd39fdab7",
	"stackgen/37":                        "e467fce7a2e1323dd80fb6cbc68ac2479ea694e00944ca9a2629d910ed3cc030",
	"stackgen/38":                        "c3f46b563884c5699da4fba376bb64a2ddb8c76fab3bd64a9d5e93bc82341448",
	"stackgen/39":                        "947ad8d13acf41481e5ce01bc4dec4613b081a7e1885bbf18c512aa99fa1f726",
	"stackgen/4":                         "205a9ac85c122f797788944b0acc5619e7b505db12aee2fde82b9671fcc92d15",
	"stackgen/40":                        "eecb731d9b9a36426bd28a6b421fe79321a2b5359e6e6383f2a2a5ef3ac82b9c",
	"stackgen/5":                         "dd3bc2e7e22b74383129b0878d1c944a2814ceee0af8d82a96ab8bcc4cab799e",
	"stackgen/6":                         "e84d5bb59d657d704dbe69efd9619dfe06e22092b460af1e0e96a156087c0fdb",
	"stackgen/7":                         "4559b7379b42e0a82ed76ad6e6826bdb9355175956efa44068bda602669ec5a6",
	"stackgen/8":                         "7daed576dc23a01afc02b6c0ea439fcf28c530fcf6446214956bfd2ad5d5e581",
	"stackgen/9":                         "8fb225064e709fa307773121de5700aa6635564799545acb290fb2dfc32a4ef0",
	"statecheck/bounded_loop":            "3e96c5de60e907baf324f5ea2a895ab5f82c418babbb01bb05fb006f407662f5",
	"statecheck/branch_bounds":           "50ae34394a7664e05a9803deb612150ef4eb3055d3b59b253c6a2496ad4f8b71",
	"statecheck/cpu_id":                  "62d694618f13711bedd5c46ad17df3655b694c14738c9af38fc9234c01e2c232",
	"statecheck/gen1":                    "fe8b8246095b2ea2e65f79f222f12f3075aac070fa4a2c982aec18abc9c5599f",
	"statecheck/gen10":                   "8bb28042ff823711a0f075378b5d57d64d83a54c917f15deedfc947294a9bfba",
	"statecheck/gen11":                   "13cd18a0ad9c5b7a506a5f7ffbac56858ccada45d65744d54342e51e125eac3b",
	"statecheck/gen12":                   "6ed8aaa7c1339a3b9fa4423396e38403445097b169e10af543dfc6ddb42ecdfe",
	"statecheck/gen13":                   "47a41547f858b0c1f7ef4c5208bd911e38aaaad52d181b87d0a2680e73f1825c",
	"statecheck/gen14":                   "d8ae65fd0e5e2078a5d9cb2fe6dfe1d7e6371ae238c744ae5fc948283b98dd0f",
	"statecheck/gen15":                   "f3fbe2cc8ee43ec9603305f052c0c23431298f05b535c97ada7e79f700c33ebf",
	"statecheck/gen16":                   "62979999969650ad2f60ce26297daaf257a52c8d268f23edb79afa94bba57d6e",
	"statecheck/gen17":                   "3244ed3a662c89dd7a4c890d654615fa348c0b4017ef39c94c5e8f5cddbec36d",
	"statecheck/gen18":                   "6e17166bd1716793035a6370d2f0fb96acec442fcb72477604b43f8bbb8019f0",
	"statecheck/gen19":                   "b37eda31d3211b7b96429fd4adec8234e89ff3b1328f3e26b1ca7a26ddd6ec92",
	"statecheck/gen2":                    "18a37c129a38def4ce0a6a8af6fefb1b32dbf782f9a12a6bd0480606dbbd5089",
	"statecheck/gen20":                   "9d2eb16272bd2ea0755033502a794a8a22e200c279da1c75587cd73f146281ad",
	"statecheck/gen21":                   "d1c440abc95cc7d4c4b515df50da0122b39bf80a0f390e4c7a874e19e218b610",
	"statecheck/gen22":                   "c3bff2c157fa94c166fc0fc4ef725d3e4d9da0b2cbf250c712b09a46c0e6735b",
	"statecheck/gen23":                   "9233e8e6271c16cfb1818d84461a4e9c48d70bb6e69d72c4950d11956b3e24f3",
	"statecheck/gen24":                   "b37eda31d3211b7b96429fd4adec8234e89ff3b1328f3e26b1ca7a26ddd6ec92",
	"statecheck/gen25":                   "47e7e41429392d8e2302f4caf3ae0f9b4427091508bc8e51787132e89e6b93d4",
	"statecheck/gen26":                   "94baf30a6b17e7571c98f0522fcff1461ae65cbde7b0778190d3e71ae3eb40bb",
	"statecheck/gen27":                   "647c343885afe501efebf8673b7f574df4e0b140de066e04c9b567a249075a86",
	"statecheck/gen28":                   "8470c85141077ddd6429ba745cc46e6d0b66d8b11da51d0c180f666a381bcde6",
	"statecheck/gen29":                   "44e4f70c1bd86d0c5632438248280a921b3351edd927ca6e1398b58dddcd1cf1",
	"statecheck/gen3":                    "c3bff2c157fa94c166fc0fc4ef725d3e4d9da0b2cbf250c712b09a46c0e6735b",
	"statecheck/gen30":                   "40ce75c0ab774d20ff9267e682c8255677fe9927677cc7bce84f5ae67032666f",
	"statecheck/gen31":                   "f16d65503034b89a274e273bd293e97bfefb40aabd545b6159531fd03f79b2ab",
	"statecheck/gen32":                   "20fccd97de1b01da8e5982d7e3782bb3eebe8f6f7aae4bf19c50e6441230312b",
	"statecheck/gen33":                   "851b01f38e2815b7bdae0ba7639186d304f2113a593e078df0f2a5d9eb717dcb",
	"statecheck/gen34":                   "0812da8af12debc5a376096e600e6cad835c664251af63f0589640ef01c7950d",
	"statecheck/gen35":                   "3dfc4e0724b8b19e7d90250f156b73d55e5e9c132ff69cef6b53dfa07e165ffe",
	"statecheck/gen36":                   "75e9025a3395420286c80ee785e29632a94653e39ab91aea8841f7d963c1d444",
	"statecheck/gen37":                   "4e1f60c087f3168cfdc0af221d9aabe2e4439f740a170bc4ab0cdda44f6d04ec",
	"statecheck/gen38":                   "1896464d7e3bdc62e18512cdfdb3084506a06022887ac04650d596f1e25aaea6",
	"statecheck/gen39":                   "e25afd781612a06749eddaf230a5d6d9d30ecb64657e5bad63142655864fdba3",
	"statecheck/gen4":                    "7fdd196ce1c864c8182d631f09b03cd0e57b9e587ce0b7f128285da1a23e1d21",
	"statecheck/gen40":                   "f0a8d4a9fffd0aaad28a02f0dab37e1d1c162db3b9781206425f6a590c1a4fb8",
	"statecheck/gen41":                   "202b3dfc90464c36267fe30ea685f3e4c1c848255722bbe356dc65a99b6f303a",
	"statecheck/gen42":                   "60405c87d5ef3b6cc90e0f2c18f960e0434ca2263982f045000aef5564328bf8",
	"statecheck/gen43":                   "9fe015844cdb05ad0128863af381d06cf7a5d163145929d6a236d408118d8d12",
	"statecheck/gen44":                   "ebcd0caf5a896e313b966d642577e7e9e1ab8480cc63fa50dd6fcc078538b95b",
	"statecheck/gen45":                   "46883b70e83eae0c5f0facbe57e0d01360d9fe98ec4772457a260fcfb48edfde",
	"statecheck/gen46":                   "1eaed84ab56b47eca0c7729f7c84126fd09f343481de63722e6b57ae6addd0c4",
	"statecheck/gen47":                   "bd28375ea252791507967241ac0e3fe3f0f8177960f3797c984f2efcf992974b",
	"statecheck/gen48":                   "bd73ffb212e613c54a66d2e2e5f4b62b8ee6bbc26c3b7fd591beca7c9c526c8d",
	"statecheck/gen49":                   "794c9e16a3e115081b123cee71186515893b0b006d8b438c76a8bf26c7364592",
	"statecheck/gen5":                    "aceefc7aa551b37da6799c7bdb11d9e6e31626294fc9c7204b2e2cbb8860aade",
	"statecheck/gen50":                   "c9368265bc0c062dfcb4b09a6603fc9181243653a318c2633d9cdcbb94a74cf5",
	"statecheck/gen51":                   "13d7a3a9a878c2a700dd82656eb78d2b56c43c81f37a17e23b7929c1dc9f1382",
	"statecheck/gen52":                   "e19b1b4be61b294680af77f9b4a57beef4e094a5297961ef6bf28b9809cb36b6",
	"statecheck/gen53":                   "f9cc94a8c75c5287a89161e80f2c01ab5f821ddbe374ef168142c5be59ad117e",
	"statecheck/gen54":                   "de1445d0d515ed3c47a9eb2b66fa984821ae1e3f3a6e2c14b3a8ac9ab9a47bda",
	"statecheck/gen55":                   "681f9154cba9cdef1a16aedc70dda5599541acc6091c1a0b15a6c3482ccf244c",
	"statecheck/gen56":                   "a8aec59aa295bf601e6b46a4b0dbed68e406a5e008d707cd612f899c89e714bc",
	"statecheck/gen57":                   "05c9cb807352840dc16a2367941d50cf88e72ad06c40229cbf7be0bf623f4509",
	"statecheck/gen58":                   "868f146c033d0fa9373bc696e7cbd40bf3ae76a24d30143621120ae6f705faa2",
	"statecheck/gen59":                   "a98ea4be5b92fa1310ab9971516bf31b3890a4d719b922f53443072edb79d335",
	"statecheck/gen6":                    "325d8043216a21a013b83ebd34353721ba26c9a46bdd43a8438e1769ec8e66a9",
	"statecheck/gen60":                   "d1c440abc95cc7d4c4b515df50da0122b39bf80a0f390e4c7a874e19e218b610",
	"statecheck/gen7":                    "f9b42920ff06db500ccd4a296133e85b0b92842aeb5fc2cd209a093af3404202",
	"statecheck/gen8":                    "6e753c17a69eabe0ac7be3db4332e91b52e9c8aa9351e714319cfd1b568bfb00",
	"statecheck/gen9":                    "b37eda31d3211b7b96429fd4adec8234e89ff3b1328f3e26b1ca7a26ddd6ec92",
	"statecheck/lookup_checked":          "7c1df68c474fd0e320b0e545a50ed6b7cc3a9058cd093d9f51933a60d682fc4e",
	"statecheck/signed32_compare":        "3f1f6605d6d8ceec052012a26cb5dcf69e7e8be220a77680f36607ef9e587042",
	"statecheck/spill_reload":            "2a771916bea3037355f3bea9a7f4d6669f66c6a5b152877f3df652c3ea320f49",
	"witness/Wb215b3da1c8a":              "0252a633d6d6f97d287e08b84dc2c510a6c1dd2b519332794898fffca033a661",
	"witness/Wb215b3da1c8a/fixed":        "58e532e892621e2e024a7dfe418425e867ded77c67e46bda24b21680810956ff",
}
