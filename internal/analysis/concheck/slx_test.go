package concheck

import (
	"testing"

	"kex/examples/progs"
	"kex/internal/analysis/concheck/mutants"
	"kex/internal/safext/compile"
	"kex/internal/safext/lang"
)

// analyzeSource parses, checks, and compiles one SLX source, then runs the
// analyzer over the compiler's lowering.
func analyzeSource(t *testing.T, name, src string) *compile.ConcReport {
	t.Helper()
	f, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		t.Fatalf("%s: check: %v", name, err)
	}
	obj, arts, err := compile.CompileWithOptions(name, checked, compile.Options{})
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	rep, err := AnalyzeSLX(arts, obj.Maps)
	if err != nil {
		t.Fatalf("%s: concheck: %v", name, err)
	}
	return rep
}

// TestCorpusVerdicts pins the per-program verdict over the shared example
// corpus: exactly one program (map_accumulate, which carries loop state
// through a shared map at an unknown key) is Racy; everything else proves.
func TestCorpusVerdicts(t *testing.T) {
	want := map[string]string{
		"counter":        compile.VerdictShardSafe, // map_inc is atomic
		"firewall":       compile.VerdictShardSafe, // no maps at all
		"syscall_policy": compile.VerdictShardSafe, // read-only allowlist + ringbuf
		"kvcache":        compile.VerdictShardSafe, // stats RMW under sync(stats, 0)
		"profiler":       compile.VerdictShardSafe, // map_inc + ringbuf
		"profiler_buggy": compile.VerdictShardSafe, // map_inc (the bug is liveness, not safety)
		"histogram":      compile.VerdictShardSafe, // blind writes only
		"map_accumulate": compile.VerdictRacy,      // get→set window, key i&7
		"nested_invar":   compile.VerdictShardSafe, // no maps
	}
	for name, src := range progs.All {
		rep := analyzeSource(t, name, src)
		exp, ok := want[name]
		if !ok {
			t.Errorf("%s: corpus program not in expectation table (add it)", name)
			continue
		}
		if rep.Verdict != exp {
			t.Errorf("%s: verdict %s, want %s (reason: %s)", name, rep.Verdict, exp, rep.Reason)
		}
	}
}

// TestCorpusSiteDetail pins the interesting classifications: the guarded
// kvcache windows, the one racy map_accumulate write, counter's atomic inc.
func TestCorpusSiteDetail(t *testing.T) {
	rep := analyzeSource(t, "kvcache", progs.KVCache)
	var guarded int
	for _, mv := range rep.Maps {
		for _, s := range mv.Sites {
			if s.Class == compile.ClassGuarded {
				guarded++
			}
		}
	}
	if guarded != 2 {
		t.Errorf("kvcache: %d guarded sites, want 2 (the stats windows under sync)", guarded)
	}

	rep = analyzeSource(t, "map_accumulate", progs.MapAccumulate)
	var racy int
	for _, mv := range rep.Maps {
		for _, s := range mv.Sites {
			if s.Class == compile.ClassRacy {
				racy++
			}
		}
	}
	if racy != 1 {
		t.Errorf("map_accumulate: %d racy sites, want exactly 1 (the accumulate map_set)", racy)
	}

	rep = analyzeSource(t, "counter", progs.Counter)
	if rep.Sites != 1 || rep.Proven != 1 {
		t.Errorf("counter: sites=%d proven=%d, want 1/1 atomic map_inc", rep.Sites, rep.Proven)
	}
}

// TestCorpusProvenFraction is the acceptance bar: at least 80% of the
// corpus's map access sites must be proven better than racy.
func TestCorpusProvenFraction(t *testing.T) {
	var sites, proven int
	for name, src := range progs.All {
		rep := analyzeSource(t, name, src)
		sites += rep.Sites
		proven += rep.Proven
	}
	if sites == 0 {
		t.Fatal("corpus has no map access sites")
	}
	frac := float64(proven) / float64(sites)
	t.Logf("corpus: %d/%d sites proven (%.0f%%)", proven, sites, frac*100)
	if frac < 0.8 {
		t.Errorf("proven fraction %.2f below the 0.80 acceptance bar", frac)
	}
}

// TestMutantKillSuite is the analyzer's own safety net: every seeded racy
// program must be flagged Racy. A mutant that certifies clean is a
// false-negative class waiting for production to find it.
func TestMutantKillSuite(t *testing.T) {
	if len(mutants.All) < 8 {
		t.Fatalf("kill suite has %d mutants, acceptance requires >= 8", len(mutants.All))
	}
	for name, src := range mutants.All {
		rep := analyzeSource(t, name, src)
		if !rep.Racy() {
			t.Errorf("mutant %s: verdict %s, want Racy — analyzer false negative", name, rep.Verdict)
			continue
		}
		if rep.Reason == "" {
			t.Errorf("mutant %s: Racy verdict must carry convicting evidence", name)
		}
	}
}

// TestSafeTwins pins the boundary from the safe side: minimal repairs of
// the mutants that the analyzer must certify, so the kill suite is known to
// convict the race, not the shape of the program.
func TestSafeTwins(t *testing.T) {
	twins := map[string]string{
		// IncWindow repaired with the atomic fetch-add.
		"inc_window_atomic": `
map counts: hash<u64, u64>(1024);
fn main() -> i64 {
	let pid = kernel::pid_tgid() % 4096;
	kernel::map_inc(counts, pid, 1);
	return 0;
}
`,
		// AliasUnknown repaired: the raw cpu() key is injective.
		"cpu_keyed": `
map slots: hash<u64, u64>(64);
fn main() -> i64 {
	let slot = kernel::cpu();
	let cur = kernel::map_get(slots, slot);
	kernel::map_set(slots, slot, cur + 1);
	return 0;
}
`,
		// A scaled-and-offset cpu key stays injective (multiplier survives
		// the 64-bit key width).
		"cpu_affine": `
map slots: hash<u64, u64>(64);
fn main() -> i64 {
	let slot = kernel::cpu() * 8 + 3;
	let cur = kernel::map_get(slots, slot);
	kernel::map_set(slots, slot, cur + 1);
	return 0;
}
`,
		// WrongLock repaired: lock the map the window is on.
		"right_lock": `
map counts: hash<u64, u64>(64);
fn main() -> i64 {
	let k = kernel::uid() % 64;
	sync(counts, 0) {
		let cur = kernel::map_get(counts, k);
		kernel::map_set(counts, k, cur + 1);
	}
	return 0;
}
`,
		// FalsePerCPU repaired: on a percpu map every shard owns its cells
		// by construction, whatever the key.
		"true_percpu": `
map lanes: percpu<u32, u64>(16);
fn main() -> i64 {
	let cur = kernel::map_get(lanes, 0);
	kernel::map_set(lanes, 0, cur + 1);
	return 0;
}
`,
		// BranchSplit repaired: the write is blind (no data or control
		// dependence on a read of the same map).
		"blind_write": `
map state: hash<u64, u64>(8);
fn main() -> i64 {
	let v = kernel::uid();
	if v > 10 {
		kernel::map_set(state, 0, v);
	}
	return 0;
}
`,
	}
	for name, src := range twins {
		rep := analyzeSource(t, name, src)
		if rep.Racy() {
			t.Errorf("safe twin %s: flagged Racy (%s) — analyzer too coarse to be useful", name, rep.Reason)
		}
	}
}

// TestInterproceduralContext pins that lock context crosses calls: a window
// inside a helper invoked under sync() is guarded.
func TestInterproceduralContext(t *testing.T) {
	src := `
map totals: hash<u64, u64>(32);

fn bump(k: i64) -> i64 {
	let cur = kernel::map_get(totals, k);
	kernel::map_set(totals, k, cur + 1);
	return 0;
}

fn main() -> i64 {
	let k = kernel::uid() % 32;
	sync(totals, 0) {
		let x = bump(k);
	}
	return 0;
}
`
	rep := analyzeSource(t, "guarded_helper", src)
	if rep.Racy() {
		t.Errorf("window under caller's sync flagged Racy: %s", rep.Reason)
	}

	// The same helper called outside any sync must convict.
	unguarded := `
map totals: hash<u64, u64>(32);

fn bump(k: i64) -> i64 {
	let cur = kernel::map_get(totals, k);
	kernel::map_set(totals, k, cur + 1);
	return 0;
}

fn main() -> i64 {
	let k = kernel::uid() % 32;
	let x = bump(k);
	return 0;
}
`
	rep = analyzeSource(t, "unguarded_helper", unguarded)
	if !rep.Racy() {
		t.Error("interprocedural window outside sync must be Racy")
	}
}
