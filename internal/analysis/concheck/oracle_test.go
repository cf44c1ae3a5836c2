package concheck

import (
	"fmt"
	"testing"

	"kex/examples/progs"
	"kex/internal/analysis/concheck/mutants"
	"kex/internal/analysis/mirrun"
	"kex/internal/safext/compile"
	"kex/internal/safext/lang"
)

// The oracle-vs-analyzer contract, tested in both directions:
//
//   soundness (fatal):  a map the analyzer certified (every site percpu /
//     read-only / atomic / guarded / cpu-keyed) must produce exact serial
//     aggregates under every adversarial schedule. A divergence is a false
//     negative — the analyzer let a racy program onto the plane.
//   usefulness (demo):  the oracle actually produces lost updates on
//     convicted programs, so passing the soundness check means something.

const (
	oracleShards    = 3
	oracleInvs      = 6
	oracleSchedules = 8
	oracleSeed      = 0x5eed_c0de
)

func runBoth(t *testing.T, name, src string) (*compile.ConcReport, *OracleReport) {
	t.Helper()
	file, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	checked, err := lang.Check(file)
	if err != nil {
		t.Fatalf("%s: check: %v", name, err)
	}
	obj, arts, err := compile.CompileWithOptions(name, checked, compile.Options{})
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	rep, err := AnalyzeSLX(arts, obj.Maps)
	if err != nil {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	orep, err := RunOracle(checked, oracleShards, oracleInvs, oracleSchedules, oracleSeed)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	return rep, orep
}

// certified reports maps whose every site class guarantees schedule-
// independent aggregates. Blind writes are deliberately outside the claim:
// last-writer-wins order dependence exists under any serialization.
func certified(rep *compile.ConcReport) map[string]bool {
	out := map[string]bool{}
	for _, mv := range rep.Maps {
		ok := mv.Verdict != compile.VerdictRacy
		for _, s := range mv.Sites {
			if s.Class == compile.ClassBlind || s.Class == compile.ClassRacy {
				ok = false
			}
		}
		out[mv.Map] = ok
	}
	return out
}

// assertNoFalseNegatives is the fatal direction: oracle divergence on a map
// the analyzer certified.
func assertNoFalseNegatives(t *testing.T, name string, rep *compile.ConcReport, orep *OracleReport) {
	t.Helper()
	cert := certified(rep)
	for m, mr := range orep.Maps {
		if mr.Diverged && cert[m] {
			t.Errorf("%s: FALSE NEGATIVE: map %s certified shard-safe but schedule %d produced sum %d (serial %d)",
				name, m, mr.BadSched, mr.BadSum, mr.SerialSum)
		}
	}
}

// TestOracleCorpus runs every example program through both the analyzer and
// the oracle: certified maps must hold exact aggregates on every schedule.
func TestOracleCorpus(t *testing.T) {
	for name, src := range progs.All {
		rep, orep := runBoth(t, name, src)
		assertNoFalseNegatives(t, name, rep, orep)
		cert := certified(rep)
		for m, mr := range orep.Maps {
			if cert[m] && mr.Diverged {
				continue // already reported
			}
			if cert[m] {
				t.Logf("%s/%s: certified, exact (sum=%d emits=%d over %d schedules)",
					name, m, mr.SerialSum, mr.SerialEmu, oracleSchedules)
			}
		}
	}
}

// TestOracleConvictsMapAccumulate: the corpus's one Racy program must
// actually lose updates under the adversary — the demonstration that the
// oracle's schedules have teeth.
func TestOracleConvictsMapAccumulate(t *testing.T) {
	rep, orep := runBoth(t, "map_accumulate", progs.MapAccumulate)
	if rep.Verdict != compile.VerdictRacy {
		t.Fatalf("analyzer verdict %s, want Racy", rep.Verdict)
	}
	mr := orep.Maps["acc"]
	if mr == nil {
		t.Fatal("oracle did not report map acc")
	}
	if !mr.Diverged {
		t.Fatalf("oracle found no lost update on acc over %d schedules (serial sum %d) — widen the adversary",
			oracleSchedules, mr.SerialSum)
	}
	t.Logf("lost update reproduced: schedule %d sum %d != serial %d", mr.BadSched, mr.BadSum, mr.SerialSum)
}

// TestOracleMutants: every seeded racy mutant both convicts statically and,
// where its hazard is a lost-update window (not a delete/lock protocol
// variant), diverges dynamically.
func TestOracleMutants(t *testing.T) {
	for name, src := range mutants.All {
		rep, orep := runBoth(t, name, src)
		if !rep.Racy() {
			t.Errorf("%s: analyzer did not convict", name)
		}
		assertNoFalseNegatives(t, name, rep, orep)
	}
}

// sweepTemplates generate programs from a fixed seed: half provably safe,
// half racy, with seed-varied keys, strides and iteration counts. The sweep
// is the acceptance bar's "zero false negatives over a generated corpus".
func sweepProgram(kind string, v uint64) string {
	iters := 8 + v%8
	cell := v % 4
	stride := 2*(v%4) + 1 // odd: injective cpu multiplier
	switch kind {
	case "atomic":
		return fmt.Sprintf(`
map m: hash<u64, u64>(8);
fn main() -> i64 {
	for i in 0..%d {
		kernel::map_inc(m, i & 3, 1);
	}
	return 0;
}`, iters)
	case "guarded":
		return fmt.Sprintf(`
map m: hash<u64, u64>(8);
fn main() -> i64 {
	for i in 0..%d {
		sync(m, %d) {
			let c = kernel::map_get(m, %d);
			kernel::map_set(m, %d, c + 1);
		}
	}
	return 0;
}`, iters, cell, cell, cell)
	case "cpu_keyed":
		return fmt.Sprintf(`
map m: hash<u64, u64>(64);
fn main() -> i64 {
	let k = kernel::cpu() * %d;
	for i in 0..%d {
		let c = kernel::map_get(m, k);
		kernel::map_set(m, k, c + 1);
	}
	return 0;
}`, stride, iters)
	case "percpu":
		return fmt.Sprintf(`
map m: percpu<u32, u64>(8);
fn main() -> i64 {
	for i in 0..%d {
		let c = kernel::map_get(m, %d);
		kernel::map_set(m, %d, c + 1);
	}
	return 0;
}`, iters, cell, cell)
	case "racy_const":
		return fmt.Sprintf(`
map m: hash<u64, u64>(8);
fn main() -> i64 {
	for i in 0..%d {
		let c = kernel::map_get(m, %d);
		kernel::map_set(m, %d, c + 1);
	}
	return 0;
}`, iters, cell, cell)
	case "racy_ctx":
		return fmt.Sprintf(`
map m: hash<u64, u64>(8);
fn main() -> i64 {
	let k = kernel::pid_tgid() %% 4;
	for i in 0..%d {
		let c = kernel::map_get(m, k);
		kernel::map_set(m, k, c + 1);
	}
	return 0;
}`, iters)
	}
	return ""
}

func TestOracleGeneratedSweep(t *testing.T) {
	kinds := []string{"atomic", "guarded", "cpu_keyed", "percpu", "racy_const", "racy_ctx"}
	safe := map[string]bool{"atomic": true, "guarded": true, "cpu_keyed": true, "percpu": true}
	const variants = 4
	racyConvicted := 0
	for _, kind := range kinds {
		for v := 0; v < variants; v++ {
			name := fmt.Sprintf("sweep_%s_%d", kind, v)
			src := sweepProgram(kind, mirrun.Mix(oracleSeed, mirrun.Hash(kind), uint64(v)))
			rep, orep := runBoth(t, name, src)
			assertNoFalseNegatives(t, name, rep, orep)
			if safe[kind] {
				if rep.Racy() {
					t.Errorf("%s: false positive: safe template convicted (%s)", name, rep.Reason)
				}
				if orep.Maps["m"].Diverged {
					t.Errorf("%s: certified-safe template diverged dynamically", name)
				}
			} else {
				if !rep.Racy() {
					t.Errorf("%s: racy template not convicted", name)
				}
				if orep.Maps["m"].Diverged {
					racyConvicted++
				}
			}
		}
	}
	// The adversary must reproduce lost updates on most racy variants — a
	// sanity floor so the soundness direction is not vacuously satisfied.
	if racyConvicted < variants {
		t.Errorf("oracle reproduced lost updates on only %d/%d racy sweep variants", racyConvicted, 2*variants)
	}
}
