package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kex/internal/exec"
)

// TestShardedVerdictOutlivesBatch keeps the Verdicts made in one sharded
// batch while the next batch on the same shard, with other helper counts,
// reuses the shard's report slab, and while a later Prepare takes up one of
// their recycled Prepareds and runs it to a different verdict: every field
// of the kept Verdicts must be unchanged, since a Verdict is a value that
// shares no storage with the slab or the Prepared.
func TestShardedVerdictOutlivesBatch(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	once := f.load(t, "once", `
map runs: hash<u32, u64>(4);

fn main() -> i64 {
	let t: i64 = kernel::ktime();
	kernel::trace("once");
	let n: u64 = kernel::map_inc(runs, 0, 1);
	if n > 2 {
		return t - t + 7;
	}
	return t - t + 1;
}
`)
	thrice := f.load(t, "thrice", `
fn main() -> i64 {
	let a: i64 = kernel::ktime();
	let b: i64 = kernel::ktime();
	let c: i64 = kernel::ktime();
	kernel::trace("thrice");
	kernel::trace("again");
	return a - a + b - b + c - c + 3;
}
`)
	sh := f.rt.NewSharded(exec.ShardedConfig{Shards: 1})
	defer sh.Close()
	submit := func(ext *Extension, ps []*Prepared, done func([]exec.BatchResult)) {
		reqs := make([]exec.Request, len(ps))
		for i := range ps {
			if ps[i] == nil {
				ps[i] = ext.Prepare(RunOptions{})
			}
			reqs[i] = ps[i].Request()
		}
		b := exec.Batch{Engine: ext.Engine(), Reqs: reqs, Done: done}
		if err := sh.SubmitWait(0, b); err != nil {
			t.Fatal(err)
		}
		sh.Flush()
	}

	first := make([]*Prepared, 2)
	var kept []Verdict
	var before []string
	var again *Prepared
	submit(once, first, func(res []exec.BatchResult) {
		for i, p := range first {
			v, err := p.Finish(res[i].Report, res[i].Err)
			if err != nil || !v.Completed || v.R0 != 1 {
				t.Errorf("first batch[%d]: verdict %+v err %v", i, v, err)
				return
			}
			kept, before = append(kept, v), append(before, fmt.Sprintf("%+v", v))
		}
		// Finish gave both Prepareds back to the pool on this goroutine,
		// so Prepares here take one of them up again, after at most what
		// the pool's slot for this processor held before.
		for try := 0; try < 64 && again != first[0] && again != first[1]; try++ {
			again = once.Prepare(RunOptions{})
		}
	})
	if len(kept) != len(first) {
		t.Fatal("first batch kept no verdicts")
	}
	submit(thrice, make([]*Prepared, 2), func(res []exec.BatchResult) {
		for i := range res {
			if res[i].Report.HelperCalls.Get("slx_ktime") != 3 {
				t.Errorf("second batch[%d]: helper calls %v, want slx_ktime×3", i, res[i].Report.HelperCalls)
			}
		}
	})
	if again != first[0] && again != first[1] && !raceEnabled {
		// Under -race sync.Pool drops a quarter of what it is given.
		t.Fatal("a Prepare right after Finish on the same goroutine made a new Prepared")
	}
	submit(once, []*Prepared{again}, func(res []exec.BatchResult) {
		if v, err := again.Finish(res[0].Report, res[0].Err); err != nil || v.R0 != 7 {
			t.Errorf("reused Prepared: verdict %+v err %v, want R0 7", v, err)
		}
	})
	for i := range kept {
		if after := fmt.Sprintf("%+v", kept[i]); after != before[i] {
			t.Fatalf("kept verdict %d changed under later batches:\nbefore %s\n after %s", i, before[i], after)
		}
	}
}

// TestFinishTwicePanics finishes one Prepared twice: the second Finish
// would hand a recycled object out twice, so it must fail loudly.
func TestFinishTwicePanics(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "one", `
fn main() -> i64 {
	return 1;
}
`)
	p := ext.Prepare(RunOptions{})
	rep, err := f.rt.Core.Run(ext.Engine(), p.Request(), ext.Revalidate())
	if v, ferr := p.Finish(rep, err); ferr != nil || v.R0 != 1 {
		t.Fatalf("first Finish: verdict %+v err %v", v, ferr)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second Finish on a finished Prepared returned")
		}
	}()
	p.Finish(rep, err)
}

// TestVerdictFuelUsedWithinStaticBound runs the repository's quickstart
// counter at -opt 2 through Extension.Run: the verdict carries what the
// program itself retired, which the signed static instruction bound must
// cover, while Instructions also counts helper-charged work.
func TestVerdictFuelUsedWithinStaticBound(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "counter.slx"))
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, DefaultConfig())
	so, err := f.signer.BuildAndSignOptimizedMIR("counter", string(src))
	if err != nil {
		t.Fatal(err)
	}
	ext, err := f.rt.Load(so)
	if err != nil {
		t.Fatal(err)
	}
	bound := ext.Checks.StaticInsnBound
	if bound <= 0 {
		t.Fatalf("static insn bound %d, want a bound at -opt 2", bound)
	}
	for i := 0; i < 3; i++ {
		v, err := ext.Run(RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !v.Completed {
			t.Fatalf("run %d: %s", i, v.Reason)
		}
		if v.FuelUsed == 0 || v.FuelUsed > uint64(bound) {
			t.Errorf("run %d: retired %d instructions, static bound %d", i, v.FuelUsed, bound)
		}
		if v.Instructions < v.FuelUsed {
			t.Errorf("run %d: %d insns counted, fewer than the %d retired", i, v.Instructions, v.FuelUsed)
		}
	}
}
