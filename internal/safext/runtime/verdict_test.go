package runtime

import (
	"fmt"
	"testing"

	"kex/internal/exec"
)

// TestShardedVerdictOutlivesBatch keeps a Verdict made in one sharded
// batch while the next batch on the same shard, with other helper counts,
// reuses the shard's report slab: every field of the kept Verdict must be
// unchanged, since a Verdict shares no storage with the slab.
func TestShardedVerdictOutlivesBatch(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	once := f.load(t, "once", `
fn main() -> i64 {
	let t: i64 = kernel::ktime();
	kernel::trace("once");
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
	submit := func(ext *Extension, n int, done func([]*Prepared, []exec.BatchResult)) {
		ps := make([]*Prepared, n)
		reqs := make([]exec.Request, n)
		for i := range ps {
			ps[i] = ext.Prepare(RunOptions{})
			reqs[i] = ps[i].Request()
		}
		b := exec.Batch{Engine: ext.Engine(), Reqs: reqs, Done: func(res []exec.BatchResult) { done(ps, res) }}
		if err := sh.SubmitWait(0, b); err != nil {
			t.Fatal(err)
		}
		sh.Flush()
	}

	var kept *Verdict
	var before string
	submit(once, 2, func(ps []*Prepared, res []exec.BatchResult) {
		for i := range ps {
			v, err := ps[i].Finish(res[i].Report, res[i].Err)
			if err != nil || !v.Completed || v.R0 != 1 {
				t.Errorf("first batch[%d]: verdict %+v err %v", i, v, err)
				return
			}
			kept, before = v, fmt.Sprintf("%+v", *v)
		}
	})
	if kept == nil {
		t.Fatal("first batch kept no verdict")
	}
	submit(thrice, 2, func(ps []*Prepared, res []exec.BatchResult) {
		for i := range ps {
			if v, err := ps[i].Finish(res[i].Report, res[i].Err); err != nil || v.R0 != 3 {
				t.Errorf("second batch[%d]: verdict %+v err %v", i, v, err)
			}
			if res[i].Report.HelperCalls.Get("slx_ktime") != 3 {
				t.Errorf("second batch[%d]: helper calls %v, want slx_ktime×3", i, res[i].Report.HelperCalls)
			}
		}
	})
	if after := fmt.Sprintf("%+v", *kept); after != before {
		t.Fatalf("kept verdict changed under the next batch:\nbefore %s\n after %s", before, after)
	}
}
