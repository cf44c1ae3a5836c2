package runtime

import (
	goruntime "runtime"
	"testing"

	"kex/internal/exec"
)

// TestPrepareDispatchAllocs pins the per-invocation cost of the safext
// stack on top of the execution core: Prepare takes up the Prepared the
// last Finish gave back (request, resource log and verdict together), the
// dispatch allocates the caller-owned Report, and Finish allocates
// nothing — unsupervised and supervised alike.
func TestPrepareDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	cfg := DefaultConfig()
	cfg.UseJIT = true
	f := newFixture(t, cfg)
	ext := f.load(t, "locked", `
map shared: hash<u32, u64>(16);

fn main() -> i64 {
	let seen = kernel::map_get(shared, 7);
	sync(shared, 5) {
		kernel::map_set(shared, 5, kernel::map_get(shared, 5) + 1);
	}
	return seen;
}
`)
	for _, supervised := range []bool{false, true} {
		if supervised {
			f.rt.Supervise(exec.DefaultSupervisorConfig())
		}
		run := func() {
			p := ext.Prepare(RunOptions{CPU: 1})
			v, err := p.Finish(f.rt.Core.Run(ext.Engine(), p.Request(), ext.Revalidate()))
			if err != nil || !v.Completed {
				t.Fatalf("supervised=%v: verdict %+v err %v", supervised, v, err)
			}
		}
		run()
		if got := testing.AllocsPerRun(200, run); got > 1 {
			t.Fatalf("supervised=%v: Prepare+dispatch+Finish allocs = %.1f, want <= 1", supervised, got)
		}
		// A run on a reused frame allocates no context TLB (16 KiB). The
		// fewest bytes over a few runs discounts background allocation.
		got := ^uint64(0)
		for i := 0; i < 5; i++ {
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			run()
			goruntime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got > 4096 {
			t.Fatalf("supervised=%v: a run on a reused frame allocates %d bytes, want <= 4096", supervised, got)
		}
	}
}

// TestShardedInvocationAllocs pins a safext invocation on the sharded
// path: Prepare, a warm shard's batch of 16 and Finish allocate nothing,
// since Finish gives each Prepared back for the next Prepare and the shard
// writes its reports into the slab it keeps.
func TestShardedInvocationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race")
	}
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "lookup", `
map cache: hash<u32, u64>(16);

fn main() -> i64 {
	kernel::map_inc(cache, 3, 1);
	return kernel::map_get(cache, 7);
}
`)
	sh := f.rt.NewSharded(exec.ShardedConfig{Shards: 2})
	defer sh.Close()
	ps := make([]*Prepared, 16)
	reqs := make([]exec.Request, len(ps))
	bad := 0
	answered := make(chan struct{}, 1)
	done := func(res []exec.BatchResult) {
		for i := range res {
			if v, err := ps[i].Finish(res[i].Report, res[i].Err); err != nil || !v.Completed {
				bad++
			}
		}
		answered <- struct{}{}
	}
	run := func() {
		for i := range ps {
			ps[i] = ext.Prepare(RunOptions{CPU: 1})
			reqs[i] = ps[i].Request()
		}
		if err := sh.SubmitWait(1, exec.Batch{Engine: ext.Engine(), Reqs: reqs, Done: done}); err != nil {
			t.Fatal(err)
		}
		<-answered
	}
	run()
	if got := testing.AllocsPerRun(50, run); got != 0 {
		t.Fatalf("Prepare, a warm shard's batch of %d and Finish allocate %.1f times, want 0", len(ps), got)
	}
	if bad != 0 {
		t.Fatalf("%d invocations failed", bad)
	}
}
