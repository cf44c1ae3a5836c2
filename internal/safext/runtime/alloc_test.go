package runtime

import (
	goruntime "runtime"
	"testing"

	"kex/internal/exec"
)

// TestPrepareDispatchAllocs pins the per-invocation cost of the safext
// stack on top of the execution core: Prepare allocates one Prepared
// (request, resource log and verdict together), the dispatch allocates the
// caller-owned Report, and Finish allocates nothing — unsupervised and
// supervised alike.
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
		if got := testing.AllocsPerRun(200, run); got > 3 {
			t.Fatalf("supervised=%v: Prepare+dispatch+Finish allocs = %.1f, want <= 3", supervised, got)
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
