package runtime

import (
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
			var rep *exec.Report
			var err error
			if supervised {
				rep, err = f.rt.sup.Run(ext.Engine(), p.Request(), ext.Revalidate())
			} else {
				rep, err = f.rt.Core.Run(ext.Engine(), p.Request())
			}
			v, err := p.Finish(rep, err)
			if err != nil || !v.Completed {
				t.Fatalf("supervised=%v: verdict %+v err %v", supervised, v, err)
			}
		}
		run()
		if got := testing.AllocsPerRun(200, run); got > 3 {
			t.Fatalf("supervised=%v: Prepare+dispatch+Finish allocs = %.1f, want <= 3", supervised, got)
		}
	}
}
