package exec

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// TestStatsTableCoverage writes a distinct value to every counter and
// reason cell and checks each lands in its own ProgramStats/CPUStats field:
// the expectations name fields directly, so a table row pointing at the
// wrong field, or a missing row, fails here.
func TestStatsTableCoverage(t *testing.T) {
	var s Stats
	a, b := s.prog("a"), s.prog("b")
	// cell returns counter i's cell: a run counter's in CPU stripe 0, any
	// other's in n.
	cell := func(c *Program, i progCounter) *atomic.Uint64 {
		if i < numRunCounters {
			return &c.stripes[0].n[i]
		}
		return c.at(i)
	}
	if n := len(a.stripes[0].n) + len(a.n); n != 18 {
		t.Fatalf("%d counters, test covers 18", n)
	}
	for i := progCounter(0); i < numProgCounters; i++ {
		cell(a, i).Store(uint64(100 + i))
		cell(b, i).Store(uint64(1000 + i))
	}
	if len(a.reasons) != 3 {
		t.Fatalf("%d reasons, test covers 3", len(a.reasons))
	}
	for i, r := range []string{"reload", "tv", "conc"} {
		a.reasons[i].Store(&r)
	}
	c := s.cpu(0)
	for i := range c.n {
		c.n[i].Store(uint64(10 + i))
	}

	wantA := ProgramStats{
		Invocations: 100, Errors: 101, Instructions: 102, FuelUsed: 103, MapOps: 104,
		RuntimeNs: 105, WallNs: 106, CPUTimeNs: 107,
		Faults: 108, Denied: 109, Fallbacks: 110,
		ProbeFailures: 111, ReloadFailures: 112, LastReloadError: "reload",
		DynamicChecks: 113, ElidedChecks: 114, FuelElisions: 115,
		TVDemotions: 116, LastTVDemotionReason: "tv",
		ConcDemotions: 117, LastConcReason: "conc",
	}
	snap := s.Snapshot()
	if got := snap.Programs["a"]; !reflect.DeepEqual(got, wantA) {
		t.Errorf("snapshot a:\n got %+v\nwant %+v", got, wantA)
	}
	wantCPU := CPUStats{Invocations: 10, Instructions: 11, RuntimeNs: 12, WallNs: 13, CPUTimeNs: 14}
	if got := snap.CPUs[0]; got != wantCPU {
		t.Errorf("snapshot cpu0: got %+v, want %+v", got, wantCPU)
	}

	// b carries no reasons, so Totals must carry a's; every counter sums.
	wantT := ProgramStats{
		Invocations: 1100, Errors: 1102, Instructions: 1104, FuelUsed: 1106, MapOps: 1108,
		RuntimeNs: 1110, WallNs: 1112, CPUTimeNs: 1114,
		Faults: 1116, Denied: 1118, Fallbacks: 1120,
		ProbeFailures: 1122, ReloadFailures: 1124, LastReloadError: "reload",
		DynamicChecks: 1126, ElidedChecks: 1128, FuelElisions: 1130,
		TVDemotions: 1132, LastTVDemotionReason: "tv",
		ConcDemotions: 1134, LastConcReason: "conc",
	}
	if got := snap.Totals(); !reflect.DeepEqual(got, wantT) {
		t.Errorf("totals:\n got %+v\nwant %+v", got, wantT)
	}
}
