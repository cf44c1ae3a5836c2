package experiments

import (
	"slices"
	"strings"
	"testing"

	"kex/internal/exec"
)

// Each experiment must regenerate its artifact and uphold the paper's
// claim. These tests are the reproduction's acceptance suite.

func checkHolds(t *testing.T, r *Result) {
	t.Helper()
	if len(r.Lines) == 0 {
		t.Fatalf("%s produced no output", r.ID)
	}
	if !r.Holds {
		t.Fatalf("%s does not uphold the paper's claim:\n%s", r.ID, r)
	}
	t.Logf("\n%s", r)
}

func TestFigure2(t *testing.T) { checkHolds(t, Figure2()) }
func TestFigure3(t *testing.T) { checkHolds(t, Figure3()) }
func TestFigure4(t *testing.T) { checkHolds(t, Figure4()) }
func TestTable1(t *testing.T)  { checkHolds(t, Table1()) }
func TestTable2(t *testing.T)  { checkHolds(t, Table2()) }
func TestE1(t *testing.T)      { checkHolds(t, E1Crash()) }
func TestE2(t *testing.T)      { checkHolds(t, E2Stall()) }
func TestE3(t *testing.T)      { checkHolds(t, E3HelperStudy()) }
func TestA1(t *testing.T)      { checkHolds(t, A1VerifierScaling()) }
func TestA2(t *testing.T)      { checkHolds(t, A2LoadPath()) }
func TestA3(t *testing.T)      { checkHolds(t, A3RuntimeTax()) }
func TestA4(t *testing.T)      { checkHolds(t, A4Expressiveness()) }
func TestX1(t *testing.T)      { checkHolds(t, X1Protection()) }
func TestX2(t *testing.T)      { checkHolds(t, X2ExecCore()) }
func TestX3(t *testing.T)      { checkHolds(t, X3FaultCampaign()) }
func TestX4(t *testing.T)      { checkHolds(t, X4Throughput()) }
func TestSC1(t *testing.T)     { checkHolds(t, SC1Soundness()) }

// X5 runs a 1000-node campaign (tens of seconds); CI's 64-node
// BenchmarkFleet_Rollout64 smoke covers it.

// TestX5DigestsRepeat pins that X5 is reproducible from its seed: two
// campaigns print the same four manifest digests.
func TestX5DigestsRepeat(t *testing.T) {
	digests := func() []string {
		r, _ := X5Rollout(8)
		if !r.Holds {
			t.Fatalf("8-node campaign does not hold:\n%s", r)
		}
		var ds []string
		for _, line := range r.Lines {
			if v, rest, ok := strings.Cut(line, " "); ok && len(v) == 2 && v[0] == 'v' {
				ds = append(ds, v+" "+strings.TrimSuffix(strings.Fields(rest)[0], ":"))
			}
		}
		if len(ds) != 4 {
			t.Fatalf("found %d manifest digests in %q, want 4", len(ds), r.Lines)
		}
		return ds
	}
	first, second := digests(), digests()
	if !slices.Equal(first, second) {
		t.Fatalf("digests differ across runs: %v then %v", first, second)
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("F2"); !ok {
		t.Fatal("F2 missing")
	}
	if _, ok := ByID("f2"); !ok {
		t.Fatal("lower-case id not accepted")
	}
	if _, ok := ByID("Z9"); ok {
		t.Fatal("bogus id accepted")
	}
}

// The X4 driver the throughput benchmarks share must take a volume that is
// not a whole number of batches (a benchmark's b.N) and still account for
// every op: every packet carries TCP and passes, no syscall is denied.
func TestPlaneDrivePartialBatch(t *testing.T) {
	for _, tc := range []struct {
		name      string
		open      func(exec.ShardedConfig) (*Plane, error)
		decisions uint64
	}{
		{"ebpf", NewEBPFPlane, 37},
		{"safext", NewSafextPlane, 0},
	} {
		p, err := tc.open(exec.ShardedConfig{Shards: 3})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		run, err := p.Drive(37, 16)
		p.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if run.Decisions != tc.decisions || run.SimOpsPerSec <= 0 {
			t.Errorf("%s: %+v, want %d decisions", tc.name, run, tc.decisions)
		}
	}
}
