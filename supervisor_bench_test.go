package kexbench

import (
	"strings"
	"testing"

	"kex/internal/ebpf"
	"kex/internal/exec"
	"kex/internal/experiments"
	"kex/internal/faultinject"
	"kex/internal/kernel"
)

// The BenchmarkSupervisor_* family quantifies the supervised recovery
// layer: healthy-path dispatch overhead versus bare Core.Run (the
// acceptance bar is <5%), and time-to-recover under a canned fault burst.
// The rows persist to BENCH_supervisor.json.

type supBenchRow struct {
	Config        string  `json:"config"`
	WallNsPerOp   float64 `json:"wall_ns_per_op"`
	BenchmarkIter int     `json:"benchmark_iters"`
	// OverheadPct is filled on the supervised healthy-path rows at
	// artifact-write time, relative to the matching bare row.
	OverheadPct float64 `json:"overhead_pct_vs_bare,omitempty"`
	// Recovery-cycle figures (fault burst → quarantine → probe → recovered).
	RecoverVirtNs  float64 `json:"virtual_ns_to_recover,omitempty"`
	DeniedPerCycle float64 `json:"denied_per_cycle,omitempty"`
}

var supBench = newArtifact[supBenchRow]("BENCH_supervisor.json", summarizeSupervisor)

// summarizeSupervisor fills in each supervised row's overhead against the
// matching bare row, the figure the acceptance bar checks.
func summarizeSupervisor(rows []supBenchRow) any {
	bare := map[string]float64{}
	for _, r := range rows {
		if stack, ok := strings.CutSuffix(r.Config, "/bare"); ok {
			bare[stack] = r.WallNsPerOp
		}
	}
	for i, r := range rows {
		if stack, ok := strings.CutSuffix(r.Config, "/supervised"); ok && bare[stack] > 0 {
			rows[i].OverheadPct = overheadPct(r.WallNsPerOp, bare[stack])
		}
	}
	return rows
}

// benchSupervisor records one healthy-path leg's core wall time per
// dispatch.
func benchSupervisor(b *testing.B, config string, ps exec.ProgramStats) {
	row := supBenchRow{
		Config:        config,
		WallNsPerOp:   float64(ps.WallNs) / float64(ps.Invocations),
		BenchmarkIter: b.N,
	}
	b.ReportMetric(row.WallNsPerOp, "core-wall-ns/op")
	supBench.record(config, row)
}

// BenchmarkSupervisor_Recovery measures one full containment cycle: a
// 3-crash fault burst trips the breaker, denied dispatches tick the virtual
// clock through the backoff, and the recovery probe readmits the program.
// Reported metrics are virtual time from trip to recovery and the number of
// denied dispatches each cycle absorbed.
func BenchmarkSupervisor_Recovery(b *testing.B) {
	var totalVirt int64
	var totalDenied uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := ebpf.NewStack(kernel.NewDefault())
		sup := s.Supervise(exec.SupervisorConfig{
			Window:        16,
			TripThreshold: 3,
			BaseBackoffNs: 20_000,
			MaxBackoffNs:  400_000,
			JitterSeed:    uint64(i + 1),
			Policy:        exec.DegradeFallback,
			DeniedCostNs:  1_000,
		})
		prog, err := experiments.ExecCoreProgram(s)
		if err != nil {
			b.Fatal(err)
		}
		l, err := s.Load(prog)
		if err != nil {
			b.Fatal(err)
		}
		inj := faultinject.New(uint64(i+1), faultinject.Plan{Rules: []faultinject.Rule{
			{Site: faultinject.SiteHelperCrash, Match: "bpf_ktime_get_ns", Prob: 1, Max: 3},
		}})
		faultinject.Attach(s.Core, inj)
		b.StartTimer()

		for f := 0; f < 3; f++ {
			l.Run(ebpf.RunOptions{})
		}
		if sup.State(experiments.ExecCoreName) != exec.StateQuarantined {
			b.Fatal("fault burst did not trip the breaker")
		}
		faultinject.Detach(s.Core)
		tripped := s.K.Clock.Now()
		for sup.State(experiments.ExecCoreName) == exec.StateQuarantined {
			if _, err := l.Run(ebpf.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		if sup.State(experiments.ExecCoreName) != exec.StateRecovered {
			b.Fatalf("cycle ended in %s", sup.State(experiments.ExecCoreName))
		}
		totalVirt += s.K.Clock.Now() - tripped

		b.StopTimer()
		totalDenied += s.Stats.Snapshot().Programs[experiments.ExecCoreName].Denied
		l.Close()
		b.StartTimer()
	}
	row := supBenchRow{
		Config:         "recovery/ebpf",
		BenchmarkIter:  b.N,
		RecoverVirtNs:  float64(totalVirt) / float64(b.N),
		DeniedPerCycle: float64(totalDenied) / float64(b.N),
	}
	b.ReportMetric(row.RecoverVirtNs, "virtual-ns-to-recover")
	b.ReportMetric(row.DeniedPerCycle, "denied/cycle")
	supBench.record(row.Config, row)
}

// The healthy-path legs run the exec-core workload on the JIT, with and
// without the supervisor gate in front of Core.Run.
func BenchmarkSupervisor_BareEBPF(b *testing.B) {
	benchSupervisor(b, "ebpf/bare", runCore(b, experiments.ExecLeg{JIT: true}))
}
func BenchmarkSupervisor_SupervisedEBPF(b *testing.B) {
	benchSupervisor(b, "ebpf/supervised", runCore(b, experiments.ExecLeg{JIT: true, Supervised: true}))
}
func BenchmarkSupervisor_BareSafext(b *testing.B) {
	benchSupervisor(b, "safext/bare", runCore(b, experiments.ExecLeg{Safext: true, JIT: true}))
}
func BenchmarkSupervisor_SupervisedSafext(b *testing.B) {
	benchSupervisor(b, "safext/supervised", runCore(b, experiments.ExecLeg{Safext: true, JIT: true, Supervised: true}))
}
