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

var supBench = newTable("BENCH_supervisor.json", deriveSupervisor)

// deriveSupervisor adds to each supervised row its overhead against the
// matching bare row, the figure the acceptance bar checks.
func deriveSupervisor(rows []row) []row {
	bare := map[string]float64{}
	for _, r := range rows {
		if stack, ok := strings.CutSuffix(r.Config, "/bare"); ok {
			bare[stack] = r.Metrics["wall_ns_per_op"]
		}
	}
	for _, r := range rows {
		if stack, ok := strings.CutSuffix(r.Config, "/supervised"); ok && bare[stack] > 0 {
			r.Metrics["overhead_pct_vs_bare"] = overheadPct(r.Metrics["wall_ns_per_op"], bare[stack])
		}
	}
	return rows
}

// benchSupervisor records one healthy-path leg's core wall time per
// dispatch.
func benchSupervisor(b *testing.B, config string, ps exec.ProgramStats) {
	supBench.record(b, row{Config: config, Metrics: metrics{
		"wall_ns_per_op": float64(ps.WallNs) / float64(ps.Invocations),
	}})
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
	supBench.record(b, row{Config: "recovery/ebpf", Metrics: metrics{
		"virtual_ns_to_recover": float64(totalVirt) / float64(b.N),
		"denied_per_cycle":      float64(totalDenied) / float64(b.N),
	}})
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
