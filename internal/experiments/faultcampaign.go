package experiments

import (
	"fmt"
	"strings"

	"kex/internal/ebpf"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/exec"
	"kex/internal/faultinject"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

// X3 runs one identical seeded fault campaign against both stacks under
// supervision. Everything below derives deterministically from
// (x3Seed, x3Plan); re-running reproduces the same counts bit for bit.
const (
	x3Seed  = 0xC0FFEE
	x3Iters = 64
	x3Runs  = 400
)

// x3Plan arms every shared seam: helper error returns, simulated helper
// crashes under oops=panic, map-update failures, and fuel/watchdog budget
// jitter. The budget-jitter sites only bite where a budget exists — the
// verified stack runs with no fuel or watchdog, which is the point.
func x3Plan() faultinject.Plan {
	return faultinject.Plan{
		PanicOnOops: true,
		Rules: []faultinject.Rule{
			{Site: faultinject.SiteHelperError, Prob: 0.01, Max: 40},
			{Site: faultinject.SiteHelperCrash, Prob: 0.004, Max: 3},
			{Site: faultinject.SiteMapUpdate, Prob: 0.02, Max: 60},
			{Site: faultinject.SiteFuel, Prob: 0.03, Max: 4, Scale: 1e-5},
			{Site: faultinject.SiteWatchdog, Prob: 0.03, Max: 4, Scale: 2e-5},
		},
	}
}

// X3SupervisorConfig is shared by both stacks and the supervisor's
// recovery benchmark; backoff runs on the virtual clock so the schedule is
// seed-deterministic.
func X3SupervisorConfig() exec.SupervisorConfig {
	return exec.SupervisorConfig{
		Window:        16,
		TripThreshold: 3,
		BaseBackoffNs: 20_000,
		MaxBackoffNs:  400_000,
		JitterSeed:    x3Seed,
		DeniedCostNs:  1_000,
	}
}

// x3EBPFProgram is the bytecode half of the workload: per iteration, one
// clock helper call and one map update — the same shape as the SLX half.
func x3EBPFProgram(s *ebpf.Stack) (*isa.Program, error) {
	ktime, ok := s.Helpers.ByName("bpf_ktime_get_ns")
	if !ok {
		return nil, fmt.Errorf("bpf_ktime_get_ns not registered")
	}
	update, ok := s.Helpers.ByName("bpf_map_update_elem")
	if !ok {
		return nil, fmt.Errorf("bpf_map_update_elem not registered")
	}
	return &isa.Program{Name: "x3", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R6, 0),
		isa.Mov64Imm(isa.R7, 0),
		// loop:
		isa.Call(int32(ktime.ID)),
		isa.ALU64Imm(isa.OpAdd, isa.R7, 3),
		isa.StoreImm(isa.SizeW, isa.R10, -4, 0),
		isa.StoreMem(isa.SizeDW, isa.R10, -16, isa.R7),
		isa.LoadMapRef(isa.R1, "x3_counts"),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.Mov64Reg(isa.R3, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R3, -16),
		isa.Mov64Imm(isa.R4, 0),
		isa.Call(int32(update.ID)),
		isa.ALU64Imm(isa.OpAdd, isa.R6, 1),
		isa.JmpImm(isa.OpJlt, isa.R6, x3Iters, -13),
		isa.Mov64Reg(isa.R0, isa.R7),
		isa.Exit(),
	}}, nil
}

// x3SLX is the same workload through the safext toolchain.
const x3SLX = `
map counts: hash<u32, u64>(16);

fn main() -> i64 {
	let mut x: i64 = 0;
	for i in 0..64 {
		let t: i64 = kernel::ktime();
		x += t - t + 3;
		kernel::map_set(counts, 0, x);
	}
	return x;
}
`

// x3Tally is one stack's campaign outcome. Every field is derived from
// deterministic state (virtual clock, seeded PRNG), so two identical
// campaigns must produce equal tallies.
type x3Tally struct {
	Runs      int
	Oopsed    int // runs that added kernel oopses (crash/panic path)
	Contained int // runs a net terminated with no new kernel damage
	Denied    int // dispatches refused at the supervisor gate
	Clean     int
	Injected  int // total injected faults, all sites
	Recovered uint64
	Trips     uint64
	BySite    string
	Final     exec.State
}

func (t x3Tally) row(label string) string {
	return fmt.Sprintf("%-8s %6d %7d %10d %7d %6d %9d %10d %6d  final=%s  %s",
		label, t.Runs, t.Oopsed, t.Contained, t.Denied, t.Clean,
		t.Injected, t.Recovered, t.Trips, t.Final, t.BySite)
}

// x3SiteCounts renders the injector's per-site counts in stable order.
func x3SiteCounts(inj *faultinject.Injector) string {
	counts := inj.CountBySite()
	order := []faultinject.Site{
		faultinject.SiteHelperError, faultinject.SiteHelperCrash,
		faultinject.SiteMapUpdate, faultinject.SiteFuel, faultinject.SiteWatchdog,
	}
	var parts []string
	for _, s := range order {
		if counts[s] > 0 {
			parts = append(parts, fmt.Sprintf("%s×%d", s, counts[s]))
		}
	}
	if len(parts) == 0 {
		return "no injections"
	}
	return strings.Join(parts, " ")
}

func x3Finish(t *x3Tally, inj *faultinject.Injector, sup *exec.Supervisor, stats exec.Snapshot) {
	t.Injected = inj.EventCount()
	t.BySite = x3SiteCounts(inj)
	t.Final = sup.State("x3")
	ps := stats.Programs["x3"]
	t.Recovered = ps.Transitions["quarantined->recovered"]
	for tr, n := range ps.Transitions {
		if strings.HasSuffix(tr, "->"+string(exec.StateQuarantined)) {
			t.Trips += n
		}
	}
}

// x3CampaignEBPF runs the seeded campaign against the verified stack.
func x3CampaignEBPF() (x3Tally, error) {
	var t x3Tally
	k := kernel.NewDefault()
	s := ebpf.NewStack(k)
	if _, err := s.CreateMap(x3MapSpec()); err != nil {
		return t, err
	}
	prog, err := x3EBPFProgram(s)
	if err != nil {
		return t, err
	}
	l, err := s.Load(prog)
	if err != nil {
		return t, fmt.Errorf("ebpf load: %w", err)
	}
	defer l.Close()
	sup := s.Supervise(X3SupervisorConfig())
	inj := faultinject.New(x3Seed, x3Plan())
	faultinject.Attach(s.Core, inj)

	oopsBefore := len(k.Oopses())
	for i := 0; i < x3Runs; i++ {
		rep, err := l.Run(ebpf.RunOptions{})
		t.Runs++
		oopsNow := len(k.Oopses())
		switch {
		case rep != nil && rep.Supervision == "denied":
			t.Denied++
		case oopsNow > oopsBefore:
			t.Oopsed++
		case err != nil:
			t.Contained++
		default:
			t.Clean++
		}
		oopsBefore = oopsNow
	}
	x3Finish(&t, inj, sup, s.Stats.Snapshot())
	return t, nil
}

// x3CampaignSafext runs the identical campaign (same seed, same plan)
// against the safext stack.
func x3CampaignSafext(signer *toolchain.Signer, so *toolchain.SignedObject) (x3Tally, error) {
	var t x3Tally
	k := kernel.NewDefault()
	rt := runtime.New(k, runtime.DefaultConfig())
	rt.AddKey(signer.PublicKey())
	ext, err := rt.Load(so)
	if err != nil {
		return t, fmt.Errorf("safext load: %w", err)
	}
	defer ext.Close()
	sup := rt.Supervise(X3SupervisorConfig())
	inj := faultinject.New(x3Seed, x3Plan())
	faultinject.Attach(rt.Core, inj)

	oopsBefore := len(k.Oopses())
	for i := 0; i < x3Runs; i++ {
		v, err := ext.Run(runtime.RunOptions{})
		t.Runs++
		oopsNow := len(k.Oopses())
		switch {
		case v != nil && v.Reason == "quarantined":
			t.Denied++
		case oopsNow > oopsBefore:
			t.Oopsed++
		case err != nil || (v != nil && v.Terminated):
			t.Contained++
		default:
			t.Clean++
		}
		oopsBefore = oopsNow
	}
	x3Finish(&t, inj, sup, rt.Core.Stats.Snapshot())
	return t, nil
}

func x3MapSpec() maps.Spec {
	return maps.Spec{Name: "x3_counts", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 16}
}

// X3FaultCampaign runs one identical seeded fault campaign against both
// stacks under supervision and tabulates where the damage went: kernel
// oopses versus contained terminations versus supervisor-denied
// dispatches, plus quarantine trips and recoveries. It then re-runs the
// whole campaign from the same seed and requires bit-identical tallies —
// the reproducibility contract that makes fault campaigns debuggable.
func X3FaultCampaign() *Result {
	r := &Result{
		ID:         "X3",
		Title:      "seeded fault campaign: containment and recovery on both stacks",
		PaperClaim: "static verification cannot make buggy kernel code safe; runtime mechanisms must contain faults and the system must keep serving (§2.2, §3)",
	}

	signer, err := toolchain.NewSigner()
	if err != nil {
		r.Measured = err.Error()
		return r
	}
	so, err := signer.BuildAndSign("x3", x3SLX)
	if err != nil {
		r.Measured = "slx build failed: " + err.Error()
		return r
	}

	ebpf1, err := x3CampaignEBPF()
	if err != nil {
		r.Measured = err.Error()
		return r
	}
	safext1, err := x3CampaignSafext(signer, so)
	if err != nil {
		r.Measured = err.Error()
		return r
	}
	// Second pass, same seed: the reproducibility check.
	ebpf2, err := x3CampaignEBPF()
	if err != nil {
		r.Measured = "replay: " + err.Error()
		return r
	}
	safext2, err := x3CampaignSafext(signer, so)
	if err != nil {
		r.Measured = "replay: " + err.Error()
		return r
	}

	r.Lines = append(r.Lines,
		fmt.Sprintf("campaign: seed=%#x runs=%d/stack, identical plan on both stacks", uint64(x3Seed), x3Runs),
		fmt.Sprintf("%-8s %6s %7s %10s %7s %6s %9s %10s %6s", "stack",
			"runs", "oopsed", "contained", "denied", "clean", "injected", "recovered", "trips"),
		ebpf1.row("ebpf"),
		safext1.row("safext"),
	)

	reproducible := ebpf1 == ebpf2 && safext1 == safext2
	if reproducible {
		r.Lines = append(r.Lines, "replay (same seed): both tallies bit-identical")
	} else {
		r.Lines = append(r.Lines, "replay (same seed): TALLIES DIVERGED",
			"  ebpf:   "+ebpf2.row("ebpf"), "  safext: "+safext2.row("safext"))
	}

	supervised := ebpf1.Trips > 0 && safext1.Trips > 0 &&
		ebpf1.Recovered > 0 && safext1.Recovered > 0 &&
		ebpf1.Denied > 0 && safext1.Denied > 0
	injected := ebpf1.Injected > 0 && safext1.Injected > 0
	// The stacks' containment asymmetry: only the safext runtime has
	// fuel/watchdog nets for the jitter sites to bite, so it must contain
	// strictly more faults than the verified stack, whose only failure
	// modes are kernel oopses or program-absorbed error returns.
	asymmetry := safext1.Contained > ebpf1.Contained

	r.Measured = fmt.Sprintf(
		"identical (seed,plan) on both stacks: ebpf oopsed=%d contained=%d, safext oopsed=%d contained=%d; both quarantined and recovered (%d/%d denials); replay reproducible=%v",
		ebpf1.Oopsed, ebpf1.Contained, safext1.Oopsed, safext1.Contained,
		ebpf1.Denied, safext1.Denied, reproducible)
	r.Holds = reproducible && supervised && injected && asymmetry
	return r
}
