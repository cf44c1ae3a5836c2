package exec_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"kex/internal/ebpf"
	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

// gateConfig trips a program on its third fault and keeps it quarantined
// for the rest of a test: the backoff never expires, so no probe runs.
var gateConfig = exec.SupervisorConfig{
	Window:        8,
	TripThreshold: 3,
	BaseBackoffNs: 1 << 40,
	MaxBackoffNs:  1 << 41,
}

// flakyEngine faults while fail is set.
type flakyEngine struct{ fail *atomic.Bool }

func (e flakyEngine) Name() string { return "flaky" }
func (e flakyEngine) Run(env *helpers.Env, _ interp.Options) (uint64, error) {
	env.Ctx.Tick(1)
	if e.fail.Load() {
		return 0, errors.New("injected fault")
	}
	return 1, nil
}

// dispatch sends one invocation of program "p" through an entry point,
// faulting it when fault is set, and returns the supervision outcome its
// caller sees.
type dispatch func(fault bool) string

// flakyCore is a fresh core with an engine whose faults dispatch toggles.
func flakyCore(run func(c *exec.Core, eng exec.Engine) string) (*exec.Core, dispatch) {
	c := exec.NewCore(kernel.NewDefault(), helpers.NewRegistry(), maps.NewRegistry())
	eng := flakyEngine{fail: new(atomic.Bool)}
	return c, func(fault bool) string {
		eng.fail.Store(fault)
		return run(c, eng)
	}
}

// submit runs one request of p through a sharded plane and waits for it.
func submit(t *testing.T, sh *exec.Sharded, p *exec.Program, eng exec.Engine) string {
	var got string
	b := exec.Batch{Engine: eng, Reqs: []exec.Request{{Program: p}}, Done: func(rs []exec.BatchResult) {
		got = rs[0].Report.Supervision
	}}
	if err := sh.SubmitWait(0, b); err != nil {
		t.Fatal(err)
	}
	sh.Flush()
	return got
}

// TestGateEntryPoints trips program "p" through each way of dispatching it
// and requires the next dispatch to be denied at the supervisor's gate
// without reaching the engine.
func TestGateEntryPoints(t *testing.T) {
	cases := []struct {
		name string
		// setup boots a core, installs the supervisor with supervise
		// (before or after building the entry point, as the case says)
		// and returns the core and a dispatch through the entry point.
		setup func(t *testing.T, supervise func(*exec.Core)) (*exec.Core, dispatch)
	}{
		{"Core.Run", func(t *testing.T, supervise func(*exec.Core)) (*exec.Core, dispatch) {
			c, d := flakyCore(func(c *exec.Core, eng exec.Engine) string {
				rep, _ := c.Run(eng, exec.Request{Program: c.Program("p")}, nil)
				return rep.Supervision
			})
			supervise(c)
			return c, d
		}},
		{"Core.RunBatch", func(t *testing.T, supervise func(*exec.Core)) (*exec.Core, dispatch) {
			c, d := flakyCore(func(c *exec.Core, eng exec.Engine) string {
				return c.RunBatch(eng, 0, []exec.Request{{Program: c.Program("p")}}, nil)[0].Report.Supervision
			})
			supervise(c)
			return c, d
		}},
		{"Sharded.SubmitWait", func(t *testing.T, supervise func(*exec.Core)) (*exec.Core, dispatch) {
			var sh *exec.Sharded
			c, d := flakyCore(func(c *exec.Core, eng exec.Engine) string { return submit(t, sh, c.Program("p"), eng) })
			supervise(c)
			sh = c.NewSharded(exec.ShardedConfig{Shards: 2})
			t.Cleanup(sh.Close)
			return c, d
		}},
		{"HotSwap.Submit", func(t *testing.T, supervise func(*exec.Core)) (*exec.Core, dispatch) {
			c := exec.NewCore(kernel.NewDefault(), helpers.NewRegistry(), maps.NewRegistry())
			supervise(c)
			sh := c.NewSharded(exec.ShardedConfig{Shards: 2})
			t.Cleanup(sh.Close)
			eng := flakyEngine{fail: new(atomic.Bool)}
			var got string
			hs := exec.NewHotSwap(sh, exec.Version{Digest: "d", Program: c.Program("p"), Engine: eng,
				Make: func(n int) ([]exec.Request, func([]exec.BatchResult)) {
					reqs := make([]exec.Request, n)
					for i := range reqs {
						reqs[i].Program = c.Program("p")
					}
					return reqs, func(rs []exec.BatchResult) { got = rs[0].Report.Supervision }
				},
			})
			return c, func(fault bool) string {
				eng.fail.Store(fault)
				if err := hs.Submit(context.Background(), 0, 1); err != nil {
					t.Fatal(err)
				}
				sh.Flush()
				return got
			}
		}},
		{"Loaded.Run", func(t *testing.T, supervise func(*exec.Core)) (*exec.Core, dispatch) {
			s, l := loadBPF(t, supervise)
			return s.Core, func(fault bool) string {
				rep, _ := l.Run(bpfOptions(fault))
				return rep.Supervision
			}
		}},
		{"Loaded.RunBatch", func(t *testing.T, supervise func(*exec.Core)) (*exec.Core, dispatch) {
			s, l := loadBPF(t, supervise)
			return s.Core, func(fault bool) string {
				return l.RunBatch(0, []ebpf.RunOptions{bpfOptions(fault)})[0].Report.Supervision
			}
		}},
		{"Extension.Run", func(t *testing.T, supervise func(*exec.Core)) (*exec.Core, dispatch) {
			rt := runtime.New(kernel.NewDefault(), runtime.DefaultConfig())
			signer, err := toolchain.NewSigner()
			if err != nil {
				t.Fatal(err)
			}
			rt.AddKey(signer.PublicKey())
			so, err := signer.BuildAndSign("p", "fn main() -> i64 { return 1; }")
			if err != nil {
				t.Fatal(err)
			}
			supervise(rt.Core)
			ext, err := rt.Load(so)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ext.Close)
			return rt.Core, func(fault bool) string {
				// A 1 ns watchdog kills the run at its exit.
				rt.Cfg.WatchdogNs = runtime.DefaultConfig().WatchdogNs
				if fault {
					rt.Cfg.WatchdogNs = 1
				}
				v, err := ext.Run(runtime.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if v.Reason == "quarantined" {
					return "denied"
				}
				return v.Reason
			}
		}},
		{"Sharded plane built before Supervise", func(t *testing.T, supervise func(*exec.Core)) (*exec.Core, dispatch) {
			var sh *exec.Sharded
			c, d := flakyCore(func(c *exec.Core, eng exec.Engine) string { return submit(t, sh, c.Program("p"), eng) })
			sh = c.NewSharded(exec.ShardedConfig{Shards: 2})
			t.Cleanup(sh.Close)
			supervise(c)
			return c, d
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sup *exec.Supervisor
			c, d := tc.setup(t, func(c *exec.Core) { sup = c.Supervise(gateConfig) })
			for i := 0; i < gateConfig.TripThreshold; i++ {
				if got := d(true); got == "denied" {
					t.Fatalf("faulting dispatch %d was denied", i)
				}
			}
			if st := sup.State("p"); st != exec.StateQuarantined {
				t.Fatalf("state after %d faults = %s, want quarantined", gateConfig.TripThreshold, st)
			}
			before := c.Stats.Snapshot().Programs["p"]
			if got := d(false); got != "denied" {
				t.Fatalf("dispatch after the trip = %q, want denied", got)
			}
			after := c.Stats.Snapshot().Programs["p"]
			if after.Invocations != before.Invocations || after.Denied != before.Denied+1 {
				t.Fatalf("invocations %d -> %d, denied %d -> %d: want the engine not called and one denial",
					before.Invocations, after.Invocations, before.Denied, after.Denied)
			}
		})
	}
}

// loadBPF loads program "p" on a supervised eBPF stack.
func loadBPF(t *testing.T, supervise func(*exec.Core)) (*ebpf.Stack, *ebpf.Loaded) {
	s := ebpf.NewStack(kernel.NewDefault())
	supervise(s.Core)
	l, err := s.Load(&isa.Program{Name: "p", Type: isa.Tracing, Insns: []isa.Instruction{
		isa.Mov64Imm(isa.R0, 0),
		isa.Exit(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return s, l
}

// bpfOptions makes a run of "p" fault by giving it too little fuel.
func bpfOptions(fault bool) ebpf.RunOptions {
	if fault {
		return ebpf.RunOptions{Fuel: 1}
	}
	return ebpf.RunOptions{}
}
