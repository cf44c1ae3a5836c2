// kexload drives the safext pipeline end to end from the command line:
// compile an SLX source file with the trusted toolchain, sign it, load it
// into a fresh simulated kernel (signature check + fixup, no verifier) and
// invoke it.
//
// Usage:
//
//	kexload ext.slx              build, sign, load, run once
//	kexload -n 5 ext.slx         run five invocations
//	kexload -opt 2 ext.slx       build at optimization level 2 (MIR backend)
//	kexload -opt 2 -tv strict ext.slx   fail the build if validation demoted it
//	kexload -opt 2 -dump-mir -build-only ext.slx   inspect the mid-level IR
//	kexload -build-only ext.slx  compile and print object info, don't run
//	kexload -deny pkt_write_u8 ext.slx   signing policy denies a capability
//	kexload -n 1000 -shards 4 -batch 32 ext.slx   sharded batched submission
//	kexload -shards 4 -conc strict ext.slx   refuse shard-unsafe programs
//	kexload -shards 4 -conc warn ext.slx     demote them to one shard, counted
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"kex/internal/exec"
	"kex/internal/safext/compile"
	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
	"kex/pkg/kex"
)

type denyFlags []string

func (d *denyFlags) String() string     { return strings.Join(*d, ",") }
func (d *denyFlags) Set(s string) error { *d = append(*d, s); return nil }

func main() {
	n := flag.Int("n", 1, "number of invocations")
	buildOnly := flag.Bool("build-only", false, "compile and report, do not run")
	fuel := flag.Uint64("fuel", 0, "fuel limit (0 = config default)")
	watchdog := flag.Int64("watchdog-ms", 0, "watchdog in virtual ms (0 = config default)")
	shards := flag.Int("shards", 1, "simulated CPUs to spread invocations across (1 = serial)")
	batch := flag.Int("batch", 16, "invocations per submitted batch in sharded mode")
	opt := flag.Int("opt", 0, "optimization level: 0 naive, 1 analyzer elision, 2 MIR optimizer passes")
	dumpMIR := flag.Bool("dump-mir", false, "print the mid-level IR before and after optimization (with -opt 2)")
	tv := flag.String("tv", "on", "translation validation mode with -opt 2: on (demote on failure), strict (exit nonzero on demotion)")
	concFlag := flag.String("conc", "off", "shard-safety enforcement: off, warn (serialize racy programs onto one shard), strict (refuse them on a multi-shard plane)")
	var deny denyFlags
	flag.Var(&deny, "deny", "capability the signing policy refuses (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: kexload [-n N] [-build-only] [-opt L] [-dump-mir] [-tv mode] [-conc mode] [-shards S] [-batch B] [-fuel F] [-watchdog-ms M] [-deny cap] <file.slx>")
		os.Exit(2)
	}
	concMode, err := exec.ParseConcMode(*concFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kexload:", err)
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	name := strings.TrimSuffix(flag.Arg(0), ".slx")

	if *dumpMIR {
		dump, err := toolchain.DumpMIR(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(dump)
	}

	var obj *compile.Object
	switch *opt {
	case 0:
		obj, err = toolchain.Build(name, string(src))
	case 1:
		obj, err = toolchain.BuildOptimized(name, string(src))
	case 2:
		obj, err = toolchain.BuildOptimizedMIR(name, string(src))
	default:
		fmt.Fprintf(os.Stderr, "kexload: unknown -opt level %d (want 0, 1, or 2)\n", *opt)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("compiled %q: %d instructions, %d bytes rodata, maps %d, capabilities %v\n",
		obj.Name, len(obj.Insns), len(obj.Rodata), len(obj.Maps), obj.Capabilities)
	if *opt > 0 {
		fmt.Printf("checks: %d dynamic, %d elided (static insn bound %d)\n",
			obj.Checks.Emitted(), obj.Checks.Elided(), obj.Checks.StaticInsnBound)
	}
	if *opt == 2 {
		o := obj.Opt
		fmt.Printf("mir: folded %d, hoisted %d, loads eliminated %d, dead removed %d, regs %d, spills %d\n",
			o.Folded, o.Hoisted, o.LoadsEliminated, o.DeadRemoved, o.RegAssigned, o.Spills)
		if *tv != "on" && *tv != "strict" {
			fmt.Fprintf(os.Stderr, "kexload: unknown -tv mode %q (want on or strict)\n", *tv)
			os.Exit(2)
		}
		switch cert := obj.TVal; {
		case cert == nil:
			fmt.Println("transval: no certificate")
		case cert.Demoted:
			fmt.Printf("transval: FAILED, demoted to -opt 1: %s\n", cert.Reason)
			if *tv == "strict" {
				os.Exit(1)
			}
		default:
			fmt.Printf("transval: refinement proven over %d vectors (%d bounded), %d funcs, %.2fms\n",
				cert.Vectors, cert.Bounded, len(cert.Funcs), float64(cert.WallNanos)/1e6)
		}
	}
	if cc := obj.Conc; cc != nil {
		fmt.Printf("concheck: %s, %d/%d sites proven, %.2fms\n",
			cc.Verdict, cc.Proven, cc.Sites, float64(cc.WallNanos)/1e6)
		for _, mv := range cc.Maps {
			if mv.Verdict == compile.VerdictRacy {
				fmt.Printf("concheck: map %q (%s) Racy: %s\n", mv.Map, mv.Kind, mv.Reason)
			}
		}
	}
	if *buildOnly {
		return
	}

	signer, err := toolchain.NewSigner()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	signer.Policy.DeniedCaps = deny
	so, err := signer.Sign(obj)
	if err != nil {
		fmt.Fprintln(os.Stderr, "signing:", err)
		os.Exit(1)
	}
	fmt.Printf("signed: %d-byte payload, ed25519 signature ok\n", len(so.Payload))

	kcfg := kex.DefaultKernelConfig()
	if *shards > kcfg.NumCPU {
		kcfg.NumCPU = *shards
	}
	k := kex.NewKernelWithConfig(kcfg)
	cfg := runtime.DefaultConfig()
	if *fuel > 0 {
		cfg.Fuel = *fuel
	}
	if *watchdog > 0 {
		cfg.WatchdogNs = *watchdog * 1_000_000
	}
	rt := runtime.New(k, cfg)
	rt.AddKey(signer.PublicKey())
	ext, err := rt.Load(so)
	if err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
	fmt.Printf("loaded %q (signature validated; no verifier involved)\n", ext.Name)
	if len(ext.LoadPhases) > 0 {
		fmt.Printf("load phases: %s\n", ext.LoadPhases)
	}

	if concMode == exec.ConcStrict && *shards > 1 && ext.Conc.Racy() {
		// Fail fast at load rather than on the first submission: the plane's
		// gate would refuse every batch anyway (exec.ErrShardUnsafe).
		fmt.Fprintf(os.Stderr, "load: %v: %s: %s\n", exec.ErrShardUnsafe, ext.Name, ext.Conc.Reason)
		os.Exit(1)
	}
	if *shards > 1 {
		runSharded(rt, ext, *n, *shards, *batch, concMode)
	} else {
		for i := 0; i < *n; i++ {
			v, err := ext.Run(runtime.RunOptions{})
			if err != nil {
				fmt.Fprintln(os.Stderr, "run:", err)
				os.Exit(1)
			}
			status := "completed"
			if v.Terminated {
				status = "terminated (" + v.Reason + ")"
			}
			// insns include helper-charged work; the static bound covers
			// only what the program itself retires.
			retired := fmt.Sprintf("%d retired", v.FuelUsed)
			if b := obj.Checks.StaticInsnBound; b > 0 {
				retired += fmt.Sprintf(" of static insn bound %d", b)
			}
			fmt.Printf("run %d: %s, R0=%d, %d insns (%s), %.3fms virtual, %.1fµs wall\n",
				i+1, status, v.R0, v.Instructions, retired, float64(v.RuntimeNs)/1e6, float64(v.WallNs)/1e3)
			for _, t := range v.Trace {
				fmt.Printf("  trace: %s\n", t)
			}
		}
	}
	snap := rt.Core.Stats.Snapshot()
	if ps, ok := snap.Programs[ext.Name]; ok && ps.TVDemotions > 0 {
		fmt.Printf("stats: %d translation-validation demotions (last: %s)\n",
			ps.TVDemotions, ps.LastTVDemotionReason)
	}
	if ps, ok := snap.Programs[ext.Name]; ok && ps.ConcDemotions > 0 {
		fmt.Printf("stats: %d shard-safety demotions to shard 0 (last: %s)\n",
			ps.ConcDemotions, ps.LastConcReason)
	}
	if k.Healthy() {
		fmt.Println("kernel healthy.")
	} else {
		fmt.Println("kernel oops:", k.LastOops())
	}
}

// runSharded spreads n invocations round-robin over a per-CPU sharded
// data plane, batch requests at a time, and prints an aggregate summary
// instead of per-run lines.
func runSharded(rt *kex.SafeRuntime, ext *kex.Extension, n, shards, batch int, conc exec.ConcMode) {
	if batch < 1 {
		batch = 1
	}
	sh := rt.NewSharded(kex.ShardedConfig{Shards: shards, Conc: conc})
	defer sh.Close()
	var mu sync.Mutex
	var completed, terminated int
	var insns uint64
	var runErr error
	start := time.Now()
	cpu := 0
	for remaining := n; remaining > 0; {
		count := batch
		if count > remaining {
			count = remaining
		}
		preps := make([]*runtime.Prepared, count)
		reqs := make([]exec.Request, count)
		for i := range preps {
			preps[i] = ext.Prepare(runtime.RunOptions{CPU: cpu})
			reqs[i] = preps[i].Request()
		}
		b := kex.Batch{Engine: ext.Engine(), Reqs: reqs, Reload: ext.Revalidate(),
			Done: func(results []kex.BatchResult) {
				mu.Lock()
				defer mu.Unlock()
				for i, r := range results {
					v, err := preps[i].Finish(r.Report, r.Err)
					if err != nil {
						if runErr == nil {
							runErr = err
						}
						continue
					}
					if v.Terminated {
						terminated++
					} else {
						completed++
					}
					insns += v.Instructions
				}
			}}
		if err := sh.SubmitWait(cpu, b); err != nil {
			fmt.Fprintln(os.Stderr, "submit:", err)
			os.Exit(1)
		}
		remaining -= count
		cpu = (cpu + 1) % sh.Shards()
	}
	sh.Flush()
	wall := time.Since(start)
	mu.Lock()
	defer mu.Unlock()
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "run:", runErr)
		os.Exit(1)
	}
	simSec := float64(sh.MaxBusyNs()) / 1e9
	fmt.Printf("sharded: %d runs over %d shards (batch %d): %d completed, %d terminated, %d insns\n",
		sh.Completed(), sh.Shards(), batch, completed, terminated, insns)
	if simSec > 0 {
		fmt.Printf("throughput: %.0f ops/sec simulated (makespan %.3fms), %.0f ops/sec wall (%.1fms)\n",
			float64(n)/simSec, simSec*1e3, float64(n)/wall.Seconds(), float64(wall.Nanoseconds())/1e6)
	}
}
