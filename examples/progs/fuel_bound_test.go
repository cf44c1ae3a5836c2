package progs

import (
	"testing"

	"kex/internal/kernel"
	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

// TestStaticBoundCoversFuel is the soundness oracle for the static
// instruction bound: every example program is built at each level that
// can carry a bound and run over a spread of packets with the fuel meter
// forced on, and no run may retire more instructions than the signed
// bound claims. The runtime turns the meter off whenever the bound fits
// its budget, so without this check an unsound bound would go unseen.
func TestStaticBoundCoversFuel(t *testing.T) {
	signer, err := toolchain.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	packets := [][]byte{nil, {3}, {6, 1, 187, 0}, {255, 255, 255, 255}, {0, 0, 0, 7, 9, 9, 9, 9}}
	builds := []struct {
		level string
		build func(string, string) (*toolchain.SignedObject, error)
	}{
		{"elide", signer.BuildAndSignOptimized},
		{"mir", signer.BuildAndSignOptimizedMIR},
	}
	progs := map[string]string{"profiler_buggy": ProfilerBuggy}
	for name, src := range All {
		progs[name] = src
	}
	for name, src := range progs {
		for _, b := range builds {
			so, err := b.build(name, src)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, b.level, err)
			}
			k := kernel.NewDefault()
			cfg := runtime.DefaultConfig()
			cfg.Fuel = 200_000 // the buggy profiler spins until fuel runs out
			rt := runtime.New(k, cfg)
			rt.AddKey(signer.PublicKey())
			ext, err := rt.Load(so)
			if err != nil {
				t.Fatalf("%s/%s: load: %v", name, b.level, err)
			}
			bound := ext.Checks.StaticInsnBound
			if bound <= 0 {
				continue
			}
			for round := 0; round < 3; round++ {
				for _, pkt := range packets {
					var ctx uint64
					if pkt != nil {
						skb := k.NewSKB(pkt)
						r := k.Mem.Map(32, kernel.ProtRW, "probe_ctx")
						k.Mem.StoreUint(r.Base, 8, skb.DataStart())
						k.Mem.StoreUint(r.Base+8, 8, skb.DataEnd())
						ctx = r.Base
					}
					p := ext.Prepare(runtime.RunOptions{CtxAddr: ctx})
					req := p.Request()
					req.Fuel, req.FuelElided = cfg.Fuel, false
					rep, runErr := rt.Core.Run(ext.Engine(), req, ext.Revalidate())
					used := rep.FuelUsed
					v, err := p.Finish(rep, runErr)
					if err != nil {
						t.Fatalf("%s/%s: run: %v", name, b.level, err)
					}
					if used > uint64(bound) || v.Reason == "fuel" {
						t.Errorf("%s/%s: packet %v retired %d instructions (%s), static bound %d",
							name, b.level, pkt, used, v.Reason, bound)
					}
				}
			}
		}
	}
}
