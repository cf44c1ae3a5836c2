package experiments

import (
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"

	"kex/internal/exec"
	"kex/internal/faultinject"
	"kex/internal/fleet"
	"kex/internal/registry"
	"kex/internal/safext/toolchain"
)

// X5 is the operational argument at fleet scale: once extension safety is
// a signature check plus runtime containment instead of an in-kernel
// proof, upgrading a thousand machines is a distribution problem — and
// the rollout machinery (content-addressed registry, retrying transport,
// hot-swap with soak, supervisor-driven rollback) makes distribution
// problems survivable. The campaign pushes four manifest versions through
// a deliberately flaky transport: a clean rolling upgrade, a bad build
// that every node trips and rolls back on its own, and a revoked digest
// that refuses to load anywhere. Steady traffic runs throughout and not
// one invocation may be dropped.
const (
	x5Nodes = 1000
	x5Seed  = 0x5EED5
)

const (
	x5SLXv1 = `fn main() -> i64 { return 1; }`
	x5SLXv2 = `fn main() -> i64 { return 2; }`
	// The bad build traps deterministically: the node supervisor trips it
	// during the post-swap soak and the hot-swap slot cuts back.
	x5SLXBad = `fn main() -> i64 { trap; return 0; }`
	x5SLXv4  = `fn main() -> i64 { return 4; }`
)

// X5Stats is the campaign's machine-readable summary; the benchmark
// family persists it to BENCH_fleet.json.
type X5Stats struct {
	Nodes              int     `json:"nodes"`
	Swaps              int     `json:"swaps"`
	Rollbacks          int     `json:"rollbacks"`
	RefusedLoads       int     `json:"refused_loads"`
	StaleSyncs         int     `json:"stale_syncs"`
	Retries            int     `json:"transport_retries"`
	Timeouts           int     `json:"transport_timeouts"`
	TransportErrors    int     `json:"transport_errors"`
	Submitted          int64   `json:"submitted"`
	Answered           int64   `json:"answered"`
	SwapWallNsMean     float64 `json:"swap_wall_ns_mean"`
	SwapWallNsMax      int64   `json:"swap_wall_ns_max"`
	RollbackWallNsMean float64 `json:"rollback_wall_ns_mean"`
	RollbackWallNsMax  int64   `json:"rollback_wall_ns_max"`
}

// x5NodeConfig trips fast on a bad build and holds it down for the rest
// of the campaign.
func x5NodeConfig(keys *toolchain.Signer) fleet.NodeConfig {
	cfg := fleet.DefaultNodeConfig()
	cfg.Soak = exec.SoakConfig{Runs: 16}
	cfg.Supervisor.Window = 8
	cfg.Supervisor.TripThreshold = 2
	cfg.ToolchainKeys = append(cfg.ToolchainKeys, keys.PublicKey())
	return cfg
}

// x5Transport wraps the registry in seed-deterministic flakiness: a
// bounded burst of request errors plus a few hangs that must die at the
// per-request timeout, both absorbed by node retry/backoff early in the
// campaign.
func x5Transport(r *registry.Registry) fleet.Transport {
	inj := faultinject.New(x5Seed, faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteTransportError, Prob: 0.04, Max: 64},
		{Site: faultinject.SiteTransportHang, Match: "fetch", Prob: 0.01, Max: 8},
	}})
	return fleet.Faulty{Inner: fleet.Direct{R: r}, Inj: inj}
}

func x5Publish(signer *toolchain.Signer, r *registry.Registry, src string) (string, error) {
	so, err := signer.BuildAndSign("fw", src)
	if err != nil {
		return "", err
	}
	digest := r.Put(registry.KindSLXO, registry.EncodeSignedObject(so))
	if _, err := r.Publish("policy", []registry.Entry{
		{Name: "fw", Kind: registry.KindSLXO, Digest: digest},
	}); err != nil {
		return "", err
	}
	return digest, nil
}

// x5Converged checks the fleet's convergence histogram is a single bar.
func x5Converged(f *fleet.Fleet, digest string, nodes int) error {
	hist := f.Totals().ServingDigest
	if hist[digest] != nodes {
		return fmt.Errorf("fleet not converged on %.8s: histogram %v", digest, hist)
	}
	return nil
}

// x5Latency summarises per-node swap or rollback wall latencies.
func x5Latency(f *fleet.Fleet, pick func(*exec.SwapReport) int64) (mean float64, max int64, err error) {
	var sum int64
	n := 0
	for _, node := range f.Nodes() {
		rep := node.LastSwap()
		if rep == nil {
			return 0, 0, fmt.Errorf("node %d has no swap report", node.ID)
		}
		v := pick(rep)
		if v <= 0 {
			return 0, 0, fmt.Errorf("node %d reports non-positive latency %d", node.ID, v)
		}
		sum += v
		if v > max {
			max = v
		}
		n++
	}
	return float64(sum) / float64(n), max, nil
}

// X5Rollout runs the campaign at a chosen fleet size and returns both the
// rendered result and the raw figures.
func X5Rollout(nodes int) (*Result, X5Stats) {
	r := &Result{
		ID:    "X5",
		Title: fmt.Sprintf("fleet rollout: signed registry, hot-swap, auto-rollback across %d nodes", nodes),
		PaperClaim: "the alternative to in-kernel proof is operational: sign at build time, " +
			"check at load time, contain at runtime — and recover by rollback, not by reboot (§3, §5)",
	}
	var st X5Stats
	st.Nodes = nodes

	// The toolchain key comes from the campaign seed, so the manifest
	// digests repeat from run to run.
	var keySeed [ed25519.SeedSize]byte
	binary.LittleEndian.PutUint64(keySeed[:], x5Seed)
	signer := toolchain.NewSignerFromSeed(keySeed)
	reg := registry.New(x5Seed)
	d1, err := x5Publish(signer, reg, x5SLXv1)
	if err != nil {
		r.Measured = "publish v1: " + err.Error()
		return r, st
	}

	ctx := context.Background()
	f := fleet.New(x5Transport(reg), fleet.Config{
		Nodes: nodes, Bundle: "policy", Seed: x5Seed, Node: x5NodeConfig(signer),
	})
	defer f.Close()

	fail := func(format string, args ...any) (*Result, X5Stats) {
		r.Measured = fmt.Sprintf(format, args...)
		return r, st
	}

	// Phase 1: initial rollout through the flaky transport.
	if ok, errs := f.SyncAll(ctx); ok != nodes {
		return fail("initial rollout: %d/%d nodes synced (first err: %v)", ok, nodes, errs[0])
	}
	if err := x5Converged(f, d1, nodes); err != nil {
		return fail("initial rollout: %v", err)
	}
	f.DriveAll(ctx, 2, 16)

	// Phase 2: rolling upgrade to v2 under steady traffic, after a signing
	// key rotation — new artifacts arrive under the new key, already-loaded
	// ones stay valid.
	reg.Rotate()
	d2, err := x5Publish(signer, reg, x5SLXv2)
	if err != nil {
		return fail("publish v2: %v", err)
	}
	if ok, errs := f.SyncAll(ctx); ok != nodes {
		return fail("upgrade rollout: %d/%d nodes synced (first err: %v)", ok, nodes, errs[0])
	}
	if err := x5Converged(f, d2, nodes); err != nil {
		return fail("upgrade rollout: %v", err)
	}
	swapMean, swapMax, err := x5Latency(f, func(rep *exec.SwapReport) int64 { return rep.SwapWallNs })
	if err != nil {
		return fail("swap latency: %v", err)
	}
	f.DriveAll(ctx, 2, 16)

	// Phase 3: bad build. Every node swaps in the trapping version, trips
	// it during soak, and rolls itself back to d2 — no operator in the loop.
	d3, err := x5Publish(signer, reg, x5SLXBad)
	if err != nil {
		return fail("publish v3: %v", err)
	}
	if ok, errs := f.SyncAll(ctx); ok != nodes {
		return fail("bad-build rollout: %d/%d nodes synced (first err: %v)", ok, nodes, errs[0])
	}
	if err := x5Converged(f, d2, nodes); err != nil {
		return fail("bad-build rollback: %v", err)
	}
	rbMean, rbMax, err := x5Latency(f, func(rep *exec.SwapReport) int64 { return rep.RollbackWallNs })
	if err != nil {
		return fail("rollback latency: %v", err)
	}
	f.DriveAll(ctx, 2, 16)

	// Phase 4: revoked digest. The registry refuses to serve it and every
	// node's verifier independently refuses to load it; the fleet keeps
	// serving d2.
	d4, err := x5Publish(signer, reg, x5SLXv4)
	if err != nil {
		return fail("publish v4: %v", err)
	}
	reg.RevokeDigest(d4)
	refusedBefore := f.Totals().RefusedLoads
	if ok, _ := f.SyncAll(ctx); ok != 0 {
		return fail("revoked rollout: %d nodes loaded a revoked digest", ok)
	}
	if err := x5Converged(f, d2, nodes); err != nil {
		return fail("revoked rollout: %v", err)
	}

	f.FlushAll()
	tot := f.Totals()
	st.Swaps = tot.Swaps
	st.Rollbacks = tot.Rollbacks
	st.RefusedLoads = tot.RefusedLoads
	st.StaleSyncs = tot.StaleSyncs
	st.Retries = tot.Retries
	st.Timeouts = tot.Timeouts
	st.TransportErrors = tot.TransportErrors
	st.Submitted = tot.Submitted
	st.Answered = tot.Answered
	st.SwapWallNsMean, st.SwapWallNsMax = swapMean, swapMax
	st.RollbackWallNsMean, st.RollbackWallNsMax = rbMean, rbMax

	refused := tot.RefusedLoads - refusedBefore
	r.Lines = append(r.Lines,
		fmt.Sprintf("fleet: %d nodes, seed=%#x, flaky transport (%d retries, %d timeouts, %d injected errors)",
			nodes, uint64(x5Seed), tot.Retries, tot.Timeouts, tot.TransportErrors),
		fmt.Sprintf("v1 %.8s: rollout converged %d/%d", d1, nodes, nodes),
		fmt.Sprintf("v2 %.8s: rolling upgrade after key rotation, swap wall mean %.0fus max %.0fus",
			d2, swapMean/1e3, float64(swapMax)/1e3),
		fmt.Sprintf("v3 %.8s: bad build tripped on every node, rollback wall mean %.0fus max %.0fus, fleet back on %.8s",
			d3, rbMean/1e3, float64(rbMax)/1e3, d2),
		fmt.Sprintf("v4 %.8s: revoked, refused by %d/%d nodes, fleet still on %.8s", d4, refused, nodes, d2),
		fmt.Sprintf("traffic: %d submitted, %d answered, %d dropped", tot.Submitted, tot.Answered,
			tot.Submitted-tot.Answered),
	)

	// Bounded rollback: trip-to-converged must be milliseconds per node,
	// not a reboot. The 5s bar is deliberately loose for busy CI machines —
	// typical figures are microseconds.
	const rollbackBoundNs = 5e9
	zeroDropped := tot.Submitted > 0 && tot.Answered == tot.Submitted
	r.Measured = fmt.Sprintf(
		"%d nodes: clean upgrade + autonomous rollback (%d/%d) + revocation refusal (%d/%d), "+
			"%d/%d invocations answered, rollback wall max %.2fms",
		nodes, tot.Rollbacks, nodes, refused, nodes, tot.Answered, tot.Submitted, float64(rbMax)/1e6)
	r.Holds = zeroDropped &&
		tot.Rollbacks == nodes &&
		refused == nodes &&
		rbMax < rollbackBoundNs
	return r, st
}

// X5FleetRollout runs the full 1000-node campaign.
func X5FleetRollout() *Result {
	r, _ := X5Rollout(x5Nodes)
	return r
}
