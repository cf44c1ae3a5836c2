package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"kex/internal/exec"
	"kex/internal/faultinject"
	"kex/internal/registry"
	"kex/internal/safext/compile"
	"kex/internal/safext/toolchain"
)

const (
	slxV1  = `fn main() -> i64 { return 1; }`
	slxV2  = `fn main() -> i64 { return 2; }`
	slxBad = `fn main() -> i64 { trap; return 0; }`
)

// harness is one test campaign: a registry, a toolchain identity, and a
// node config trusting it.
type harness struct {
	reg    *registry.Registry
	signer *toolchain.Signer
	node   NodeConfig
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	signer, err := toolchain.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultNodeConfig()
	cfg.Timeout = 2 * time.Millisecond
	cfg.Retries = 3
	cfg.BackoffBase = 100 * time.Microsecond
	cfg.Soak = 8
	cfg.Supervisor.TripThreshold = 2
	cfg.Supervisor.Window = 8
	cfg.ToolchainKeys = append(cfg.ToolchainKeys, signer.PublicKey())
	return &harness{reg: registry.New(0xF1EE7), signer: signer, node: cfg}
}

// publish compiles, signs, stores and publishes one single-program bundle
// version, returning its digest.
func (h *harness) publish(t *testing.T, bundle, src string) string {
	t.Helper()
	so, err := h.signer.BuildAndSign("fw", src)
	if err != nil {
		t.Fatal(err)
	}
	digest := h.reg.Put(registry.KindSLXO, registry.EncodeSignedObject(so))
	if _, err := h.reg.Publish(bundle, []registry.Entry{
		{Name: "fw", Kind: registry.KindSLXO, Digest: digest},
	}); err != nil {
		t.Fatal(err)
	}
	return digest
}

// switchTr is a transport whose backend the test can swap mid-campaign —
// the "network got flaky after the first rollout" scenario.
type switchTr struct {
	mu sync.Mutex
	t  Transport
}

func (s *switchTr) set(t Transport) {
	s.mu.Lock()
	s.t = t
	s.mu.Unlock()
}

func (s *switchTr) get() Transport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t
}

func (s *switchTr) Manifest(ctx context.Context, bundle string) (*registry.SignedManifest, error) {
	return s.get().Manifest(ctx, bundle)
}
func (s *switchTr) Fetch(ctx context.Context, digest string) (*registry.Blob, error) {
	return s.get().Fetch(ctx, digest)
}
func (s *switchTr) Keys(ctx context.Context) ([]registry.Key, error) {
	return s.get().Keys(ctx)
}
func (s *switchTr) Revocations(ctx context.Context) (registry.Revocations, error) {
	return s.get().Revocations(ctx)
}

// expectDigests asserts every node serves the wanted digest.
func expectDigests(t *testing.T, f *Fleet, want string) {
	t.Helper()
	tot := f.Totals()
	if tot.ServingDigest[want] != len(f.Nodes()) {
		t.Fatalf("convergence histogram = %v, want all %d nodes on %s",
			tot.ServingDigest, len(f.Nodes()), want)
	}
}

// expectZeroDropped asserts the fleet answered every submitted invocation.
func expectZeroDropped(t *testing.T, f *Fleet) {
	t.Helper()
	f.FlushAll()
	tot := f.Totals()
	if tot.Answered != tot.Submitted {
		t.Fatalf("answered %d != submitted %d: invocations dropped", tot.Answered, tot.Submitted)
	}
	if tot.Submitted == 0 {
		t.Fatal("no traffic flowed")
	}
}

func TestFleetCleanRollingUpgrade(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	d1 := h.publish(t, "policy", slxV1)
	f := New(Direct{R: h.reg}, Config{Nodes: 6, Bundle: "policy", Seed: 42, Node: h.node})
	defer f.Close()

	if ok, errs := f.SyncAll(ctx); ok != 6 {
		t.Fatalf("initial sync: %d ok, errs %v", ok, errs)
	}
	expectDigests(t, f, d1)
	f.DriveAll(ctx, 4, 8)

	d2 := h.publish(t, "policy", slxV2)
	if ok, errs := f.SyncAll(ctx); ok != 6 {
		t.Fatalf("upgrade sync: %d ok, errs %v", ok, errs)
	}
	expectDigests(t, f, d2)
	f.DriveAll(ctx, 4, 8)
	expectZeroDropped(t, f)

	tot := f.Totals()
	if tot.Swaps != 6 || tot.Rollbacks != 0 {
		t.Fatalf("swaps = %d, rollbacks = %d; want 6, 0", tot.Swaps, tot.Rollbacks)
	}
	// Per-version supervision: each node's swap report carries both digests.
	for _, n := range f.Nodes() {
		rep := n.LastSwap()
		if rep == nil || rep.From != d1 || rep.To != d2 {
			t.Fatalf("node %d swap report = %+v", n.ID, rep)
		}
	}
}

func TestFleetAutoRollbackOnBadVersion(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	d1 := h.publish(t, "policy", slxV1)
	f := New(Direct{R: h.reg}, Config{Nodes: 6, Bundle: "policy", Seed: 42, Node: h.node})
	defer f.Close()
	if ok, _ := f.SyncAll(ctx); ok != 6 {
		t.Fatal("initial sync failed")
	}

	d2 := h.publish(t, "policy", slxBad)
	if ok, errs := f.SyncAll(ctx); ok != 6 {
		// A rollback is a successful sync: the node converged, backwards.
		t.Fatalf("bad-version sync: %d ok, errs %v", ok, errs)
	}
	// Every node tripped on the trapping version and cut back to d1.
	expectDigests(t, f, d1)
	tot := f.Totals()
	if tot.Rollbacks != 6 {
		t.Fatalf("rollbacks = %d, want 6", tot.Rollbacks)
	}
	for _, n := range f.Nodes() {
		rep := n.LastSwap()
		if rep == nil || !rep.RolledBack || rep.To != d2 {
			t.Fatalf("node %d swap report = %+v, want rollback of %s", n.ID, rep, d2)
		}
		if st := n.Supervisor().State("fw@" + d2[:8]); st != exec.StateQuarantined {
			t.Fatalf("node %d bad version state = %v, want quarantined", n.ID, st)
		}
	}
	// The fleet keeps serving across the failed rollout.
	f.DriveAll(ctx, 4, 8)
	expectZeroDropped(t, f)
}

// TestFleetPerVersionStatsRows drives a clean upgrade and then a rollback
// and requires every version's traffic in its own name@digest stats row:
// on each node those rows together answer for every invocation the node
// answered, the bad version's row holds its own runs and faults, and the
// row of the bare program name, which the load made, holds no runs. Each
// version row also carries its own build's check counts, which differ
// between the versions.
func TestFleetPerVersionStatsRows(t *testing.T) {
	const (
		v1 = `fn main() -> i64 { let t: i64 = kernel::ktime(); return 1 + (t - t) / (t + 1) + (t - t) / (t + 2); }`
		v2 = `fn main() -> i64 { let t: i64 = kernel::ktime(); return 2 + (t - t) / (t + 1); }`
	)
	h := newHarness(t)
	ctx := context.Background()
	checks := map[string]compile.CheckStats{}
	publish := func(src string) string {
		digest := h.publish(t, "policy", src)
		so, err := h.signer.BuildAndSign("fw", src)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := toolchain.Deserialize(so.Payload)
		if err != nil {
			t.Fatal(err)
		}
		checks["fw@"+digest[:8]] = obj.Checks
		return digest
	}
	publish(v1)
	f := New(Direct{R: h.reg}, Config{Nodes: 2, Bundle: "policy", Seed: 42, Node: h.node})
	defer f.Close()
	if ok, errs := f.SyncAll(ctx); ok != 2 {
		t.Fatalf("initial sync: %d ok, errs %v", ok, errs)
	}
	f.DriveAll(ctx, 4, 8)
	publish(v2)
	if ok, errs := f.SyncAll(ctx); ok != 2 {
		t.Fatalf("upgrade sync: %d ok, errs %v", ok, errs)
	}
	f.DriveAll(ctx, 4, 8)
	bad := publish(slxBad)
	seen := map[[2]int]bool{}
	for _, cs := range checks {
		seen[[2]int{cs.Emitted(), cs.Elided()}] = true
	}
	if len(seen) != len(checks) {
		t.Fatalf("the versions' builds share check counts %v; the rows could not tell them apart", checks)
	}
	if ok, errs := f.SyncAll(ctx); ok != 2 {
		t.Fatalf("bad-version sync: %d ok, errs %v", ok, errs)
	}
	f.DriveAll(ctx, 4, 8)
	f.FlushAll()
	if tot := f.Totals(); tot.Swaps != 4 || tot.Rollbacks != 2 {
		t.Fatalf("swaps = %d, rollbacks = %d; want 4, 2", tot.Swaps, tot.Rollbacks)
	}

	for _, n := range f.Nodes() {
		rows := n.Runtime().Core.Stats.Snapshot().Programs
		var answered uint64
		versions := 0
		for name, ps := range rows {
			if strings.HasPrefix(name, "fw@") {
				answered += ps.Invocations + ps.Denied
				versions++
			}
		}
		if versions != 3 {
			t.Fatalf("node %d has %d version rows, want 3: %v", n.ID, versions, rows)
		}
		if want := uint64(n.Stats().Answered); answered != want {
			t.Fatalf("node %d: version rows account for %d invocations, node answered %d", n.ID, answered, want)
		}
		if b := rows["fw@"+bad[:8]]; b.Invocations == 0 || b.Faults == 0 || b.Errors != b.Faults {
			t.Fatalf("node %d bad version row = %+v, want its own runs with Errors == Faults > 0", n.ID, b)
		}
		for name, cs := range checks {
			if r := rows[name]; r.DynamicChecks != uint64(cs.Emitted()) || r.ElidedChecks != uint64(cs.Elided()) {
				t.Fatalf("node %d row %s checks = %d dynamic, %d elided; its build has %d, %d",
					n.ID, name, r.DynamicChecks, r.ElidedChecks, cs.Emitted(), cs.Elided())
			}
		}
		if fw := rows["fw"]; fw.Invocations != 0 || fw.Errors != 0 || fw.Instructions != 0 ||
			fw.WallNs != 0 || fw.Faults != 0 || fw.Denied != 0 {
			t.Fatalf("node %d program row fw holds run counters: %+v", n.ID, fw)
		}
	}
}

func TestFleetFlakyTransportDegradesToStale(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	d1 := h.publish(t, "policy", slxV1)
	tr := &switchTr{}
	tr.set(Direct{R: h.reg})
	f := New(tr, Config{Nodes: 6, Bundle: "policy", Seed: 42, Node: h.node})
	defer f.Close()
	if ok, _ := f.SyncAll(ctx); ok != 6 {
		t.Fatal("initial sync failed")
	}

	// Total registry outage: every manifest request fails even after
	// retries. Nodes must degrade to the stale-but-valid version, not stop
	// serving.
	h.publish(t, "policy", slxV2)
	inj := faultinject.New(7, faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteTransportError, Match: "manifest", Prob: 1},
	}})
	tr.set(Faulty{Inner: Direct{R: h.reg}, Inj: inj})
	ok, errs := f.SyncAll(ctx)
	if ok != 0 {
		t.Fatalf("sync through a dead registry: %d nodes claim success", ok)
	}
	for _, err := range errs {
		if !errors.Is(err, faultinject.ErrTransport) {
			t.Fatalf("outage error = %v, want ErrTransport", err)
		}
	}
	expectDigests(t, f, d1)
	f.DriveAll(ctx, 4, 8)
	expectZeroDropped(t, f)
	tot := f.Totals()
	if tot.StaleSyncs != 6 {
		t.Fatalf("stale syncs = %d, want 6", tot.StaleSyncs)
	}
	if tot.Retries == 0 {
		t.Fatal("no retries under a dead registry")
	}

	// Registry heals: the held-back upgrade lands.
	tr.set(Direct{R: h.reg})
	if ok, errs := f.SyncAll(ctx); ok != 6 {
		t.Fatalf("post-outage sync: %d ok, errs %v", ok, errs)
	}
}

func TestFleetTransportHangHitsTimeoutThenRecovers(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	h.publish(t, "policy", slxV1)
	// The first few fetches hang until the per-request deadline; retries
	// then go through. Every node still converges.
	inj := faultinject.New(7, faultinject.Plan{Rules: []faultinject.Rule{
		{Site: faultinject.SiteTransportHang, Match: "fetch", Prob: 1, Max: 2},
	}})
	f := New(Faulty{Inner: Direct{R: h.reg}, Inj: inj}, Config{
		Nodes: 4, Bundle: "policy", Seed: 42, Node: h.node,
	})
	defer f.Close()
	if ok, errs := f.SyncAll(ctx); ok != 4 {
		t.Fatalf("sync through hangs: %d ok, errs %v", ok, errs)
	}
	tot := f.Totals()
	if tot.Timeouts == 0 {
		t.Fatal("no request hit the per-request timeout despite hang injection")
	}
	if got := inj.CountBySite()[faultinject.SiteTransportHang]; got != 2 {
		t.Fatalf("hang injections = %d, want 2", got)
	}
}

func TestFleetRevokedDigestRefusesToLoad(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	d1 := h.publish(t, "policy", slxV1)
	f := New(Direct{R: h.reg}, Config{Nodes: 4, Bundle: "policy", Seed: 42, Node: h.node})
	defer f.Close()
	if ok, _ := f.SyncAll(ctx); ok != 4 {
		t.Fatal("initial sync failed")
	}

	d2 := h.publish(t, "policy", slxV2)
	h.reg.RevokeDigest(d2)
	ok, errs := f.SyncAll(ctx)
	if ok != 0 {
		t.Fatalf("%d nodes loaded a revoked artifact", ok)
	}
	for _, err := range errs {
		if !errors.Is(err, registry.ErrRevoked) {
			t.Fatalf("revocation error = %v, want ErrRevoked", err)
		}
	}
	expectDigests(t, f, d1)
	tot := f.Totals()
	if tot.RefusedLoads != 4 {
		t.Fatalf("refused loads = %d, want 4", tot.RefusedLoads)
	}
}

func TestFleetTamperedArtifactRefusesToLoad(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	d1 := h.publish(t, "policy", slxV1)
	f := New(Direct{R: h.reg}, Config{Nodes: 4, Bundle: "policy", Seed: 42, Node: h.node})
	defer f.Close()
	if ok, _ := f.SyncAll(ctx); ok != 4 {
		t.Fatal("initial sync failed")
	}

	d2 := h.publish(t, "policy", slxV2)
	if err := h.reg.Corrupt(d2); err != nil {
		t.Fatal(err)
	}
	ok, errs := f.SyncAll(ctx)
	if ok != 0 {
		t.Fatalf("%d nodes loaded a tampered artifact", ok)
	}
	for _, err := range errs {
		if !errors.Is(err, registry.ErrTampered) {
			t.Fatalf("tamper error = %v, want ErrTampered", err)
		}
		if !strings.Contains(err.Error(), "refused") {
			t.Fatalf("tamper error does not say refused: %v", err)
		}
	}
	expectDigests(t, f, d1)
}
