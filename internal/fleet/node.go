package fleet

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kex/internal/exec"
	"kex/internal/faultinject"
	"kex/internal/kernel"
	"kex/internal/registry"
	"kex/internal/rng"
	"kex/internal/safext/runtime"
)

// ErrNotServing reports traffic submitted to a node that has never
// completed a sync — there is no attached version to run.
var ErrNotServing = errors.New("fleet: node has no attached version")

// NodeConfig shapes one loader node.
type NodeConfig struct {
	// NumCPU sizes the node's simulated kernel and its sharded plane.
	NumCPU int
	// RingSize is the per-shard submission ring capacity.
	RingSize int
	// Timeout bounds each transport request (wall clock); a hung request
	// dies here instead of wedging the sync.
	Timeout time.Duration
	// Retries bounds re-attempts per transport request beyond the first.
	Retries int
	// BackoffBase is the first retry delay; each retry doubles it, with
	// deterministic ±25% jitter from the node's seed so a thundering herd
	// of nodes spreads out.
	BackoffBase time.Duration
	// Seed drives the node's jitter stream.
	Seed uint64
	// Soak is the post-swap observation window handed to exec.HotSwap,
	// in completed runs of the new version.
	Soak int
	// Supervisor tunes the node's circuit breaker.
	Supervisor exec.SupervisorConfig
	// Runtime tunes the safext runtime protections.
	Runtime runtime.Config
	// Conc selects shard-safety enforcement on the node's sharded plane
	// (exec.ConcMode): what happens when a pulled artifact's signed CONC
	// verdict is Racy and the node has more than one shard.
	Conc exec.ConcMode
	// ToolchainKeys are the trusted toolchain signing keys enrolled in the
	// node's kernel keyring (the §3.1 out-of-band bootstrap). The registry
	// keys arrive via the transport; these do not.
	ToolchainKeys []ed25519.PublicKey
}

// DefaultNodeConfig mirrors a small production edge node.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		NumCPU:      1,
		RingSize:    64,
		Timeout:     5 * time.Millisecond,
		Retries:     4,
		BackoffBase: 200 * time.Microsecond,
		Soak:        32,
		Supervisor: exec.SupervisorConfig{
			Window:        16,
			TripThreshold: 3,
			BaseBackoffNs: 1 << 40, // a tripped version stays down for the campaign
			MaxBackoffNs:  1 << 41,
		},
		Runtime: runtime.DefaultConfig(),
	}
}

// NodeStats counts one node's rollout life. Counter semantics: Requests is
// transport attempts (including retries); Timeouts and TransportErrors
// partition the failures; StaleSyncs counts syncs abandoned with the node
// still serving its previous version — the degraded-but-correct mode.
type NodeStats struct {
	Syncs           int
	StaleSyncs      int
	Requests        int
	Retries         int
	Timeouts        int
	TransportErrors int
	RefusedLoads    int // artifacts refused at load time: revoked, tampered, bad signature
	Swaps           int
	Rollbacks       int
	Submitted       int64
	Answered        int64
	Faulted         int64
}

// Node is one simulated loader machine: its own kernel, safext runtime,
// supervisor, sharded plane and hot-swap slot, pulling from the registry
// through a (possibly faulty) transport. A node's Sync and Close must be
// called from one goroutine at a time; Submit is safe from any.
type Node struct {
	ID  int
	cfg NodeConfig
	tr  Transport

	rt  *runtime.Runtime
	sh  *exec.Sharded
	ver *registry.Verifier

	// hs is nil until the first successful sync attaches a version.
	hs atomic.Pointer[exec.HotSwap]

	mu              sync.Mutex
	jitter          rng.Star
	manifestVersion uint64
	exts            map[string]*runtime.Extension // digest -> loaded artifact
	stats           NodeStats
	lastSwap        *exec.SwapReport

	submitted atomic.Int64
	answered  atomic.Int64
	faulted   atomic.Int64
	cpuNext   atomic.Uint64
}

// NewNode boots a loader node against a transport.
func NewNode(id int, tr Transport, cfg NodeConfig) *Node {
	if cfg.NumCPU <= 0 {
		cfg.NumCPU = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 64
	}
	kcfg := kernel.DefaultConfig()
	kcfg.NumCPU = cfg.NumCPU
	rt := runtime.New(kernel.New(kcfg), cfg.Runtime)
	for _, key := range cfg.ToolchainKeys {
		rt.AddKey(key)
	}
	rt.Supervise(cfg.Supervisor)
	n := &Node{
		ID:     id,
		cfg:    cfg,
		tr:     tr,
		rt:     rt,
		sh:     rt.NewSharded(exec.ShardedConfig{Shards: cfg.NumCPU, RingSize: cfg.RingSize, Conc: cfg.Conc}),
		ver:    registry.NewVerifier(),
		jitter: rng.Star(cfg.Seed | 1),
		exts:   make(map[string]*runtime.Extension),
	}
	return n
}

// transient reports whether a request failure is worth retrying: injected
// transport faults and deadline expiries are; trust failures (revoked,
// tampered, unknown) are permanent and must fail closed immediately.
func transient(err error) bool {
	return errors.Is(err, faultinject.ErrTransport) ||
		errors.Is(err, context.DeadlineExceeded)
}

// request runs one transport operation under the node's resilience policy:
// a per-attempt timeout, bounded retries, and jittered exponential backoff
// between attempts.
func (n *Node) request(ctx context.Context, fn func(context.Context) error) error {
	backoff := n.cfg.BackoffBase
	var err error
	for attempt := 0; attempt <= n.cfg.Retries; attempt++ {
		if attempt > 0 {
			n.mu.Lock()
			n.stats.Retries++
			// ±25% deterministic jitter, like the supervisor's backoff.
			d := backoff - backoff/4 + time.Duration(n.jitter.Next()%uint64(backoff/2+1))
			n.mu.Unlock()
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
			backoff *= 2
		}
		rctx, cancel := context.WithTimeout(ctx, n.cfg.Timeout)
		err = fn(rctx)
		cancel()
		n.mu.Lock()
		n.stats.Requests++
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				n.stats.Timeouts++
			} else {
				n.stats.TransportErrors++
			}
		}
		n.mu.Unlock()
		if err == nil || !transient(err) {
			return err
		}
	}
	return err
}

// Sync pulls the bundle's latest manifest and converges the node onto it:
// refresh trust anchors, verify the manifest, fetch + verify + load every
// member artifact, then hot-swap to the new version. Any trust failure
// refuses the artifact and leaves the node serving its current version —
// stale but valid. A supervisor trip during the soak window rolls back
// automatically; the sync still succeeds (the rollout converged, just not
// forward).
func (n *Node) Sync(ctx context.Context, bundle string) error {
	// Trust refresh first: a sync must judge the manifest against the
	// registry's current keys and kill list, not last week's.
	var keys []registry.Key
	var rev registry.Revocations
	err := n.request(ctx, func(c context.Context) error {
		var e error
		keys, e = n.tr.Keys(c)
		return e
	})
	if err == nil {
		err = n.request(ctx, func(c context.Context) error {
			var e error
			rev, e = n.tr.Revocations(c)
			return e
		})
	}
	if err != nil {
		return n.stale(fmt.Errorf("fleet: node %d trust refresh: %w", n.ID, err))
	}
	n.ver.SetKeys(keys)
	n.ver.SetRevocations(rev)

	var sm *registry.SignedManifest
	err = n.request(ctx, func(c context.Context) error {
		var e error
		sm, e = n.tr.Manifest(c, bundle)
		return e
	})
	if err != nil {
		return n.stale(fmt.Errorf("fleet: node %d manifest: %w", n.ID, err))
	}
	if err := n.ver.VerifyManifest(sm); err != nil {
		n.refused()
		return n.stale(fmt.Errorf("fleet: node %d manifest rejected: %w", n.ID, err))
	}

	n.mu.Lock()
	current := n.manifestVersion
	n.mu.Unlock()
	if sm.Manifest.Version <= current {
		n.mu.Lock()
		n.stats.Syncs++
		n.mu.Unlock()
		return nil // already converged
	}

	// Fetch, verify and load every member. The node's live program is the
	// bundle's first safext entry; eBPF entries are verified and staged.
	var live exec.Version
	haveLive := false
	for _, e := range sm.Manifest.Entries {
		ext, err := n.materialize(ctx, e)
		if err != nil {
			return n.stale(err)
		}
		if ext != nil && !haveLive {
			live = n.versionFor(e.Name, e.Digest, ext)
			haveLive = true
		}
	}
	if !haveLive {
		return n.stale(fmt.Errorf("fleet: node %d: bundle %s has no runnable safext entry", n.ID, bundle))
	}

	if err := n.apply(ctx, live); err != nil {
		return n.stale(fmt.Errorf("fleet: node %d apply: %w", n.ID, err))
	}
	n.mu.Lock()
	n.manifestVersion = sm.Manifest.Version
	n.stats.Syncs++
	n.mu.Unlock()
	return nil
}

// stale accounts one abandoned sync; the node keeps serving what it has.
func (n *Node) stale(err error) error {
	n.mu.Lock()
	n.stats.StaleSyncs++
	n.mu.Unlock()
	return err
}

func (n *Node) refused() {
	n.mu.Lock()
	n.stats.RefusedLoads++
	n.mu.Unlock()
}

// materialize fetches and loads one manifest entry, content- and
// signature-checked at every step. Returns the loaded extension for safext
// entries, nil for staged eBPF images.
func (n *Node) materialize(ctx context.Context, e registry.Entry) (*runtime.Extension, error) {
	n.mu.Lock()
	ext, cached := n.exts[e.Digest]
	n.mu.Unlock()
	if cached {
		return ext, nil
	}
	var blob *registry.Blob
	err := n.request(ctx, func(c context.Context) error {
		var fe error
		blob, fe = n.tr.Fetch(c, e.Digest)
		return fe
	})
	if err != nil {
		if errors.Is(err, registry.ErrRevoked) {
			n.refused()
		}
		return nil, fmt.Errorf("fleet: node %d fetch %s: %w", n.ID, e.Name, err)
	}
	if err := n.ver.VerifyBlob(e.Digest, blob); err != nil {
		n.refused()
		return nil, fmt.Errorf("fleet: node %d: artifact %s refused: %w", n.ID, e.Name, err)
	}
	switch blob.Kind {
	case registry.KindSLXO:
		so, err := registry.DecodeSignedObject(blob.Payload)
		if err != nil {
			n.refused()
			return nil, fmt.Errorf("fleet: node %d: %w", n.ID, err)
		}
		ext, err := n.rt.Load(so)
		if err != nil {
			// The kernel-side trust decision (toolchain signature) failed.
			n.refused()
			return nil, fmt.Errorf("fleet: node %d load %s: %w", n.ID, e.Name, err)
		}
		n.mu.Lock()
		n.exts[e.Digest] = ext
		n.mu.Unlock()
		return ext, nil
	case registry.KindEBPF:
		prog, err := registry.DecodeProgram(blob.Payload)
		if err != nil {
			n.refused()
			return nil, fmt.Errorf("fleet: node %d: %w", n.ID, err)
		}
		if err := prog.ValidateStructure(); err != nil {
			n.refused()
			return nil, fmt.Errorf("fleet: node %d: staged program %s: %w", n.ID, e.Name, err)
		}
		return nil, nil
	default:
		n.refused()
		return nil, fmt.Errorf("fleet: node %d: unknown artifact kind %q", n.ID, blob.Kind)
	}
}

// versionFor wraps a loaded extension as a hot-swappable version. It
// resolves the version's own record (name@digest-prefix) once, and every
// request the version makes carries it, so each version's runs, faults,
// denials and breaker state land in its own stats row and health, apart
// from every other version of the same logical program. The record also
// carries the version's load-time accounting (check counts, a TVAL
// demotion) and its signed CONC verdict, so the plane's conc gate follows
// the running build through swaps and rollbacks.
func (n *Node) versionFor(name, digest string, ext *runtime.Extension) exec.Version {
	short := digest
	if len(short) > 8 {
		short = short[:8]
	}
	prog := n.rt.Core.Program(name + "@" + short)
	ext.RecordLoad(prog)
	return exec.Version{
		Digest:  digest,
		Program: prog,
		Engine:  ext.Engine(),
		Reload:  ext.Revalidate(),
		Make: func(nr int) ([]exec.Request, func([]exec.BatchResult)) {
			preps := make([]*runtime.Prepared, nr)
			reqs := make([]exec.Request, nr)
			for i := range reqs {
				preps[i] = ext.Prepare(runtime.RunOptions{})
				reqs[i] = preps[i].Request()
				reqs[i].Program = prog
			}
			fin := func(results []exec.BatchResult) {
				for i := range results {
					_, ferr := preps[i].Finish(results[i].Report, results[i].Err)
					n.answered.Add(1)
					if ferr != nil || results[i].Err != nil {
						n.faulted.Add(1)
					}
				}
			}
			return reqs, fin
		},
	}
}

// apply attaches or swaps to a version. During a swap a pump goroutine
// keeps the plane under load so the soak window can close on run count —
// the fleet analogue of swapping under live traffic.
func (n *Node) apply(ctx context.Context, v exec.Version) error {
	hs := n.hs.Load()
	if hs == nil {
		n.hs.Store(exec.NewHotSwap(n.sh, v))
		return nil
	}
	if hs.Current().Digest == v.Digest {
		return nil
	}
	stop := make(chan struct{})
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		defer pump.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := n.Submit(ctx, 4); err != nil {
				return
			}
		}
	}()
	rep, err := hs.Swap(ctx, v, n.cfg.Soak)
	close(stop)
	pump.Wait()
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.lastSwap = rep
	n.stats.Swaps++
	if rep.RolledBack {
		n.stats.Rollbacks++
	}
	n.mu.Unlock()
	return nil
}

// Submit pushes one batch of traffic through the node's current version,
// round-robining across its shards.
func (n *Node) Submit(ctx context.Context, batch int) error {
	hs := n.hs.Load()
	if hs == nil {
		return ErrNotServing
	}
	cpu := int(n.cpuNext.Add(1)) % n.sh.Shards()
	if err := hs.Submit(ctx, cpu, batch); err != nil {
		return err
	}
	n.submitted.Add(int64(batch))
	return nil
}

// CurrentDigest is the content address the node is serving, "" before the
// first sync.
func (n *Node) CurrentDigest() string {
	hs := n.hs.Load()
	if hs == nil {
		return ""
	}
	return hs.Current().Digest
}

// ManifestVersion is the bundle version the node last converged on.
func (n *Node) ManifestVersion() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.manifestVersion
}

// LastSwap returns the most recent swap report, nil before any swap.
func (n *Node) LastSwap() *exec.SwapReport {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastSwap
}

// Supervisor exposes the node's breaker for state assertions.
func (n *Node) Supervisor() *exec.Supervisor { return n.rt.Supervisor() }

// Runtime exposes the node's safext runtime.
func (n *Node) Runtime() *runtime.Runtime { return n.rt }

// Flush blocks until the node's in-flight batches complete.
func (n *Node) Flush() { n.sh.Flush() }

// Stats snapshots the node's counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	s := n.stats
	n.mu.Unlock()
	s.Submitted = n.submitted.Load()
	s.Answered = n.answered.Load()
	s.Faulted = n.faulted.Load()
	return s
}

// Close drains the plane and releases loaded artifacts.
func (n *Node) Close() {
	n.sh.Flush()
	n.sh.Close()
	n.mu.Lock()
	for _, ext := range n.exts {
		ext.Close()
	}
	n.exts = make(map[string]*runtime.Extension)
	n.mu.Unlock()
}
