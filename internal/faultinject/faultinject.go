// Package faultinject runs deterministic, seed-driven fault campaigns
// against the execution substrate. A campaign is reproducible from
// (seed, Plan): every injection decision comes from one xorshift64* stream
// owned by the Injector — no math/rand global state — and every rule is
// gated by a probability and a max count, so re-running the same seed over
// the same workload injects the identical fault sequence.
//
// The injector plugs into the seams both stacks share: helper dispatch
// (error returns and simulated helper crashes, via helpers.FaultHook), map
// update/alloc failures (via maps.FaultHook), and fuel/watchdog budget
// jitter plus panic-on-oops mode (via exec.Injector). Attach wires one
// injector into a stack's exec.Core; Detach unwires it.
package faultinject

import (
	"errors"
	"fmt"
	"sync"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/maps"
	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/rng"
)

// Site names one injection seam.
type Site string

const (
	// SiteHelperError makes a helper return an error value (R0 =
	// ^uint64(0), the kernel's -1 idiom) without running it.
	SiteHelperError Site = "helper-error"
	// SiteHelperCrash simulates a bug in a helper's unsafe kernel code:
	// the kernel oopses (panicking under panic-on-oops) and the run dies
	// with ErrKernelCrash — the §2.2 scenario, on demand.
	SiteHelperCrash Site = "helper-crash"
	// SiteMapUpdate fails a map update with maps.ErrNoSpace, which the
	// helper layer translates to the -ENOSPC errno programs see.
	SiteMapUpdate Site = "map-update"
	// SiteMapAlloc fails map creation at load time.
	SiteMapAlloc Site = "map-alloc"
	// SiteFuel shrinks the invocation's fuel budget by Rule.Scale.
	SiteFuel Site = "fuel-jitter"
	// SiteWatchdog shrinks the invocation's watchdog budget by
	// Rule.Scale.
	SiteWatchdog Site = "watchdog-jitter"
	// SiteTransportError fails a distribution-channel request (a registry
	// fetch, say) with ErrTransport — the flaky-network seam the fleet's
	// retry/backoff machinery is tested against. Match is the operation
	// name the transport consults with.
	SiteTransportError Site = "transport-error"
	// SiteTransportHang makes a distribution-channel request hang until
	// the caller's deadline fires — the wedge that distinguishes real
	// per-request timeouts from mere error retries.
	SiteTransportHang Site = "transport-hang"
)

// ErrTransport is the injected distribution-channel failure.
var ErrTransport = errors.New("faultinject: injected transport error")

// Rule arms one site. A rule fires when its site is consulted, the name
// matches, the PRNG draw lands under Prob, and fewer than Max injections
// have happened (Max <= 0 means unlimited).
type Rule struct {
	Site Site
	// Match filters by helper or map name; empty matches every name.
	// Budget-jitter sites match the program name.
	Match string
	// Prob is the per-consultation injection probability in [0, 1].
	Prob float64
	// Max caps this rule's total injections.
	Max int
	// Scale applies to budget-jitter sites: the surviving fraction of
	// the original budget (0.001 leaves 0.1%). Ignored elsewhere.
	Scale float64
}

// Plan is a full campaign description.
type Plan struct {
	Rules []Rule
	// PanicOnOops arms the kernel's oops=panic mode for the campaign, so
	// injected crashes exercise the panic-unwind path.
	PanicOnOops bool
}

// Event records one injection, in sequence order.
type Event struct {
	Seq  int
	Site Site
	// Name is the helper/map/program the injection hit.
	Name string
}

func (e Event) String() string { return fmt.Sprintf("#%d %s(%s)", e.Seq, e.Site, e.Name) }

// Injector makes the plan's injection decisions. It implements
// helpers.FaultHook, maps.FaultHook, and exec.Injector; Attach installs it
// at all three seams. Safe for concurrent use — decisions serialize on one
// mutex so the (seed, plan) → event-sequence mapping stays exact.
type Injector struct {
	plan Plan
	seed uint64

	mu     sync.Mutex
	state  rng.Star
	counts []int
	events []Event
}

// New builds an injector for one campaign.
func New(seed uint64, plan Plan) *Injector {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Injector{
		plan:   plan,
		seed:   seed,
		state:  rng.Star(seed),
		counts: make([]int, len(plan.Rules)),
	}
}

// Seed returns the campaign seed.
func (inj *Injector) Seed() uint64 { return inj.seed }

// Events returns a copy of the injection sequence so far.
func (inj *Injector) Events() []Event {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Event(nil), inj.events...)
}

// EventCount returns how many injections have fired so far.
func (inj *Injector) EventCount() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return len(inj.events)
}

// CountBySite tallies the injection sequence per site.
func (inj *Injector) CountBySite() map[Site]int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[Site]int)
	for _, e := range inj.events {
		out[e.Site]++
	}
	return out
}

// decide consults every armed rule for the site/name pair, drawing once
// per armed rule so the stream position depends only on the consultation
// sequence. It returns the first rule that fires.
func (inj *Injector) decide(site Site, name string) (Rule, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	fired := -1
	for i, r := range inj.plan.Rules {
		if r.Site != site || (r.Match != "" && r.Match != name) {
			continue
		}
		if r.Max > 0 && inj.counts[i] >= r.Max {
			continue
		}
		draw := float64(inj.state.Next()>>11) / float64(1<<53)
		if fired < 0 && draw < r.Prob {
			fired = i
		}
	}
	if fired < 0 {
		return Rule{}, false
	}
	inj.counts[fired]++
	inj.events = append(inj.events, Event{Seq: len(inj.events), Site: site, Name: name})
	return inj.plan.Rules[fired], true
}

// HelperCall implements helpers.FaultHook: consulted by both engines after
// a helper call is counted, before the helper runs.
func (inj *Injector) HelperCall(env *helpers.Env, name string) (uint64, error, bool) {
	if _, ok := inj.decide(SiteHelperError, name); ok {
		return ^uint64(0), nil, true
	}
	if _, ok := inj.decide(SiteHelperCrash, name); ok {
		env.K.Oops(kernel.OopsBadAccess, env.Ctx.CPUID,
			"faultinject: injected crash in helper %s", name)
		return 0, fmt.Errorf("%w: injected fault in %s", helpers.ErrKernelCrash, name), true
	}
	return 0, nil, false
}

// MapUpdate implements maps.FaultHook. The injected error is the bare
// maps.ErrNoSpace sentinel so the helper layer's errno translation (an
// identity switch) recognises it.
func (inj *Injector) MapUpdate(name string) error {
	if _, ok := inj.decide(SiteMapUpdate, name); ok {
		return maps.ErrNoSpace
	}
	return nil
}

// MapAlloc implements maps.FaultHook.
func (inj *Injector) MapAlloc(name string) error {
	if _, ok := inj.decide(SiteMapAlloc, name); ok {
		return maps.ErrNoSpace
	}
	return nil
}

// BeforeRun implements exec.Injector: budget jitter. A fired rule scales
// the respective non-zero budget down to Rule.Scale of its value (minimum
// 1 unit, so the net still exists and fires).
func (inj *Injector) BeforeRun(req *exec.Request) {
	if req.Fuel > 0 {
		if r, ok := inj.decide(SiteFuel, req.Program.Name()); ok {
			req.Fuel = scaleU64(req.Fuel, r.Scale)
		}
	}
	if req.WatchdogNs > 0 {
		if r, ok := inj.decide(SiteWatchdog, req.Program.Name()); ok {
			req.WatchdogNs = scaleI64(req.WatchdogNs, r.Scale)
		}
	}
}

// TransportOp consults the transport seams for one named operation. The
// caller (a fault-wrapping transport) acts on the verdict: on hang it
// blocks until its context's deadline, on err it fails the request with
// ErrTransport. Both draws happen on every consultation so the stream
// position stays a pure function of the consultation sequence.
func (inj *Injector) TransportOp(name string) (hang bool, err error) {
	if _, ok := inj.decide(SiteTransportHang, name); ok {
		hang = true
	}
	if _, ok := inj.decide(SiteTransportError, name); ok {
		err = fmt.Errorf("%w: %s", ErrTransport, name)
	}
	return hang, err
}

func scaleU64(v uint64, scale float64) uint64 {
	s := uint64(float64(v) * scale)
	if s == 0 {
		s = 1
	}
	return s
}

func scaleI64(v int64, scale float64) int64 {
	s := int64(float64(v) * scale)
	if s == 0 {
		s = 1
	}
	return s
}

// Attach arms the campaign on a stack's execution core: the core's run
// seam, its map registry, and (when the plan asks) oops=panic mode.
func Attach(core *exec.Core, inj *Injector) {
	core.Inject = inj
	core.Maps.SetFaultHook(inj)
	if inj.plan.PanicOnOops {
		core.K.Cfg.PanicOnOops = true
	}
}

// Detach disarms fault injection on the core. The kernel's PanicOnOops
// setting is left as the plan set it — flipping it back mid-flight would
// change semantics for unrelated oopses the campaign already caused.
func Detach(core *exec.Core) {
	core.Inject = nil
	core.Maps.SetFaultHook(nil)
}
