// Command kexperf is the repository's end-to-end benchmark. It runs both
// extension stacks — verified eBPF and the safe-language framework (safext)
// — on the same seeded traffic through the per-CPU sharded data plane, and
// through the load path, and prints one JSON result line whose metrics are
// the end-to-end figures (--trace 0) or the per-layer figures (--trace 1).
// README.md describes the workloads and metrics.
//
// Run it from the repository root through its build script:
//
//	bash kexperf/run.sh --workload kvcache --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	goruntime "runtime"
	"slices"
	"sort"
	"time"
)

const (
	// roundLen is the length of one measured round. Rounds alternate
	// between the stacks in ABBA order, so that the machine's drifts in
	// speed fall on both stacks alike.
	roundLen = 250 * time.Millisecond
	// warmLen is each stack's unmeasured warm-up before the rounds.
	warmLen = 500 * time.Millisecond
	// setupEvery is how many rounds pass between two measured set-ups of
	// both stacks; setup_s is their median. Spreading the set-ups over the
	// run keeps one burst of load on the machine from moving all of them,
	// and an even count puts as many before each stack's rounds.
	setupEvery = 2
	// setupReps is how many set-ups one measured set-up takes the fastest
	// of. A set-up lasts tens of milliseconds, long enough for the
	// machine's other tenants to take the processor away in the middle of
	// it (up to a fifth of the processor time during a run, by the steal
	// time of the 2-vCPU VM this was tuned on); the fastest is the one they
	// disturbed least.
	setupReps = 3
	// windowSamples is how many latency samples close a window: enough for
	// ten beyond its p99. A window spans one or more of a stack's rounds.
	windowSamples = 1000
)

// layerTotals accumulates one stack's measurements over a run.
type layerTotals struct {
	lat                []int64   // ns round trips of the current window: per batch, or per op
	samples            int64     // round trips over all windows
	refs               []float64 // reference times of the current window's rounds, ns
	p50s, p99s         []float64 // per window, in reference units
	rawP50s            []float64 // per window, µs
	setup              []float64 // the stack's share of each measured set-up, s (its own fastest)
	ops                int64     // measured ops: invocations, or deploy pairs
	invocations        int64     // measured invocations
	spans              [numLayers]int64
	insns, helperCalls uint64
	mallocs, bytes     uint64
	phases             map[string]int64
	loads              int64
}

type result struct {
	attempted, failed int64
	firstErr          error
	setup             []float64 // seconds
	refs              []float64 // every round's reference time, ns
	stacks            map[stackName]*layerTotals
}

func (r *result) fail(n int64, err error) {
	r.failed += n
	if r.firstErr == nil && err != nil {
		r.firstErr = err
	}
}

func main() {
	workload := flag.String("workload", "", "kvcache, flows or load")
	seed := flag.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "kexperf: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	total := time.Duration(*seconds) * time.Second
	tf := makeTraffic(*seed)
	var res *result
	var err error
	switch *workload {
	case "kvcache":
		res, err = runTraffic(kindKV, tf, total, *trace == 1)
	case "flows":
		res, err = runTraffic(kindFlows, tf, total, *trace == 1)
	case "load":
		res, err = runLoad(tf, total, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kexperf:", err)
		os.Exit(1)
	}
	if res.firstErr != nil {
		fmt.Fprintln(os.Stderr, "kexperf: first failure:", res.firstErr)
	}
	res.summarize(os.Stderr)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.firstErr == nil, res.attempted, res.failed, res.metrics(*trace == 1)}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kexperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupPlanes boots both stacks, deploys the given program on each and
// fills its tables. It is what setup_s times; it returns each stack's
// share in seconds.
func setupPlanes(kind progKind, tf *traffic, traced bool) (map[stackName]*plane, map[stackName]*program, map[stackName]float64, error) {
	planes := map[stackName]*plane{}
	progs := map[stackName]*program{}
	times := map[stackName]float64{}
	for _, s := range stacks {
		start := time.Now()
		p, err := newPlane(s, tf.table, traced)
		if err != nil {
			closeAll(planes, progs)
			return nil, nil, nil, err
		}
		planes[s] = p
		prog, err := p.deploy("kx_"+kind.String(), kind)
		if err == nil {
			err = p.fill(prog.tables, nil)
		}
		if err != nil {
			closeAll(planes, progs)
			return nil, nil, nil, fmt.Errorf("%s: deploy: %w", s, err)
		}
		progs[s] = prog
		times[s] = time.Since(start).Seconds()
	}
	return planes, progs, times, nil
}

func closeAll(planes map[stackName]*plane, progs map[stackName]*program) {
	for _, prog := range progs {
		prog.close()
	}
	for _, p := range planes {
		p.close()
	}
}

// measureSetup records one measured set-up: the fastest of setupReps
// setupPlanes, and of each stack's shares. It records their load phases,
// tears all but the last set-up's planes down again and hands those to
// adopt.
func measureSetup(kind progKind, tf *traffic, traced bool, res *result, adopt adoptFunc) error {
	best := math.Inf(1)
	bestStack := map[stackName]float64{}
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		planes, progs, times, err := setupPlanes(kind, tf, traced)
		if err != nil {
			return err
		}
		best = min(best, time.Since(start).Seconds())
		for s, prog := range progs {
			res.stacks[s].addPhases(prog)
			if v, ok := bestStack[s]; !ok || times[s] < v {
				bestStack[s] = times[s]
			}
		}
		if i < setupReps-1 {
			closeAll(planes, progs)
		} else {
			adopt(planes, progs)
		}
	}
	res.setup = append(res.setup, best)
	for s, v := range bestStack {
		res.stacks[s].setup = append(res.stacks[s].setup, v)
	}
	return nil
}

func newResult() *result {
	r := &result{stacks: map[stackName]*layerTotals{}}
	for _, s := range stacks {
		r.stacks[s] = &layerTotals{phases: map[string]int64{}}
	}
	return r
}

// roundFunc runs one round of a workload on a stack for d, adding its
// measurements to tot, or dropping them when tot is nil (warm-up).
type roundFunc func(s stackName, d time.Duration, tot *layerTotals) error

// adoptFunc takes over the planes of a measured set-up.
type adoptFunc func(map[stackName]*plane, map[stackName]*program)

// measure warms each stack up, then runs the measured rounds in ABBA order
// (ebpf, safext, safext, ebpf, ...). Before each round it collects the
// heap and takes the reference time, and before every setupEvery-th round
// it measures a set-up of both stacks and hands its planes to adopt.
func measure(res *result, total time.Duration, setupKind progKind, tf *traffic, traced bool, round roundFunc, adopt adoptFunc) error {
	for _, s := range stacks {
		if err := round(s, warmLen, nil); err != nil {
			return fmt.Errorf("%s: warm-up: %w", s, err)
		}
	}
	rounds := max(int(total/roundLen), 2)
	per := total / time.Duration(rounds)
	for i := 0; i < rounds; i++ {
		s := stackEBPF
		if i%4 == 1 || i%4 == 2 {
			s = stackSafext
		}
		tot := res.stacks[s]
		// Collecting first keeps a collection the last round started from
		// slowing the reference.
		goruntime.GC()
		ref := refTime()
		res.refs = append(res.refs, ref)
		tot.refs = append(tot.refs, ref)
		if i%setupEvery == 0 {
			if err := measureSetup(setupKind, tf, traced, res, adopt); err != nil {
				return err
			}
		}
		var before goruntime.MemStats
		if traced {
			goruntime.ReadMemStats(&before)
		}
		if err := round(s, per, tot); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		if len(tot.lat) >= windowSamples {
			tot.closeWindow()
		}
		if traced {
			var after goruntime.MemStats
			goruntime.ReadMemStats(&after)
			res.stacks[s].mallocs += after.Mallocs - before.Mallocs
			res.stacks[s].bytes += after.TotalAlloc - before.TotalAlloc
		}
	}
	for _, s := range stacks {
		// A run too short for one whole window reports its partial one.
		if tot := res.stacks[s]; len(tot.p50s) == 0 {
			tot.closeWindow()
		}
	}
	return nil
}

// closeWindow records the current window's latency percentiles in
// reference units, and its median also in µs. The window's slice is
// reused, so that after the first window recording allocates nothing.
func (tot *layerTotals) closeWindow() {
	n := len(tot.lat)
	if n == 0 {
		return
	}
	slices.Sort(tot.lat)
	// The nearest-rank percentile.
	pct := func(q float64) float64 { return float64(tot.lat[int(math.Ceil(q*float64(n)))-1]) }
	ref := median(tot.refs)
	p50 := pct(0.5)
	tot.p50s = append(tot.p50s, p50/ref)
	tot.p99s = append(tot.p99s, pct(0.99)/ref)
	tot.rawP50s = append(tot.rawP50s, p50/1e3)
	tot.samples += int64(n)
	tot.lat = tot.lat[:0]
	tot.refs = tot.refs[:0]
}

// runTraffic runs the kvcache or flows workload: closed-loop traffic
// through each stack's sharded data plane, one client per shard. The
// rounds after each measured set-up run on its planes, so that a run
// spreads over many instances of each plane whatever depends on one
// instance, such as the hash seeds of its Go maps.
func runTraffic(kind progKind, tf *traffic, total time.Duration, traced bool) (*result, error) {
	res := newResult()
	planes, progs, _, err := setupPlanes(kind, tf, traced)
	if err != nil {
		return nil, err
	}
	// retire counts and checks the traffic of the current planes and shuts
	// them down.
	retire := func() {
		for _, s := range stacks {
			p := planes[s]
			for _, l := range p.lanes {
				res.attempted += l.ops
				res.fail(l.failed, l.firstErr)
			}
			if err := p.checkEffects(kind, progs[s].tables, nil); err != nil {
				res.fail(1, err)
			}
		}
		closeAll(planes, progs)
	}
	err = measure(res, total, kind, tf, traced, func(s stackName, d time.Duration, tot *layerTotals) error {
		n, err := planes[s].drive(progs[s], time.Now().Add(d), tf)
		if tot != nil {
			tot.ops += n
			tot.invocations += n
		}
		planes[s].harvest(tot)
		return err
	}, func(np map[stackName]*plane, nprogs map[stackName]*program) {
		retire()
		planes, progs = np, nprogs
	})
	retire()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// deploysPerPlane is how many programs the load workload deploys on one
// plane before it boots a fresh one, untimed. Every deploy leaves state
// behind (a safext program's maps stay registered), so bounding the count
// keeps what a deploy meets independent of how fast the deploys run.
const deploysPerPlane = 16

// runLoad runs the load workload. Each op deploys the kvcache program and
// then the flows program under fresh names — build, sign and load for
// safext, verify and load for eBPF — and for each fills the table entries
// its first batch uses, runs that batch through the sharded data plane on
// one shard, checks the results and the tables, and unloads the program.
// An op's latency is the pair's, start to finish; pairing keeps its
// distribution unimodal.
func runLoad(tf *traffic, total time.Duration, traced bool) (*result, error) {
	res := newResult()
	seq := 0
	// epoch deploys deploysPerPlane programs on a fresh plane.
	epoch := func(s stackName, tot *layerTotals) error {
		p, err := newPlane(s, tf.table, traced)
		if err != nil {
			return err
		}
		defer p.close()
		for i := 0; i < deploysPerPlane/2; i++ {
			start := time.Now()
			var progs []*program
			for _, kind := range []progKind{kindKV, kindFlows} {
				seq++
				prog, err := p.deployOnce(fmt.Sprintf("kx_%s_%d", kind, seq), kind, tf)
				if err != nil {
					res.fail(1, err)
					break
				}
				progs = append(progs, prog)
			}
			lat := time.Since(start)
			res.attempted++
			if tot != nil && len(progs) == 2 {
				tot.lat = append(tot.lat, int64(lat))
				tot.ops++
				for _, prog := range progs {
					tot.addPhases(prog)
				}
			}
		}
		if tot != nil {
			tot.invocations += p.lanes[0].ops
		}
		// The op latencies are recorded above; drop the batch round trips
		// the lane recorded.
		p.lanes[0].lat = p.lanes[0].lat[:0]
		p.harvest(tot)
		return nil
	}
	err := measure(res, total, kindKV, tf, traced, func(s stackName, d time.Duration, tot *layerTotals) error {
		for deadline := time.Now().Add(d); time.Now().Before(deadline); {
			if err := epoch(s, tot); err != nil {
				return err
			}
		}
		return nil
	}, closeAll)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// deployOnce is one op of the load workload.
func (p *plane) deployOnce(name string, kind progKind, tf *traffic) (*program, error) {
	prog, err := p.deploy(name, kind)
	if err != nil {
		return nil, fmt.Errorf("%s: deploy %s: %w", p.name, name, err)
	}
	defer prog.close()
	l := p.lanes[0]
	l.trace = tf.trace(kind, 0)
	pkts := l.next(batchSize)
	keys := make([]uint32, len(pkts))
	for i, pk := range pkts {
		keys[i] = pk.key
	}
	if err := p.fill(prog.tables, keys); err != nil {
		return nil, err
	}
	failed := l.failed
	if err := l.run(prog, pkts); err != nil {
		return nil, err
	}
	if l.failed != failed {
		return nil, fmt.Errorf("%s: %d wrong results", name, l.failed-failed)
	}
	err = p.checkEffects(kind, prog.tables, keys)
	if prog.tables != p.bpfTables {
		delete(l.sent, prog.tables)
	}
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// harvest moves the lanes' round trips and span totals into tot, or drops
// them when tot is nil (warm-up).
func (p *plane) harvest(tot *layerTotals) {
	for _, l := range p.lanes {
		if tot != nil {
			tot.lat = append(tot.lat, l.lat...)
		}
		l.lat = l.lat[:0]
		if l.tr == nil {
			continue
		}
		if tot != nil {
			for i, v := range l.tr.acc {
				tot.spans[i] += v
			}
			tot.insns += l.tr.insns
			tot.helperCalls += l.tr.helperCalls
		}
		l.tr.reset()
	}
}

func (tot *layerTotals) addPhases(prog *program) {
	for _, ph := range prog.phases {
		tot.phases[ph.Name] += ph.WallNs
	}
	tot.loads++
}

// The load phases reported per stack, in pipeline order.
var loadPhases = map[stackName][]string{
	stackEBPF:   {"verify", "concheck", "relocate", "jit-compile"},
	stackSafext: {"parse", "typecheck", "analyze", "compile", "transval", "concheck", "sign", "validate", "fixup"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics renders the end-to-end metrics, or with traced the per-layer
// ones.
func (r *result) metrics(traced bool) map[string]metric {
	m := map[string]metric{}
	if !traced {
		m["setup_s"] = metric{median(r.setup), "s"}
	}
	for _, s := range stacks {
		tot := r.stacks[s]
		pre := string(s) + "."
		if !traced {
			m[pre+"p50_ref"] = metric{median(tot.p50s), "ref"}
			continue
		}
		m[pre+"traced_p50_us"] = metric{median(tot.rawP50s), "us"}
		m[pre+"setup_s"] = metric{median(tot.setup), "s"}
		inv := float64(max(tot.invocations, 1))
		for i, name := range layerNames {
			m[pre+name+"_ns"] = metric{float64(tot.spans[i]) / inv, "ns"}
		}
		m[pre+"insns_per_op"] = metric{float64(tot.insns) / inv, "count"}
		m[pre+"helper_calls_per_op"] = metric{float64(tot.helperCalls) / inv, "count"}
		ops := float64(max(tot.ops, 1))
		m[pre+"allocs_per_op"] = metric{float64(tot.mallocs) / ops, "count"}
		m[pre+"bytes_per_op"] = metric{float64(tot.bytes) / ops, "B"}
		loads := float64(max(tot.loads, 1))
		for _, ph := range loadPhases[s] {
			m[pre+"load."+ph+"_ns"] = metric{float64(tot.phases[ph]) / loads, "ns"}
		}
	}
	return m
}

// summarize writes what the result line leaves out to w: the machine's
// reference time, which converts the _ref latencies to µs, the p99, and
// how many round trips and windows each stack's percentiles rest on. The
// p99 is no metric: it moves with the time the machine's other tenants
// take (by a factor of six between two runs of one seed), not with the
// program.
func (r *result) summarize(w io.Writer) {
	fmt.Fprintf(w, "kexperf: ref_us %.3f over %d rounds; %d measured set-ups\n", median(r.refs)/1e3, len(r.refs), len(r.setup))
	for _, s := range stacks {
		tot := r.stacks[s]
		fmt.Fprintf(w, "kexperf: %s: %d round trips in %d windows, %d ops; median over windows: p50 %.4f ref (%.2f µs), p99 %.4f ref\n",
			s, tot.samples, len(tot.p50s), tot.ops, median(tot.p50s), median(tot.rawP50s), median(tot.p99s))
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
