package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"kex/internal/exec"
	"kex/internal/safext/runtime"
)

// The traffic follows published workload definitions where one exists:
//
//   - kvcache is YCSB's core workload C (Cooper et al., "Benchmarking Cloud
//     Serving Systems with YCSB", SoCC 2010): a load phase inserts every
//     record, then every request is a read, with zipfian request popularity
//     at YCSB's default constant 0.99 over recordcount=1000 records. As in
//     YCSB's scrambled zipfian, the popular records are scattered over the
//     key space, here by a seeded permutation. Every record is loaded and
//     fits the cache, so every request hits.
//   - flows sizes its packets by the simple IMIX: 40, 576 and 1500-byte IP
//     packets in the ratio 7:4:1. Flows are steered to shards by key, as
//     receive-side scaling steers a flow to one CPU. Flow popularity has no
//     published source here: it borrows workload C's zipfian (0.99 over
//     1000 keys).

// packet is one invocation's input.
type packet struct {
	key, len uint32
}

// traceLen is the number of packets in each lane's seeded trace; a lane
// cycles through its trace.
const traceLen = 8192

// zipfianTheta is YCSB's default zipfian constant.
const zipfianTheta = 0.99

// zipfian draws ranks 0..n-1, rank i with probability proportional to
// 1/(i+1)^theta, by the method YCSB's ZipfianGenerator uses (Gray et al.,
// "Quickly Generating Billion-Record Synthetic Databases", SIGMOD 1994).
// Unlike math/rand's Zipf it takes theta below 1.
type zipfian struct {
	rng                   *rand.Rand
	n                     int
	theta, alpha, zeta    float64
	eta, twoRanksBoundary float64
}

func newZipfian(rng *rand.Rand, n int, theta float64) *zipfian {
	zeta := func(k int) float64 {
		var s float64
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zn := zeta(n)
	return &zipfian{
		rng: rng, n: n, theta: theta, alpha: 1 / (1 - theta), zeta: zn,
		eta:              (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zn),
		twoRanksBoundary: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipfian) next() int {
	u := z.rng.Float64()
	switch uz := u * z.zeta; {
	case uz < 1:
		return 0
	case uz < z.twoRanksBoundary:
		return 1
	}
	return min(int(float64(z.n)*math.Pow(z.eta*u-z.eta+1, z.alpha)), z.n-1)
}

// makeTable draws the cache's records: nonzero values below 2^31, so both
// stacks return them unchanged.
func makeTable(rng *rand.Rand) []uint64 {
	t := make([]uint64, records)
	for i := range t {
		t[i] = 1 + uint64(rng.Int63n(1<<31-1))
	}
	return t
}

// kvTrace draws one lane's workload C requests.
func kvTrace(rng *rand.Rand) []packet {
	perm := rng.Perm(records)
	z := newZipfian(rng, records, zipfianTheta)
	tr := make([]packet, traceLen)
	for i := range tr {
		tr[i] = packet{key: uint32(perm[z.next()])}
	}
	return tr
}

// imixLen draws a simple-IMIX packet length.
func imixLen(rng *rand.Rand) uint32 {
	switch n := rng.Intn(12); {
	case n < 7:
		return 40
	case n < 11:
		return 576
	}
	return 1500
}

// flowTraces draws the flow traffic of all lanes: one zipfian packet stream
// over the flows, each packet steered to the lane of its flow, until every
// lane has a whole trace.
func flowTraces(rng *rand.Rand) [shards][]packet {
	perm := rng.Perm(records)
	z := newZipfian(rng, records, zipfianTheta)
	var tr [shards][]packet
	for full := 0; full < shards; {
		key := uint32(perm[z.next()])
		pk := packet{key: key, len: imixLen(rng)}
		l := key % shards
		if len(tr[l]) < traceLen {
			if tr[l] = append(tr[l], pk); len(tr[l]) == traceLen {
				full++
			}
		}
	}
	return tr
}

// traffic is the seeded input of one run: the cache's records and, per
// lane, a kvcache and a flows trace. Both stacks see the same traffic.
type traffic struct {
	table []uint64
	kv    [shards][]packet
	flows [shards][]packet
}

func makeTraffic(seed int64) *traffic {
	rng := rand.New(rand.NewSource(seed))
	tf := &traffic{table: makeTable(rng)}
	for l := range tf.kv {
		tf.kv[l] = kvTrace(rng)
	}
	tf.flows = flowTraces(rng)
	return tf
}

// trace returns the lane's trace for a program kind.
func (tf *traffic) trace(kind progKind, lane int) []packet {
	if kind == kindKV {
		return tf.kv[lane]
	}
	return tf.flows[lane]
}

// lane is one closed-loop client of one shard: it fills a batch from its
// trace, submits it, and waits for the completion callback before the
// next. The client and the shard worker take turns on the lane's fields,
// ordered by the ring send and the done channel.
type lane struct {
	p    *plane
	cpu  int
	prog *program

	slots []slot
	preps []*runtime.Prepared
	reqs  []exec.Request
	batch []packet // the packets of the batch in flight
	want  []uint64 // their expected R0

	trace []packet
	pos   int

	done   chan struct{}
	onDone func([]exec.BatchResult)
	tr     *laneTrace // nil when untraced

	ops      int64
	failed   int64
	firstErr error
	lat      []int64 // batch round trips since the last harvest, ns

	// sent accumulates the expected effect of the lane's packets on each
	// tables it has run a program on.
	sent map[*tables]*effects
}

// effects is the expected content of a tables after traffic: cache hits,
// bytes per flow and the packet count.
type effects struct {
	hits    uint64
	bytes   [records]uint64
	packets uint64
}

func (p *plane) newLane(cpu int) (*lane, error) {
	l := &lane{
		p: p, cpu: cpu,
		slots: make([]slot, batchSize),
		preps: make([]*runtime.Prepared, batchSize),
		reqs:  make([]exec.Request, batchSize),
		want:  make([]uint64, batchSize),
		done:  make(chan struct{}, 1),
		sent:  map[*tables]*effects{},
	}
	l.onDone = l.complete
	if p.trc != nil {
		l.tr = p.trc.lanes[cpu]
	}
	for j := range l.slots {
		s, err := p.newSlot()
		if err != nil {
			return nil, err
		}
		l.slots[j] = s
	}
	return l, nil
}

// next returns the lane's next n packets from its trace.
func (l *lane) next(n int) []packet {
	if l.pos+n > len(l.trace) {
		l.pos = 0
	}
	b := l.trace[l.pos : l.pos+n]
	l.pos += n
	return b
}

// expected returns a program's correct R0 for a packet: the cached record,
// or 1 for a counted packet.
func (l *lane) expected(prog *program, pk packet) uint64 {
	if prog.kind == kindKV {
		return l.p.table[pk.key]
	}
	return 1
}

// run submits one batch of packets to the lane's shard, waits for its
// completion and records its round trip: from writing the first packet
// and preparing its request to the client holding the checked results.
func (l *lane) run(prog *program, pkts []packet) error {
	start := time.Now()
	if l.tr != nil {
		l.tr.beginBatch()
	}
	l.prog, l.batch = prog, pkts
	for j, pk := range pkts {
		s := l.slots[j]
		if f := l.p.k.Mem.StoreUint(s.pkt, 4, uint64(pk.key)); f != nil {
			return fmt.Errorf("write packet: %v", f)
		}
		if f := l.p.k.Mem.StoreUint(s.pkt+4, 4, uint64(pk.len)); f != nil {
			return fmt.Errorf("write packet: %v", f)
		}
		l.want[j] = l.expected(prog, pk)
		l.reqs[j] = prog.request(l, j)
	}
	if l.tr != nil {
		l.tr.submitting()
	}
	b := exec.Batch{Engine: prog.engine, Reqs: l.reqs[:len(pkts)], Reload: prog.reload, Done: l.onDone}
	if err := l.p.sh.SubmitWait(l.cpu, b); err != nil {
		return fmt.Errorf("%s: submit: %w", prog.name, err)
	}
	<-l.done
	l.lat = append(l.lat, int64(time.Since(start)))
	if l.tr != nil {
		l.tr.batchSeen()
	}
	l.ops += int64(len(pkts))
	e := l.sent[prog.tables]
	if e == nil {
		e = new(effects)
		l.sent[prog.tables] = e
	}
	if prog.kind == kindKV {
		e.hits += uint64(len(pkts))
		return nil
	}
	for _, pk := range pkts {
		e.bytes[pk.key] += uint64(pk.len)
		e.packets++
	}
	return nil
}

// complete is the batch's completion callback, on the shard worker: it
// checks every result against its expected R0.
func (l *lane) complete(results []exec.BatchResult) {
	if l.tr != nil {
		l.tr.batchDone(results)
	}
	for j, res := range results {
		got, err := l.prog.result(l, j, res)
		if err == nil && got != l.want[j] {
			err = fmt.Errorf("%s: key %d: R0 %d, want %d", l.prog.name, l.batch[j].key, got, l.want[j])
		}
		if err != nil {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = err
			}
		}
	}
	l.done <- struct{}{}
}

// drive runs closed-loop traffic from every lane of the plane until the
// deadline and returns the invocations completed.
func (p *plane) drive(prog *program, deadline time.Time, tf *traffic) (int64, error) {
	errs := make(chan error, len(p.lanes))
	var before int64
	for _, l := range p.lanes {
		before += l.ops
		l.trace = tf.trace(prog.kind, l.cpu)
		go func(l *lane) {
			for time.Now().Before(deadline) {
				if err := l.run(prog, l.next(batchSize)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(l)
	}
	var first error
	for range p.lanes {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	var after int64
	for _, l := range p.lanes {
		after += l.ops
	}
	return after - before, first
}

// checkEffects compares a tables' counters with what the lanes sent
// through it: for the cache, the hit and miss counts; for the flows, the
// byte count of each flow in keys (nil means every flow sent to) and the
// packet count.
func (p *plane) checkEffects(kind progKind, t *tables, keys []uint32) error {
	want := new(effects)
	for _, l := range p.lanes {
		if e := l.sent[t]; e != nil {
			want.hits += e.hits
			for k, v := range e.bytes {
				want.bytes[k] += v
			}
			want.packets += e.packets
		}
	}
	if kind == kindKV {
		for _, c := range []struct {
			key  uint32
			want uint64
		}{{statHits, want.hits}, {statMisses, 0}} {
			got, err := p.value(t.stats, c.key)
			if errors.Is(err, errMissing) {
				// The safext form creates a counter with its first count.
				got, err = 0, nil
			}
			if err != nil {
				return err
			}
			if got != c.want {
				return fmt.Errorf("%s: stats[%d] is %d, want %d", p.name, c.key, got, c.want)
			}
		}
		return nil
	}
	if keys == nil {
		for k, v := range want.bytes {
			if v != 0 {
				keys = append(keys, uint32(k))
			}
		}
	}
	for _, k := range keys {
		got, err := p.value(t.flows, k)
		if err != nil {
			return err
		}
		if got != want.bytes[k] {
			return fmt.Errorf("%s: flow %d holds %d bytes, want %d", p.name, k, got, want.bytes[k])
		}
	}
	got, err := p.value(t.pkts, 0)
	if err != nil {
		return err
	}
	if got != want.packets {
		return fmt.Errorf("%s: packet counter %d, want %d", p.name, got, want.packets)
	}
	return nil
}
