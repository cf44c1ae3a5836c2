package concheck

import (
	"fmt"

	"kex/internal/analysis/mirrun"
	"kex/internal/rng"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
)

// The shard-interleaving oracle: the dynamic ground truth the static
// analyzer is checked against. It executes the program's naive MIR on S
// simulated shards under deterministic adversarial interleavings — every
// shared-map operation is a scheduling point, so a get→modify→set window
// can be split by another shard exactly the way the real per-CPU plane
// splits it — and compares each map's aggregate counters (sum over cells,
// emit count) against a serial baseline. Each invocation runs on the
// reference MIR machine (internal/analysis/mirrun) that the translation
// validator also runs on, so its arithmetic is the engine's: a division by
// zero or an out-of-range index at a check the naive build emits traps,
// as it does on the engine. The contract being tested:
//
//   - A map whose every site the analyzer proved percpu / read-only /
//     atomic / lock-guarded / cpu-keyed must produce the EXACT serial
//     aggregates under every tried schedule (a divergence is an analyzer
//     false negative — the fatal direction).
//   - map_inc is one indivisible step; get and set are separate steps.
//   - Blind writes (value not derived from the map) are excluded from the
//     exactness claim: last-writer-wins order dependence exists under any
//     serialization, including the single-shard plane — there is no lost
//     update to find.
//
// Determinism: no wall clock, no math/rand. Context-derived crate values
// depend only on (seed, invocation, crate, per-invocation sequence) — never
// on the shard or the schedule — and schedules are driven by a seeded
// xorshift, so a run is reproducible bit-for-bit.

// OracleMapResult is one map's aggregate comparison across schedules.
type OracleMapResult struct {
	Kind      string
	SerialSum uint64 // sum over cells after the serial baseline
	SerialEmu uint64 // emitted-record count after the serial baseline
	Diverged  bool   // some schedule produced different aggregates
	BadSum    uint64 // an example diverging sum
	BadSched  int    // which schedule produced it
}

// OracleReport is the oracle's verdict over all maps of one program.
type OracleReport struct {
	Shards      int
	Invocations int
	Schedules   int
	Maps        map[string]*OracleMapResult
}

// Diverged reports whether any map's aggregates were schedule-dependent.
func (r *OracleReport) Diverged() bool {
	for _, m := range r.Maps {
		if m.Diverged {
			return true
		}
	}
	return false
}

// RunOracle lowers the checked program and executes it under the
// interleaving harness: one serial baseline, then `schedules` adversarial
// multi-shard runs, invocation i landing on shard i%shards.
func RunOracle(checked *lang.Checked, shards, invocations, schedules int, seed uint64) (*OracleReport, error) {
	funcs := make(map[string]mirrun.Code)
	for _, fn := range checked.File.Funcs {
		mf, err := mir.LowerFunc(fn, checked)
		if err != nil {
			return nil, fmt.Errorf("oracle: lower %s: %w", fn.Name, err)
		}
		funcs[fn.Name] = mirrun.Code{F: mf}
	}
	main, ok := funcs["main"]
	if !ok {
		return nil, fmt.Errorf("oracle: program has no main")
	}
	if shards < 1 || invocations < 1 {
		return nil, fmt.Errorf("oracle: need at least one shard and one invocation")
	}

	rep := &OracleReport{Shards: shards, Invocations: invocations, Schedules: schedules,
		Maps: make(map[string]*OracleMapResult)}

	// Serial baseline: every invocation in order on one shard.
	base, err := runSchedule(funcs, main.F.MapKinds, 1, invocations, 0, seed)
	if err != nil {
		return nil, err
	}
	for name, kind := range main.F.MapKinds {
		rep.Maps[name] = &OracleMapResult{
			Kind:      kind,
			SerialSum: base.sumOf(name),
			SerialEmu: base.emits[name],
		}
	}

	for sched := 0; sched < schedules; sched++ {
		w, err := runSchedule(funcs, main.F.MapKinds, shards, invocations, uint64(sched)+1, seed)
		if err != nil {
			return nil, err
		}
		for name, mr := range rep.Maps {
			if mr.Diverged {
				continue
			}
			if sum := w.sumOf(name); sum != mr.SerialSum || w.emits[name] != mr.SerialEmu {
				mr.Diverged = true
				mr.BadSum = sum
				mr.BadSched = sched
			}
		}
	}
	return rep, nil
}

// oracleWorld is the shared machine state of one scheduled run.
type oracleWorld struct {
	funcs  map[string]mirrun.Code
	kinds  map[string]string
	seed   uint64
	shared map[string]map[uint64]uint64   // one instance per shared map
	percpu []map[string]map[uint64]uint64 // one instance set per shard
	emits  map[string]uint64
	locks  map[string]map[uint64]int // (map, cell) -> holder shard
}

func (w *oracleWorld) sumOf(name string) uint64 {
	var sum uint64
	for _, v := range w.shared[name] {
		sum += v
	}
	for _, inst := range w.percpu {
		for _, v := range inst[name] {
			sum += v
		}
	}
	return sum
}

func (w *oracleWorld) mapFor(shard int, sym string) map[uint64]uint64 {
	var pool map[string]map[uint64]uint64
	if mirrun.PerCPU(w.kinds[sym]) {
		pool = w.percpu[shard]
	} else {
		pool = w.shared
	}
	mp := pool[sym]
	if mp == nil {
		mp = make(map[uint64]uint64)
		pool[sym] = mp
	}
	return mp
}

// shardTask is one shard's coroutine. Control is a single token passed over
// unbuffered channels: exactly one goroutine (scheduler or one task) runs at
// any moment, so shared state needs no locks and every run is replayable.
type shardTask struct {
	id     int
	resume chan struct{}
	yield  chan struct{}
	done   bool
	err    error
}

// pause hands the token back to the scheduler at an interleaving point.
func (t *shardTask) pause() {
	if t == nil {
		return // serial baseline: no scheduler
	}
	t.yield <- struct{}{}
	<-t.resume
}

// maxSchedulerSteps bounds lock-wait respins; generous beyond any real run.
const maxSchedulerSteps = 1 << 22

// runSchedule executes all invocations on `shards` shards under one
// xorshift-driven interleaving (schedSeed 0 = the serial baseline).
func runSchedule(funcs map[string]mirrun.Code, kinds map[string]string,
	shards, invocations int, schedSeed, seed uint64) (*oracleWorld, error) {
	w := &oracleWorld{
		funcs:  funcs,
		kinds:  kinds,
		seed:   seed,
		shared: make(map[string]map[uint64]uint64),
		percpu: make([]map[string]map[uint64]uint64, shards),
		emits:  make(map[string]uint64),
		locks:  make(map[string]map[uint64]int),
	}
	for i := range w.percpu {
		w.percpu[i] = make(map[string]map[uint64]uint64)
	}

	if schedSeed == 0 || shards == 1 {
		// Serial: run every invocation to completion in order, no coroutines.
		it := newInterp(w, nil, 0)
		for inv := 0; inv < invocations; inv++ {
			if err := it.invoke(inv); err != nil {
				return nil, err
			}
		}
		return w, nil
	}

	tasks := make([]*shardTask, shards)
	for s := 0; s < shards; s++ {
		t := &shardTask{id: s, resume: make(chan struct{}), yield: make(chan struct{})}
		tasks[s] = t
		myInvs := []int{}
		for inv := s; inv < invocations; inv += shards {
			myInvs = append(myInvs, inv)
		}
		go func(t *shardTask, invs []int) {
			<-t.resume
			it := newInterp(w, t, t.id)
			for _, inv := range invs {
				if err := it.invoke(inv); err != nil {
					t.err = err
					break
				}
			}
			t.done = true
			t.yield <- struct{}{}
		}(t, myInvs)
	}

	sched := rng.XorShift(schedSeed*0x9e3779b97f4a7c15 | 1)
	alive := shards
	for step := 0; alive > 0; step++ {
		if step > maxSchedulerSteps {
			return nil, fmt.Errorf("oracle: scheduler did not converge (livelocked lock?)")
		}
		// Pick the n-th live task.
		n := int(sched.Next() % uint64(alive))
		var t *shardTask
		for _, c := range tasks {
			if c.done {
				continue
			}
			if n == 0 {
				t = c
				break
			}
			n--
		}
		t.resume <- struct{}{}
		<-t.yield
		if t.done {
			alive--
			if t.err != nil {
				// Drain the rest so no goroutine leaks, then fail.
				for _, c := range tasks {
					for !c.done {
						c.resume <- struct{}{}
						<-c.yield
					}
				}
				return nil, t.err
			}
		}
	}
	return w, nil
}

// oInterp executes one shard's invocations of the naive MIR, one at a
// time, on the reference machine.
type oInterp struct {
	mirrun.Machine
	w     *oracleWorld
	t     *shardTask // nil in the serial baseline
	shard int
	inv   uint64     // invocation id: the sole source of ctx-value entropy
	seq   uint64     // per-invocation crate call sequence
	held  []heldLock // locks held, for abort cleanup
}

type heldLock struct {
	sym  string
	cell uint64
}

// invocationFuel bounds one invocation; corpus programs run a few thousand
// steps, so this is pure runaway protection.
const invocationFuel = 1 << 18

func newInterp(w *oracleWorld, t *shardTask, shard int) *oInterp {
	it := &oInterp{w: w, t: t, shard: shard}
	it.Funcs = w.funcs
	it.Crate = it.crate
	return it
}

func (it *oInterp) invoke(inv int) error {
	it.inv, it.seq, it.held, it.Fuel = uint64(inv), 0, it.held[:0], invocationFuel
	_, st := it.Run("main", []uint64{it.inv})
	switch {
	case st == nil:
		return nil
	case st.Kind == mirrun.StopTrap:
		// A trapped invocation aborts cleanly (the engine unwinds its
		// cleanups); release anything it still holds so peers can progress.
		for _, h := range it.held {
			delete(it.w.locks[h.sym], h.cell)
		}
		return nil
	case st.Kind == mirrun.StopFuel:
		return fmt.Errorf("oracle: invocation %d exhausted its fuel", inv)
	}
	return fmt.Errorf("oracle: invocation %d: %s", inv, st.Msg)
}

// crate models one crate call. Shared-map operations pause at the
// interleaving point first; map_inc is one indivisible step after its pause,
// while a get/set pair pauses twice — the window the adversary splits.
func (it *oInterp) crate(fr *mirrun.Frame, in *mir.Insn) (uint64, *mirrun.Stop) {
	vals := make([]uint64, len(in.Args))
	for i := range in.Args {
		a := &in.Args[i]
		switch {
		case a.IsImm:
			vals[i] = uint64(a.Imm)
		case a.Kind == lang.CrateStr:
			vals[i] = mirrun.Hash(a.Str)
		case a.Kind == lang.CrateMap:
			vals[i] = mirrun.Hash(a.Sym)
		case a.Kind == lang.CrateBuf:
			vals[i] = 0 // content-independent: keeps values schedule-free
		default:
			vals[i], _ = fr.Read(a.V) // naive: every vreg has storage
		}
	}

	if len(in.Args) > 0 && in.Args[0].Kind == lang.CrateMap {
		sym := in.Args[0].Sym
		sharedMap := !mirrun.PerCPU(it.w.kinds[sym]) && it.w.kinds[sym] != "ringbuf"
		switch in.Name {
		case "map_get":
			if sharedMap {
				it.t.pause()
			}
			return it.w.mapFor(it.shard, sym)[vals[1]], nil
		case "map_set":
			if sharedMap {
				it.t.pause()
			}
			it.w.mapFor(it.shard, sym)[vals[1]] = vals[2]
			return 0, nil
		case "map_del":
			if sharedMap {
				it.t.pause()
			}
			delete(it.w.mapFor(it.shard, sym), vals[1])
			return 0, nil
		case "map_inc":
			if sharedMap {
				it.t.pause()
			}
			// One indivisible read-modify-write: no pause inside.
			mp := it.w.mapFor(it.shard, sym)
			mp[vals[1]] += vals[2]
			return mp[vals[1]], nil
		case "emit":
			it.w.emits[sym]++ // atomic under the ring lock
			return 0, nil
		case "lock_acquire":
			cells := it.w.locks[sym]
			if cells == nil {
				cells = make(map[uint64]int)
				it.w.locks[sym] = cells
			}
			for {
				it.t.pause()
				if _, held := cells[vals[1]]; !held {
					cells[vals[1]] = it.shard
					it.held = append(it.held, heldLock{sym, vals[1]})
					return 0, nil
				}
				if it.t == nil {
					return 0, &mirrun.Stop{Kind: mirrun.StopErr, Msg: "serial self-deadlock on " + sym}
				}
			}
		case "lock_release":
			delete(it.w.locks[sym], vals[1])
			for i, h := range it.held {
				if h.sym == sym && h.cell == vals[1] {
					it.held = append(it.held[:i], it.held[i+1:]...)
					break
				}
			}
			return 0, nil
		}
	}

	// Everything else is invocation-deterministic: the value depends only on
	// (seed, invocation, crate name, per-invocation sequence) so a shard or
	// schedule change can never alter the inputs an invocation computes with.
	it.seq++
	if in.Name == "cpu" {
		return uint64(it.shard), nil
	}
	raw := mirrun.Mix(it.w.seed, it.inv, mirrun.Hash(in.Name), it.seq)
	for i := range in.Args {
		if in.Args[i].Kind == lang.CrateBuf {
			buf := fr.Arrs[in.Args[i].Arr]
			for j := range buf {
				buf[j] = byte(mirrun.Mix(raw, uint64(j)))
			}
		}
	}
	return mirrun.Shape(in.Name, raw), nil
}
