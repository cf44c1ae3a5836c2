package concheck

import (
	"fmt"

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
// emit count) against a serial baseline. The contract being tested:
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
	funcs := make(map[string]*mir.Func)
	for _, fn := range checked.File.Funcs {
		mf, err := mir.LowerFunc(fn, checked, nil)
		if err != nil {
			return nil, fmt.Errorf("oracle: lower %s: %w", fn.Name, err)
		}
		funcs[fn.Name] = mf
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
	base, err := runSchedule(funcs, main, 1, invocations, 0, seed)
	if err != nil {
		return nil, err
	}
	for name, kind := range main.MapKinds {
		rep.Maps[name] = &OracleMapResult{
			Kind:      kind,
			SerialSum: base.sumOf(name),
			SerialEmu: base.emits[name],
		}
	}

	for sched := 0; sched < schedules; sched++ {
		w, err := runSchedule(funcs, main, shards, invocations, uint64(sched)+1, seed)
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
	funcs  map[string]*mir.Func
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
	if percpuKind(w.kinds[sym]) {
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

func percpuKind(kind string) bool { return kind == "percpu" || kind == "percpu_hash" }

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
func runSchedule(funcs map[string]*mir.Func, main *mir.Func,
	shards, invocations int, schedSeed, seed uint64) (*oracleWorld, error) {
	w := &oracleWorld{
		funcs:  funcs,
		kinds:  main.MapKinds,
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
		for inv := 0; inv < invocations; inv++ {
			it := &oInterp{w: w, shard: 0, inv: uint64(inv)}
			if err := it.invoke(main); err != nil {
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
			for _, inv := range invs {
				it := &oInterp{w: w, t: t, shard: t.id, inv: uint64(inv)}
				if err := it.invoke(main); err != nil {
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

// oInterp executes one invocation's naive MIR on one shard.
type oInterp struct {
	w     *oracleWorld
	t     *shardTask // nil in the serial baseline
	shard int
	inv   uint64 // invocation id: the sole source of ctx-value entropy
	seq   uint64 // per-invocation crate call sequence
	depth int
	fuel  int
	held  []heldLock // locks held, for abort cleanup
}

type heldLock struct {
	sym  string
	cell uint64
}

// invocationFuel bounds one invocation; corpus programs run a few thousand
// steps, so this is pure runaway protection.
const invocationFuel = 1 << 18

var errOracleTrap = fmt.Errorf("oracle: invocation trapped")

func (it *oInterp) invoke(main *mir.Func) error {
	it.fuel = invocationFuel
	_, err := it.call(main, []uint64{it.inv})
	if err == errOracleTrap {
		// A trapped invocation aborts cleanly (the engine unwinds its
		// cleanups); release anything it still holds so peers can progress.
		for _, h := range it.held {
			delete(it.w.locks[h.sym], h.cell)
		}
		it.held = nil
		return nil
	}
	return err
}

type oFrame struct {
	f     *mir.Func
	vregs []uint64
	arrs  [][]byte
}

func (it *oInterp) call(f *mir.Func, args []uint64) (uint64, error) {
	if it.depth >= 64 {
		return 0, fmt.Errorf("oracle: call depth limit in %s", f.Name)
	}
	it.depth++
	defer func() { it.depth-- }()

	fr := &oFrame{f: f, vregs: make([]uint64, f.NumVRegs+1)}
	fr.arrs = make([][]byte, len(f.Arrays))
	for i, n := range f.Arrays {
		fr.arrs[i] = make([]byte, n)
	}
	if len(f.Blocks) == 0 {
		return 0, fmt.Errorf("oracle: %s has no blocks", f.Name)
	}

	cur := f.Blocks[0]
	for {
		for i := range cur.Insns {
			if err := it.step(fr, &cur.Insns[i], args); err != nil {
				return 0, err
			}
		}
		if it.fuel--; it.fuel < 0 {
			return 0, fmt.Errorf("oracle: fuel exhausted in %s", f.Name)
		}
		t := &cur.Term
		switch t.Kind {
		case mir.TermJmp:
			cur = f.BlockByID(t.To)
		case mir.TermCond:
			a := fr.vregs[t.A]
			b := uint64(t.BImm)
			if !t.BIsImm {
				b = fr.vregs[t.B]
			}
			if oCmp(t.Rel, t.Signed, a, b) {
				cur = f.BlockByID(t.To)
			} else {
				cur = f.BlockByID(t.Else)
			}
		case mir.TermRet:
			if t.RetIsImm {
				return uint64(t.RetImm), nil
			}
			return fr.vregs[t.Ret], nil
		case mir.TermTrap:
			return 0, errOracleTrap
		default:
			return 0, fmt.Errorf("oracle: unterminated block in %s", f.Name)
		}
		if cur == nil {
			return 0, fmt.Errorf("oracle: jump to missing block in %s", f.Name)
		}
	}
}

func (it *oInterp) step(fr *oFrame, in *mir.Insn, args []uint64) error {
	if it.fuel--; it.fuel < 0 {
		return fmt.Errorf("oracle: fuel exhausted in %s", fr.f.Name)
	}
	set := func(v uint64) {
		if in.Dst != 0 {
			fr.vregs[in.Dst] = v
		}
	}
	b := func() uint64 {
		if in.BIsImm {
			return uint64(in.BImm)
		}
		return fr.vregs[in.B]
	}
	idx := func() uint64 {
		if in.IdxIsImm {
			return uint64(in.IdxImm)
		}
		return fr.vregs[in.A]
	}

	switch in.Op {
	case mir.OpParam:
		var v uint64
		if i := int(in.Imm); i >= 0 && i < len(args) {
			v = args[i]
		}
		set(v)
	case mir.OpConst:
		set(uint64(in.Imm))
	case mir.OpCopy:
		set(fr.vregs[in.A])
	case mir.OpNeg:
		set(-fr.vregs[in.A])
	case mir.OpBin:
		set(oBin(in.Bin, fr.vregs[in.A], b()))
	case mir.OpCmp:
		var r uint64
		if oCmp(in.Bin, in.Signed, fr.vregs[in.A], b()) {
			r = 1
		}
		set(r)
	case mir.OpArrLoad:
		i := idx()
		if i >= uint64(len(fr.arrs[in.Arr])) {
			return errOracleTrap // the naive build always checks bounds
		}
		set(uint64(fr.arrs[in.Arr][i]))
	case mir.OpArrStore:
		i := idx()
		if i >= uint64(len(fr.arrs[in.Arr])) {
			return errOracleTrap
		}
		fr.arrs[in.Arr][i] = byte(b())
	case mir.OpArrZero:
		arr := fr.arrs[in.Arr]
		for i := range arr {
			arr[i] = 0
		}
	case mir.OpCallCrate:
		v, err := it.crate(fr, in)
		if err != nil {
			return err
		}
		set(v)
	case mir.OpCallUser:
		callee, ok := it.w.funcs[in.Name]
		if !ok {
			return fmt.Errorf("oracle: call to unknown function %s", in.Name)
		}
		cargs := make([]uint64, 0, len(in.Args))
		for i := range in.Args {
			a := &in.Args[i]
			if a.IsImm {
				cargs = append(cargs, uint64(a.Imm))
			} else {
				cargs = append(cargs, fr.vregs[a.V])
			}
		}
		v, err := it.call(callee, cargs)
		if err != nil {
			return err
		}
		set(v)
	default:
		return fmt.Errorf("oracle: unknown instruction in %s", fr.f.Name)
	}
	return nil
}

// crate models one crate call. Shared-map operations pause at the
// interleaving point first; map_inc is one indivisible step after its pause,
// while a get/set pair pauses twice — the window the adversary splits.
func (it *oInterp) crate(fr *oFrame, in *mir.Insn) (uint64, error) {
	vals := make([]uint64, len(in.Args))
	for i := range in.Args {
		a := &in.Args[i]
		switch {
		case a.IsImm:
			vals[i] = uint64(a.Imm)
		case a.Kind == lang.CrateStr:
			vals[i] = oHashStr(a.Str)
		case a.Kind == lang.CrateMap:
			vals[i] = oHashStr(a.Sym)
		case a.Kind == lang.CrateBuf:
			vals[i] = 0 // content-independent: keeps values schedule-free
		default:
			vals[i] = fr.vregs[a.V]
		}
	}

	if len(in.Args) > 0 && in.Args[0].Kind == lang.CrateMap {
		sym := in.Args[0].Sym
		sharedMap := !percpuKind(it.w.kinds[sym]) && it.w.kinds[sym] != "ringbuf"
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
					return 0, fmt.Errorf("oracle: serial self-deadlock on %s", sym)
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
	switch in.Name {
	case "cpu":
		return uint64(it.shard), nil
	case "trap":
		return 0, errOracleTrap
	}
	raw := oMix(it.w.seed, it.inv, oHashStr(in.Name), it.seq)
	for i := range in.Args {
		if in.Args[i].Kind == lang.CrateBuf {
			buf := fr.arrs[in.Args[i].Arr]
			for j := range buf {
				buf[j] = byte(oMix(raw, uint64(j)))
			}
		}
	}
	return oShape(in.Name, raw), nil
}

// oShape matches each crate call's natural result range (the same shaping
// transval's model uses) so derived indices stay plausible.
func oShape(name string, v uint64) uint64 {
	switch name {
	case "pkt_read_u8":
		return v & 0xff
	case "pkt_read_u16":
		return v & 0xffff
	case "pkt_read_u32":
		return v & 0xffffffff
	case "pkt_len":
		return v%1486 + 14
	case "uid":
		return v & 0xffff
	case "sk_lookup_tcp", "sk_lookup_udp", "mem_alloc":
		return v | 1
	case "sk_ok", "str_eq":
		return v & 1
	case "rand":
		return v & 0xffffffff
	}
	return v
}

// oBin evaluates one binary operation with the engine's semantics.
func oBin(op string, a, b uint64) uint64 {
	switch op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	case "/":
		if b == 0 {
			return 0
		}
		return a / b
	case "%":
		if b == 0 {
			return a
		}
		return a % b
	case "&":
		return a & b
	case "|":
		return a | b
	case "^":
		return a ^ b
	case "<<":
		return a << (b & 63)
	case ">>":
		return a >> (b & 63)
	}
	return 0
}

func oCmp(rel string, signed bool, a, b uint64) bool {
	if signed {
		sa, sb := int64(a), int64(b)
		switch rel {
		case "==":
			return sa == sb
		case "!=":
			return sa != sb
		case "<":
			return sa < sb
		case "<=":
			return sa <= sb
		case ">":
			return sa > sb
		case ">=":
			return sa >= sb
		}
		return false
	}
	switch rel {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

// oMix is splitmix64 over an FNV accumulation — the repo's standard
// deterministic entropy source, re-derived so the oracle shares no code
// with the analyzers it is checking.
func oMix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v
		h *= 0x100000001b3
		z := h + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	return h
}

func oHashStr(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
