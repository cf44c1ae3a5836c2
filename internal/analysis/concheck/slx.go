package concheck

import (
	"fmt"
	"sort"
	"strings"

	"kex/internal/safext/analyze"
	"kex/internal/safext/compile"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
)

// AnalyzeSLX classifies every map access site of an SLX program and
// returns the program's shard-safety report. It reads only each
// function's naive lowering as the compiler returned it (funcs[i].Naive,
// from before any pass) — the same IR the translation validator consumes
// — so every source-level map operation exists exactly once, before
// redundant-load elimination can hide a get that the bytecode still
// semantically performs on other paths.
func AnalyzeSLX(funcs []compile.MIRFuncArtifact, specs []compile.MapSpec) (*compile.ConcReport, error) {
	a := &slxAnalyzer{
		funcs:     make(map[string]*mir.Func, len(funcs)),
		mapBit:    make(map[string]uint),
		sites:     make(map[siteKey]*siteInfo),
		summaries: make(map[summaryKey]absVal),
		inFlight:  make(map[summaryKey]bool),
		recorded:  make(map[recordKey]bool),
	}
	if len(specs) > 64 {
		return nil, fmt.Errorf("concheck: program declares %d maps; analyzer supports 64", len(specs))
	}
	for i, s := range specs {
		a.mapBit[s.Name] = uint(i)
	}
	for _, fa := range funcs {
		a.funcs[fa.Name] = fa.Naive
	}
	if a.funcs["main"] == nil {
		return nil, fmt.Errorf("concheck: program has no main")
	}
	if _, err := a.analyzeFunc("main", nil, callCtx{}, 0, true); err != nil {
		return nil, err
	}
	return a.report(specs), nil
}

// absVal is the abstract value of one vreg: where its bits came from (key
// provenance) and which maps' reads taint it (lost-update dataflow).
type absVal struct {
	prov  Prov
	taint uint64 // bit i set: derives from a read of specs[i]
}

func (v absVal) join(o absVal) absVal {
	return absVal{prov: v.prov.Join(o.prov), taint: v.taint | o.taint}
}

// callCtx is the caller-side context a site inherits: locks held across the
// call (a lock set no state changes in place) and the control taint of the
// call site's block.
type callCtx struct {
	locks map[string]uint64 // map name -> const lock key held
	ctrl  uint64            // control-taint mask
}

const maxCallDepth = 64

// slxSiteOps maps SLX crate call names to their semantic site kinds.
var slxSiteOps = map[string]siteOp{
	"map_get": opRead, "map_set": opWrite, "map_del": opDelete,
	"map_inc": opAtomic, "emit": opEmit,
}

// summaryKey identifies one summary-mode function analysis: the callee and
// the rendered argument abstractions (absVal is a comparable value type, so
// the rendering is injective enough to never conflate distinct contexts).
type summaryKey struct {
	name string
	args string
}

type slxAnalyzer struct {
	funcs  map[string]*mir.Func
	mapBit map[string]uint
	sites  map[siteKey]*siteInfo
	order  []*siteInfo
	// summaries memoizes summary-mode return abstractions. Without it the
	// dataflow fixpoint re-descends into a callee every time it transfers
	// the calling block, which is
	// exponential in call depth — a self-recursive function never finishes
	// (each of 64 depth levels multiplies by its ≥2 passes). inFlight marks
	// summaries being computed: a cycle (recursion) degrades to the fully
	// tainted unknown instead of descending to the depth cap.
	summaries map[summaryKey]absVal
	inFlight  map[summaryKey]bool
	// recorded marks record-mode descents already performed, keyed by
	// callee, argument abstractions and calling context. recordSite merges
	// are idempotent (sites dedupe by function and pc; evidence joins are
	// monotone), so a repeat visit under an identical context contributes
	// nothing — and skipping it is what keeps record mode linear where the
	// call graph is recursive (fib-style binary recursion would otherwise
	// fan out 2^depth descents before the depth cap).
	recorded map[recordKey]bool
}

// recordKey identifies one record-mode descent: callee, rendered argument
// abstractions, and the canonical rendering of the calling context.
type recordKey struct {
	name string
	args string
	ctx  string
}

func (a *slxAnalyzer) bit(m string) uint64 {
	if i, ok := a.mapBit[m]; ok {
		return uint64(1) << i
	}
	return 0
}

// analyzeFunc analyzes one function under one calling context: one forward
// dataflow fixpoint (analyze.Forward) of the per-vreg values, per-array
// content taint, held locks and control taint, then one walk over the
// converged states that — in record mode only — registers every map access
// site. Summary-mode descents (from a caller's fixpoint, where its lock
// context is not yet known) must not record, or every callee site would
// appear once with an empty context and erase its guard evidence. Returns
// the function's return-value abstraction. Recursion compiles (the engine
// bounds frame depth at run time), so past the analyzer's own depth cap the
// call degrades to a fully tainted unknown instead of failing the build:
// the recursive body's sites were already recorded at shallower depths
// (sites dedupe by function and pc), and the all-ones taint keeps any value
// that escapes the cap conservatively windowed on every map.
func (a *slxAnalyzer) analyzeFunc(name string, args []absVal, ctx callCtx, depth int, record bool) (absVal, error) {
	if depth > maxCallDepth {
		return absVal{prov: unknownProv(), taint: ^uint64(0)}, nil
	}
	f := a.funcs[name]
	if f == nil {
		return absVal{}, fmt.Errorf("concheck: call to unknown function %s", name)
	}
	fs := &funcState{a: a, f: f, args: args, depth: depth}
	entry := &slxState{
		vals:  make([]absVal, f.NumVRegs+1),
		arrs:  make([]uint64, len(f.Arrays)),
		locks: ctx.locks,
		ctrl:  ctx.ctrl,
	}
	for i := range entry.vals {
		entry.vals[i] = absVal{prov: botProv()}
	}
	budget := analysisBudget
	flow, ok := analyze.Forward[*slxState](f, fs, entry, &budget)
	if fs.err != nil {
		return absVal{}, fs.err
	}
	if !ok {
		return absVal{}, fmt.Errorf("concheck: %s: analysis did not converge within its budget", name)
	}
	return fs.walk(flow, record)
}

// analysisBudget caps one function × context fixpoint (instructions
// transferred). The lattice is finite, so only a pathological program
// reaches it, and the build then fails rather than ship an unproven
// verdict.
const analysisBudget = 10_000_000

// funcState is one function × context analysis in flight: the Domain the
// dataflow engine runs.
type funcState struct {
	a     *slxAnalyzer
	f     *mir.Func
	args  []absVal
	depth int
	err   error // first failure of a callee analysis
}

// slxState is the abstract state at one program point: each vreg's value,
// each array's content taint, the locks held (map name -> constant lock
// key) and the control taint — the reads of every map a branch taken on
// the way here depended on.
type slxState struct {
	vals  []absVal
	arrs  []uint64
	locks map[string]uint64
	ctrl  uint64
}

func (st *slxState) val(v mir.VReg) absVal {
	if v <= 0 || int(v) >= len(st.vals) {
		return absVal{prov: botProv()}
	}
	return st.vals[v]
}

// operandB resolves the B-side of an instruction (vreg or folded imm).
func (st *slxState) operandB(in *mir.Insn) absVal {
	if in.BIsImm {
		return absVal{prov: constProv(uint64(in.BImm))}
	}
	return st.val(in.B)
}

// callArgs resolves a user call's arguments.
func (st *slxState) callArgs(in *mir.Insn) []absVal {
	args := make([]absVal, len(in.Args))
	for i := range in.Args {
		args[i] = st.argVal(&in.Args[i])
	}
	return args
}

// argVal resolves one crate/user call argument.
func (st *slxState) argVal(ar *mir.Arg) absVal {
	switch {
	case ar.IsImm:
		return absVal{prov: constProv(uint64(ar.Imm))}
	case ar.Kind == lang.CrateInt, ar.Kind == lang.CrateSock:
		return st.val(ar.V)
	case ar.Kind == lang.CrateBuf:
		if ar.Arr >= 0 && ar.Arr < len(st.arrs) {
			return absVal{prov: unknownProv(), taint: st.arrs[ar.Arr]}
		}
	}
	return absVal{prov: unknownProv()}
}

// Copy shares src's lock set: lock sets are replaced, never changed in
// place.
func (fs *funcState) Copy(dst, src *slxState) *slxState {
	if dst == nil {
		dst = new(slxState)
	}
	dst.vals = append(dst.vals[:0], src.vals...)
	dst.arrs = append(dst.arrs[:0], src.arrs...)
	dst.locks, dst.ctrl = src.locks, src.ctrl
	return dst
}

// Transfer runs a block's instructions, then adds the taint of a
// conditional terminator's operands to the control taint: every block
// downstream of a branch on map-derived data is control-dependent on that
// read (the check-then-act pattern).
func (fs *funcState) Transfer(b *mir.Block, st *slxState) *slxState {
	for i := range b.Insns {
		fs.step(st, &b.Insns[i])
	}
	if t := &b.Term; t.Kind == mir.TermCond {
		st.ctrl |= st.val(t.A).taint
		if !t.BIsImm {
			st.ctrl |= st.val(t.B).taint
		}
	}
	return st
}

func (fs *funcState) Edge(_ *mir.Block, _ mir.BlockID, st *slxState) *slxState { return st }

// Join merges values and taints by union and locks by intersection: a lock
// counts only when held, on the same cell, on every path.
func (fs *funcState) Join(old, in *slxState) (*slxState, bool) {
	locks, changed := intersectLocks(old.locks, in.locks)
	old.locks = locks
	for i := range old.vals {
		if j := old.vals[i].join(in.vals[i]); j != old.vals[i] {
			old.vals[i], changed = j, true
		}
	}
	for i := range old.arrs {
		if old.arrs[i]|in.arrs[i] != old.arrs[i] {
			old.arrs[i] |= in.arrs[i]
			changed = true
		}
	}
	if old.ctrl|in.ctrl != old.ctrl {
		old.ctrl |= in.ctrl
		changed = true
	}
	return old, changed
}

// Widen is Join: the lattice has finite height.
func (fs *funcState) Widen(old, in *slxState, _ *mir.Loop) (*slxState, bool) { return fs.Join(old, in) }

// step applies one instruction: its value transfer, and the lock set's
// change at the sync section's acquire and release.
func (fs *funcState) step(st *slxState, in *mir.Insn) {
	var v absVal
	switch in.Op {
	case mir.OpParam:
		v = absVal{prov: unknownProv()}
		if i := int(in.Imm); i >= 0 && i < len(fs.args) {
			v = fs.args[i]
		}
	case mir.OpConst:
		v = absVal{prov: constProv(uint64(in.Imm))}
	case mir.OpCopy:
		v = st.val(in.A)
	case mir.OpNeg:
		av := st.val(in.A)
		v = absVal{prov: transferBin("-", constProv(0), av.prov), taint: av.taint}
	case mir.OpBin:
		av, bv := st.val(in.A), st.operandB(in)
		v = absVal{prov: transferBin(in.Bin, av.prov, bv.prov), taint: av.taint | bv.taint}
	case mir.OpCmp:
		av, bv := st.val(in.A), st.operandB(in)
		v = absVal{prov: degrade(av.prov.Join(bv.prov)), taint: av.taint | bv.taint}
	case mir.OpArrLoad:
		v = absVal{prov: unknownProv()}
		if in.Arr >= 0 && in.Arr < len(st.arrs) {
			v.taint = st.arrs[in.Arr]
		}
	case mir.OpArrStore:
		if in.Arr >= 0 && in.Arr < len(st.arrs) {
			st.arrs[in.Arr] |= st.operandB(in).taint
		}
		return
	case mir.OpCallCrate:
		v = fs.crateResult(st, in)
		fs.lockStep(st, in)
	case mir.OpCallUser:
		ret, err := fs.userCall(st, in)
		if err != nil && fs.err == nil {
			fs.err = err
		}
		v = ret
	default:
		return
	}
	if in.Dst > 0 && int(in.Dst) < len(st.vals) {
		st.vals[in.Dst] = v
	}
}

// lockStep updates the held locks at a sync section's acquire or release.
// A lock taken on a non-constant key proves no mutual exclusion (shards
// may take different cells), so it holds nothing.
func (fs *funcState) lockStep(st *slxState, in *mir.Insn) {
	if len(in.Args) == 0 || in.Args[0].Kind != lang.CrateMap {
		return
	}
	sym := in.Args[0].Sym
	switch in.Name {
	case "lock_acquire":
		if len(in.Args) > 1 {
			if c, ok := st.argVal(&in.Args[1]).prov.IsConst(); ok {
				st.locks = setLock(st.locks, sym, c, true)
				return
			}
		}
		st.locks = setLock(st.locks, sym, 0, false)
	case "lock_release":
		st.locks = setLock(st.locks, sym, 0, false)
	}
}

// setLock returns locks with sym held on key, or released. States share
// lock sets, so a change builds a new one.
func setLock(locks map[string]uint64, sym string, key uint64, held bool) map[string]uint64 {
	if k, ok := locks[sym]; ok == held && k == key {
		return locks
	}
	out := make(map[string]uint64, len(locks)+1)
	for k, v := range locks {
		if k != sym {
			out[k] = v
		}
	}
	if held {
		out[sym] = key
	}
	return out
}

// walk replays every reached block from its converged entry state, in
// place, and returns the join of the function's return values. In record
// mode it registers each map access site with the locks and control taint in
// force there, and descends into callees with that context. pc numbers
// instructions and terminators in layout order, reached or not.
func (fs *funcState) walk(flow *analyze.Flow[*slxState], record bool) (absVal, error) {
	ret := absVal{prov: botProv()}
	pc := 0
	for _, b := range fs.f.Blocks {
		st, reached := flow.At(b.ID)
		if !reached {
			pc += len(b.Insns) + 1
			continue
		}
		for i := range b.Insns {
			x := &b.Insns[i]
			pc++
			if record {
				switch {
				case x.Op == mir.OpCallUser:
					if _, err := fs.userCallInCtx(st, x, callCtx{locks: st.locks, ctrl: st.ctrl}); err != nil {
						return absVal{}, err
					}
				case x.Op == mir.OpCallCrate && len(x.Args) > 0 && x.Args[0].Kind == lang.CrateMap:
					if _, ok := slxSiteOps[x.Name]; ok {
						fs.recordSite(st, x, pc, x.Args[0].Sym)
					}
				}
			}
			fs.step(st, x)
		}
		pc++ // terminator
		if t := &b.Term; t.Kind == mir.TermRet {
			if t.RetIsImm {
				ret = ret.join(absVal{prov: constProv(uint64(t.RetImm))})
			} else {
				ret = ret.join(st.val(t.Ret))
			}
		}
	}
	if fs.err != nil {
		return absVal{}, fs.err
	}
	if ret.prov.kind == provBot {
		ret.prov = unknownProv()
	}
	return ret, nil
}

// crateResult abstracts one crate call's result.
func (fs *funcState) crateResult(st *slxState, in *mir.Insn) absVal {
	if len(in.Args) > 0 && in.Args[0].Kind == lang.CrateMap {
		sym := in.Args[0].Sym
		switch in.Name {
		case "map_get", "map_inc":
			// The value read from (or the post-increment value of) map sym:
			// writing it back opens the window.
			return absVal{prov: unknownProv(), taint: fs.a.bit(sym)}
		}
		return absVal{prov: unknownProv()}
	}
	if in.Name == "cpu" {
		return absVal{prov: cpuProv()}
	}
	if ctxSources[in.Name] {
		v := absVal{prov: ctxProv()}
		for i := range in.Args {
			v.taint |= st.argVal(&in.Args[i]).taint
		}
		return v
	}
	v := absVal{prov: unknownProv()}
	for i := range in.Args {
		v.taint |= st.argVal(&in.Args[i]).taint
	}
	return v
}

// userCall descends into a callee for its return abstraction only (summary
// mode): the calling context does not affect return values, and sites are
// not recorded here.
func (fs *funcState) userCall(st *slxState, in *mir.Insn) (absVal, error) {
	args := st.callArgs(in)
	key := summaryKey{name: in.Name, args: fmt.Sprint(args)}
	if v, ok := fs.a.summaries[key]; ok {
		return v, nil
	}
	if fs.a.inFlight[key] {
		// Recursive cycle: the callee's summary depends on itself. Degrade
		// to the fully tainted unknown — same sound over-approximation as
		// the depth cap, reached without the exponential descent.
		return absVal{prov: unknownProv(), taint: ^uint64(0)}, nil
	}
	fs.a.inFlight[key] = true
	v, err := fs.a.analyzeFunc(in.Name, args, callCtx{}, fs.depth+1, false)
	delete(fs.a.inFlight, key)
	if err != nil {
		return absVal{}, err
	}
	fs.a.summaries[key] = v
	return v, nil
}

// intersectLocks returns the locks of a also held, on the same cell, in b,
// and whether that drops any; a itself is left as it is.
func intersectLocks(a, b map[string]uint64) (map[string]uint64, bool) {
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			out := make(map[string]uint64, len(a))
			for k, v := range a {
				if bv, ok := b[k]; ok && bv == v {
					out[k] = v
				}
			}
			return out, true
		}
	}
	return a, false
}

func (fs *funcState) userCallInCtx(st *slxState, in *mir.Insn, ctx callCtx) (absVal, error) {
	args := st.callArgs(in)
	rk := recordKey{name: in.Name, args: fmt.Sprint(args), ctx: renderCtx(ctx)}
	if fs.a.recorded[rk] {
		return absVal{}, nil // identical visit already merged its evidence
	}
	fs.a.recorded[rk] = true
	return fs.a.analyzeFunc(in.Name, args, ctx, fs.depth+1, true)
}

// renderCtx canonicalizes a calling context for recordKey: lock entries in
// sorted key order plus the control-taint mask.
func renderCtx(ctx callCtx) string {
	if len(ctx.locks) == 0 && ctx.ctrl == 0 {
		return ""
	}
	keys := make([]string, 0, len(ctx.locks))
	for k := range ctx.locks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%d;", k, ctx.locks[k])
	}
	fmt.Fprintf(&sb, "|%d", ctx.ctrl)
	return sb.String()
}

// recordSite merges one visit's evidence into the site's accumulator.
func (fs *funcState) recordSite(st *slxState, in *mir.Insn, pc int, sym string) {
	locks, ctrl := st.locks, st.ctrl
	key := siteKey{fn: fs.f.Name, pc: pc}
	s := fs.a.sites[key]
	if s == nil {
		s = &siteInfo{key: key, mapName: sym, sop: slxSiteOps[in.Name], op: in.Name, line: in.Line,
			keyProv: botProv(), lockedAll: true, lockConsistent: true, ord: len(fs.a.order)}
		fs.a.sites[key] = s
		fs.a.order = append(fs.a.order, s)
	}

	var keyProv Prov
	if len(in.Args) > 1 && in.Name != "emit" {
		keyProv = st.argVal(&in.Args[1]).prov
	} else {
		keyProv = unknownProv()
	}
	s.keyProv = s.keyProv.Join(keyProv)

	switch in.Name {
	case "map_set":
		if len(in.Args) > 2 {
			s.vTaint |= st.argVal(&in.Args[2]).taint
		}
		s.vTaint |= ctrl
	case "map_del":
		// A delete is blind unless control-dependent on a read of the same
		// map (check-then-act) — the racy map_delete pattern.
		s.vTaint |= ctrl
	case "map_inc":
		// Atomic fetch-add: never a window by itself, but its key matters
		// for the cpu-keyed proof, handled in classification.
	}

	lockKey, locked := uint64(0), false
	if locks != nil {
		lockKey, locked = locks[sym]
	}
	if !locked {
		s.lockedAll = false
	} else if s.visited && (!s.lockedAll || s.lockKey != lockKey) {
		s.lockConsistent = s.lockConsistent && s.lockKey == lockKey
	} else if !s.visited {
		s.lockKey = lockKey
	}
	s.visited = true
}

// ---- classification ---------------------------------------------------------

// slxKeyBits returns the installed key width of an SLX map kind: the
// runtime installs array (and percpu array) maps with 4-byte keys,
// everything else keys on the full 64-bit scalar.
func slxKeyBits(kind string) uint {
	if kind == "array" || kind == "percpu" {
		return 32
	}
	return 64
}

// report classifies the accumulated sites and assembles the program report
// through the shared classifier.
func (a *slxAnalyzer) report(specs []compile.MapSpec) *compile.ConcReport {
	rep := &compile.ConcReport{Verdict: compile.VerdictShardSafe}
	if len(specs) == 0 {
		return rep
	}

	byMap := make(map[string][]*siteInfo)
	for _, s := range a.order {
		byMap[s.mapName] = append(byMap[s.mapName], s)
	}
	for _, spec := range specs {
		sites := byMap[spec.Name]
		sort.Slice(sites, func(i, j int) bool { return sites[i].ord < sites[j].ord })
		info := mapInfo{
			Name:    spec.Name,
			Kind:    spec.Kind,
			KeyBits: slxKeyBits(spec.Kind),
			Bit:     a.bit(spec.Name),
			PerCPU:  spec.Kind == "percpu" || spec.Kind == "percpu_hash",
		}
		rep.Merge(classifyMap(info, sites))
	}
	return rep
}
