package concheck

import (
	"fmt"
	"strings"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/verifier"
	"kex/internal/safext/compile"
)

// AnalyzeBPF classifies every map access site of an eBPF bytecode program:
// lookup/update/delete helper calls, loads and stores through map-value
// pointers, and atomic adds. The analysis is its own forward dataflow pass
// over the bytecode (key provenance + map taint, the same lattice the SLX
// side uses), leaning on the verifier's state snapshots where the local
// tracking runs out — a spilled-and-reloaded key constant, a map handle the
// pass lost track of. mapKinds maps each map name to its registry kind
// string ("hash", "percpu_array", ...); states may be nil when the verifier
// ran without CaptureState.
func AnalyzeBPF(prog *isa.Program, reg *helpers.Registry, mapMeta map[string]*verifier.MapMeta,
	mapKinds map[string]string, states *verifier.StateTable) (*compile.ConcReport, error) {
	a := &bpfAnalyzer{
		prog:   prog,
		reg:    reg,
		meta:   mapMeta,
		kinds:  mapKinds,
		states: states,
		mapBit: make(map[string]uint),
		sites:  make(map[siteKey]*siteInfo),
	}
	// Taint-mask bits in first-reference order: deterministic, and only
	// maps the program can actually touch get one.
	for _, ins := range prog.Insns {
		if ins.IsMapRef() {
			if _, ok := a.mapBit[ins.MapName]; !ok {
				if len(a.mapOrder) >= 64 {
					return nil, fmt.Errorf("concheck: program references more than 64 maps")
				}
				a.mapBit[ins.MapName] = uint(len(a.mapOrder))
				a.mapOrder = append(a.mapOrder, ins.MapName)
			}
		}
	}
	entry := bpfState{ctrl: 0}
	for i := range entry.regs {
		entry.regs[i] = bval{kind: bScalar, prov: unknownProv()}
	}
	entry.regs[isa.R1] = bval{kind: bCtxPtr}
	entry.regs[isa.R10] = bval{kind: bStackPtr, off: verifier.StackSize}
	entry.slots = map[int64]bval{}
	if _, err := a.analyzeFunc(0, entry, 0); err != nil {
		return nil, err
	}
	return a.reportBPF(), nil
}

// bkind is the shape of one abstract register value.
type bkind uint8

const (
	bScalar   bkind = iota
	bCtxPtr         // the program context pointer: loads through it are ctx
	bMapPtr         // a ConstPtrToMap handle from LDDW
	bMapVal         // a PtrToMapValue from a lookup, carrying its key
	bStackPtr       // a pointer into the current frame's stack
)

// bval is one abstract register or stack-slot value.
type bval struct {
	kind    bkind
	prov    Prov   // scalar provenance
	taint   uint64 // which maps' reads this value derives from
	mapName string // bMapPtr / bMapVal
	keyProv Prov   // bMapVal: provenance of the lookup key
	off     int64  // bStackPtr: byte offset (frame bottom = 0, r10 = StackSize)
}

func scalar(p Prov, taint uint64) bval { return bval{kind: bScalar, prov: p, taint: taint} }

// join merges two abstract values; mismatched shapes collapse to an
// unknown scalar that keeps both taints.
func (v bval) join(o bval) bval {
	if v.kind != o.kind {
		return scalar(unknownProv(), v.taint|o.taint)
	}
	switch v.kind {
	case bMapPtr, bMapVal:
		if v.mapName != o.mapName {
			return scalar(unknownProv(), v.taint|o.taint)
		}
		out := v
		out.keyProv = v.keyProv.Join(o.keyProv)
		out.taint = v.taint | o.taint
		return out
	case bStackPtr:
		if v.off != o.off {
			return scalar(unknownProv(), v.taint|o.taint)
		}
		out := v
		out.taint |= o.taint
		return out
	case bCtxPtr:
		return v
	}
	return bval{kind: bScalar, prov: v.prov.Join(o.prov), taint: v.taint | o.taint}
}

// bpfState is the abstract machine state entering one instruction.
type bpfState struct {
	regs  [isa.NumRegisters]bval
	slots map[int64]bval // written stack bytes of the active frame, by offset
	ctrl  uint64         // control-taint mask

	// The single held spin lock (the kernel allows at most one).
	lockHeld bool
	lockMap  string
	lockKey  uint64
}

func (s *bpfState) clone() bpfState {
	out := *s
	out.slots = make(map[int64]bval, len(s.slots))
	for k, v := range s.slots {
		out.slots[k] = v
	}
	return out
}

// join merges o into s, reporting whether s changed. Slots present in only
// one state are dropped (reads of them degrade to unknown, which is sound).
func (s *bpfState) join(o *bpfState) bool {
	changed := false
	for i := range s.regs {
		if nv := s.regs[i].join(o.regs[i]); nv != s.regs[i] {
			s.regs[i] = nv
			changed = true
		}
	}
	for k, v := range s.slots {
		ov, ok := o.slots[k]
		if !ok {
			delete(s.slots, k)
			changed = true
			continue
		}
		if nv := v.join(ov); nv != v {
			s.slots[k] = nv
			changed = true
		}
	}
	if s.ctrl|o.ctrl != s.ctrl {
		s.ctrl |= o.ctrl
		changed = true
	}
	if s.lockHeld && (!o.lockHeld || s.lockMap != o.lockMap || s.lockKey != o.lockKey) {
		s.lockHeld = false
		changed = true
	}
	return changed
}

type bpfAnalyzer struct {
	prog     *isa.Program
	reg      *helpers.Registry
	meta     map[string]*verifier.MapMeta
	kinds    map[string]string
	states   *verifier.StateTable
	mapBit   map[string]uint
	mapOrder []string
	sites    map[siteKey]*siteInfo
	order    []*siteInfo
}

func (a *bpfAnalyzer) bit(m string) uint64 {
	if i, ok := a.mapBit[m]; ok {
		return uint64(1) << i
	}
	return 0
}

// bpfCtxSources are the helpers whose return value derives from the
// invocation context — observable identically on any shard.
var bpfCtxSources = map[string]bool{
	"bpf_ktime_get_ns": true, "bpf_ktime_get_tai_ns": true, "bpf_jiffies64": true,
	"bpf_get_prandom_u32": true, "bpf_get_current_pid_tgid": true,
	"bpf_get_current_uid_gid": true, "bpf_get_current_cgroup_id": true,
	"bpf_get_socket_cookie": true, "bpf_get_current_task": true,
	"bpf_get_numa_node_id": true, "bpf_get_attach_cookie": true,
	"bpf_get_func_ip": true,
}

// analyzeFunc runs the joined-state worklist over one bytecode function
// (entry..its exits), recursing into BPF-to-BPF callees. Returns the
// function's abstract r0.
func (a *bpfAnalyzer) analyzeFunc(entry int, init bpfState, depth int) (bval, error) {
	if depth > 8 {
		// Deeper than the engine's own frame limit: degrade instead of
		// failing — the callee's sites were recorded at shallower depths.
		return scalar(unknownProv(), ^uint64(0)), nil
	}
	states := map[int]*bpfState{}
	st0 := init.clone()
	states[entry] = &st0
	work := []int{entry}
	ret := bval{kind: bScalar, prov: botProv()}
	steps := 0

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in, ok := states[pc]
		if !ok || pc < 0 || pc >= len(a.prog.Insns) {
			continue
		}
		if steps++; steps > 1<<16 {
			return scalar(unknownProv(), 0), fmt.Errorf("concheck: dataflow did not converge at pc %d", pc)
		}
		st := in.clone()
		ins := a.prog.Insns[pc]

		push := func(target int, s *bpfState) {
			if old, ok := states[target]; ok {
				if old.join(s) {
					work = append(work, target)
				}
				return
			}
			ns := s.clone()
			states[target] = &ns
			work = append(work, target)
		}

		switch {
		case ins.IsExit():
			ret = ret.join(st.regs[isa.R0])
			continue
		case ins.IsBPFCall():
			callee := pc + 1 + int(ins.Imm)
			r0, err := a.callBPF(callee, &st, depth)
			if err != nil {
				return ret, err
			}
			st.regs[isa.R0] = r0
			a.clobberCaller(&st)
			push(pc+1, &st)
			continue
		case ins.IsCall():
			if err := a.helperCall(pc, ins, &st); err != nil {
				return ret, err
			}
			push(pc+1, &st)
			continue
		case ins.IsJump():
			if ins.IsUnconditionalJump() {
				push(pc+1+int(ins.Off), &st)
				continue
			}
			// A conditional branch on map-derived data control-taints both
			// arms (conservatively to the end of the function — a superset
			// of the true control-dependence region, never a subset).
			st.ctrl |= st.regs[ins.Dst].taint
			if ins.UsesX() {
				st.ctrl |= st.regs[ins.Src].taint
			}
			push(pc+1+int(ins.Off), &st)
			push(pc+1, &st)
			continue
		default:
			a.stepALU(pc, ins, &st)
			push(pc+1, &st)
		}
	}
	if ret.kind == bScalar && ret.prov.kind == provBot {
		ret.prov = unknownProv()
	}
	return ret, nil
}

// callBPF recurses into a BPF-to-BPF callee with the caller's r1-r5.
func (a *bpfAnalyzer) callBPF(callee int, st *bpfState, depth int) (bval, error) {
	var init bpfState
	for i := range init.regs {
		init.regs[i] = scalar(unknownProv(), 0)
	}
	for r := isa.R1; r <= isa.R5; r++ {
		v := st.regs[r]
		if v.kind == bStackPtr {
			// The callee sees a pointer into the caller's frame; this
			// pass keeps per-frame slots, so its content is opaque there.
			v = scalar(unknownProv(), v.taint)
		}
		init.regs[r] = v
	}
	init.regs[isa.R10] = bval{kind: bStackPtr, off: verifier.StackSize}
	init.slots = map[int64]bval{}
	init.ctrl = st.ctrl
	init.lockHeld, init.lockMap, init.lockKey = st.lockHeld, st.lockMap, st.lockKey
	return a.analyzeFunc(callee, init, depth+1)
}

// clobberCaller models a returned BPF call: r1-r5 scratch, and any stack
// slot the callee could reach through a passed pointer is stale.
func (a *bpfAnalyzer) clobberCaller(st *bpfState) {
	passedStack := false
	for r := isa.R1; r <= isa.R5; r++ {
		if st.regs[r].kind == bStackPtr {
			passedStack = true
		}
		st.regs[r] = scalar(unknownProv(), 0)
	}
	if passedStack {
		st.slots = map[int64]bval{}
	}
}

// stepALU interprets one non-control instruction.
func (a *bpfAnalyzer) stepALU(pc int, ins isa.Instruction, st *bpfState) {
	switch ins.Class() {
	case isa.ClassLD: // LDDW
		if ins.IsMapRef() {
			st.regs[ins.Dst] = bval{kind: bMapPtr, mapName: ins.MapName}
		} else {
			st.regs[ins.Dst] = scalar(constProv(uint64(ins.Const)), 0)
		}
	case isa.ClassALU, isa.ClassALU64:
		a.stepArith(ins, st)
	case isa.ClassLDX:
		src := st.regs[ins.Src]
		switch src.kind {
		case bStackPtr:
			if v, ok := st.slots[src.off+int64(ins.Off)]; ok {
				st.regs[ins.Dst] = v
			} else {
				st.regs[ins.Dst] = scalar(unknownProv(), 0)
			}
		case bMapVal:
			// Reading the looked-up value: the loaded scalar derives from
			// that map — the first half of a lost-update window.
			st.regs[ins.Dst] = scalar(unknownProv(), src.taint|a.bit(src.mapName))
		case bCtxPtr:
			st.regs[ins.Dst] = scalar(ctxProv(), 0)
		default:
			st.regs[ins.Dst] = scalar(unknownProv(), src.taint)
		}
	case isa.ClassST, isa.ClassSTX:
		dst := st.regs[ins.Dst]
		var val bval
		if ins.Class() == isa.ClassST {
			val = scalar(constProv(uint64(uint32(ins.Imm))), 0)
		} else {
			val = st.regs[ins.Src]
		}
		switch {
		case ins.Mode() == isa.ModeATOMIC && dst.kind == bMapVal:
			// One indivisible fetch-add through the value pointer.
			a.record(pc, dst.mapName, opAtomic, "atomic-add", dst.keyProv, 0, st)
			if ins.Imm&isa.AtomicFetch != 0 {
				st.regs[ins.Src] = scalar(unknownProv(), a.bit(dst.mapName))
			}
		case dst.kind == bStackPtr:
			st.slots[dst.off+int64(ins.Off)] = val
		case dst.kind == bMapVal:
			// An in-place store through the looked-up value pointer: a
			// write site keyed by the lookup's key.
			a.record(pc, dst.mapName, opWrite, "store", dst.keyProv, val.taint|st.ctrl, st)
		}
	}
}

// aluMnemonic maps ALU op bits to the shared transfer function's operator.
var aluMnemonic = map[uint8]string{
	isa.OpAdd: "+", isa.OpSub: "-", isa.OpMul: "*", isa.OpDiv: "/",
	isa.OpOr: "|", isa.OpAnd: "&", isa.OpLsh: "<<", isa.OpRsh: ">>",
	isa.OpMod: "%", isa.OpXor: "^",
}

// stepArith interprets one ALU/ALU64 instruction.
func (a *bpfAnalyzer) stepArith(ins isa.Instruction, st *bpfState) {
	op := ins.ALUOp()
	dst := st.regs[ins.Dst]
	var src bval
	if ins.UsesX() {
		src = st.regs[ins.Src]
	} else {
		src = scalar(constProv(uint64(int64(ins.Imm))), 0)
	}
	alu32 := ins.Class() == isa.ClassALU

	switch op {
	case isa.OpMov:
		out := src
		if alu32 && out.kind == bScalar {
			out.prov = out.prov.truncate(32)
		}
		st.regs[ins.Dst] = out
		return
	case isa.OpNeg:
		if dst.kind == bScalar {
			st.regs[ins.Dst] = scalar(transferBin("-", constProv(0), dst.prov), dst.taint)
		} else {
			st.regs[ins.Dst] = scalar(unknownProv(), dst.taint)
		}
		return
	case isa.OpEnd:
		st.regs[ins.Dst] = scalar(unknownProv(), dst.taint)
		return
	}

	// Pointer arithmetic: stack pointers track constant adjustment; map
	// value pointers stay attached to their map (interior offset is
	// irrelevant to shard safety); everything else degrades.
	if dst.kind == bStackPtr && (op == isa.OpAdd || op == isa.OpSub) {
		if c, ok := src.prov.IsConst(); ok && src.kind == bScalar {
			out := dst
			if op == isa.OpAdd {
				out.off += int64(c)
			} else {
				out.off -= int64(c)
			}
			st.regs[ins.Dst] = out
			return
		}
	}
	if dst.kind == bMapVal && (op == isa.OpAdd || op == isa.OpSub) {
		st.regs[ins.Dst] = dst
		return
	}
	if dst.kind != bScalar || src.kind != bScalar {
		st.regs[ins.Dst] = scalar(unknownProv(), dst.taint|src.taint)
		return
	}

	mn, ok := aluMnemonic[op]
	if !ok {
		st.regs[ins.Dst] = scalar(unknownProv(), dst.taint|src.taint)
		return
	}
	p := transferBin(mn, dst.prov, src.prov)
	if alu32 {
		p = p.truncate(32)
	}
	st.regs[ins.Dst] = scalar(p, dst.taint|src.taint)
}

// helperCall interprets one helper call, recording map access sites.
func (a *bpfAnalyzer) helperCall(pc int, ins isa.Instruction, st *bpfState) error {
	spec, ok := a.reg.ByID(helpers.ID(ins.Imm))
	name := ""
	if ok {
		name = spec.Name
	}
	r1, r2, r3 := st.regs[isa.R1], st.regs[isa.R2], st.regs[isa.R3]

	result := scalar(unknownProv(), 0)
	switch name {
	case "bpf_map_lookup_elem":
		m := a.mapOf(pc, isa.R1, r1)
		key := a.keyOf(pc, isa.R2, r2, st)
		if m != "" {
			a.record(pc, m, opRead, "lookup", key, 0, st)
			// The returned pointer carries the map's taint so that a null
			// check on it control-taints the miss/hit arms (the racy
			// lookup-then-insert pattern is a control window).
			result = bval{kind: bMapVal, mapName: m, keyProv: key, taint: a.bit(m)}
		}
	case "bpf_map_update_elem":
		m := a.mapOf(pc, isa.R1, r1)
		key := a.keyOf(pc, isa.R2, r2, st)
		val := a.valTaint(r3, st)
		if m != "" {
			a.record(pc, m, opWrite, "update", key, val|st.ctrl, st)
		}
	case "bpf_map_delete_elem":
		m := a.mapOf(pc, isa.R1, r1)
		key := a.keyOf(pc, isa.R2, r2, st)
		if m != "" {
			a.record(pc, m, opDelete, "delete", key, st.ctrl, st)
		}
	case "bpf_get_smp_processor_id":
		result = scalar(cpuProv(), 0)
	case "bpf_spin_lock":
		if r1.kind == bMapVal {
			if c, ok := r1.keyProv.IsConst(); ok {
				st.lockHeld, st.lockMap, st.lockKey = true, r1.mapName, c
			} else {
				st.lockHeld = false
			}
		}
	case "bpf_spin_unlock":
		st.lockHeld = false
	case "bpf_ringbuf_output", "bpf_ringbuf_reserve":
		if m := a.mapOf(pc, isa.R1, r1); m != "" {
			a.record(pc, m, opEmit, "emit", unknownProv(), 0, st)
		}
	case "bpf_perf_event_output":
		if m := a.mapOf(pc, isa.R2, r2); m != "" {
			a.record(pc, m, opEmit, "emit", unknownProv(), 0, st)
		}
	default:
		if bpfCtxSources[name] {
			result = scalar(ctxProv(), 0)
		} else {
			var t uint64
			for r := isa.R1; r <= isa.R5; r++ {
				t |= st.regs[r].taint
			}
			result = scalar(unknownProv(), t)
		}
	}
	st.regs[isa.R0] = result
	for r := isa.R1; r <= isa.R5; r++ {
		st.regs[r] = scalar(unknownProv(), 0)
	}
	return nil
}

// mapOf resolves which map a register holds a handle to, falling back to
// the verifier's snapshots when local tracking lost the handle (spilled and
// reloaded map pointers).
func (a *bpfAnalyzer) mapOf(pc int, r isa.Register, v bval) string {
	if v.kind == bMapPtr || v.kind == bMapVal {
		return v.mapName
	}
	return a.snapMap(pc, r)
}

// keyOf resolves the provenance of the key a helper reads through a stack
// pointer: the local slot value when tracked, else the verifier snapshot's
// spilled constant, else unknown.
func (a *bpfAnalyzer) keyOf(pc int, r isa.Register, ptr bval, st *bpfState) Prov {
	if ptr.kind == bStackPtr {
		if v, ok := st.slots[ptr.off]; ok && v.kind == bScalar &&
			v.prov.kind != provBot && v.prov.kind != provUnknown {
			return v.prov
		}
	}
	if c, ok := a.snapStackConst(pc, r); ok {
		return constProv(c)
	}
	return unknownProv()
}

// valTaint resolves the taint of the value buffer a helper reads (update's
// r3): the pointed-to slot's taint when tracked.
func (a *bpfAnalyzer) valTaint(ptr bval, st *bpfState) uint64 {
	if ptr.kind == bStackPtr {
		if v, ok := st.slots[ptr.off]; ok {
			return v.taint
		}
		return 0
	}
	return ptr.taint
}

// snapMap consults the verifier state table: if every snapshot at pc agrees
// the register holds (a pointer into) one map, that identity is trusted.
func (a *bpfAnalyzer) snapMap(pc int, r isa.Register) string {
	snaps, sat := a.tableAt(pc)
	if sat || len(snaps) == 0 {
		return ""
	}
	name := ""
	for i := range snaps {
		m := snaps[i].Regs[r].Map
		if m == nil {
			return ""
		}
		if name == "" {
			name = m.Name
		} else if name != m.Name {
			return ""
		}
	}
	return name
}

// snapStackConst reads a constant key through the snapshots: the register
// must be PtrToStack at a fixed offset in every snapshot, and the spilled
// slot there a known constant agreeing across snapshots.
func (a *bpfAnalyzer) snapStackConst(pc int, r isa.Register) (uint64, bool) {
	snaps, sat := a.tableAt(pc)
	if sat || len(snaps) == 0 {
		return 0, false
	}
	var val uint64
	have := false
	for i := range snaps {
		reg := snaps[i].Regs[r]
		if reg.Type != verifier.PtrToStack || reg.Tnum.Mask != 0 {
			return 0, false
		}
		slot := int(reg.Off+int64(reg.Tnum.Value)) / 8
		var c uint64
		found := false
		for _, s := range snaps[i].Stack {
			if s.Slot != slot {
				continue
			}
			if s.Kind == "zero" {
				c, found = 0, true
			} else if s.Kind == "spill" && s.Spill != nil &&
				s.Spill.Type == verifier.Scalar && s.Spill.Tnum.Mask == 0 {
				c, found = s.Spill.Tnum.Value, true
			}
			break
		}
		if !found {
			return 0, false
		}
		if have && c != val {
			return 0, false
		}
		val, have = c, true
	}
	return val, have
}

func (a *bpfAnalyzer) tableAt(pc int) ([]verifier.StateSnap, bool) {
	if a.states == nil {
		return nil, false
	}
	return a.states.At(pc)
}

// record merges one visit's evidence into the site accumulator, mirroring
// the SLX side: provenance joins, taints union, lock evidence intersects.
func (a *bpfAnalyzer) record(pc int, mapName string, sop siteOp, op string, key Prov, vTaint uint64, st *bpfState) {
	k := siteKey{fn: a.prog.Name, pc: pc}
	s := a.sites[k]
	if s == nil {
		s = &siteInfo{key: k, mapName: mapName, sop: sop, op: op,
			keyProv: botProv(), lockedAll: true, lockConsistent: true, ord: len(a.order)}
		a.sites[k] = s
		a.order = append(a.order, s)
	}
	s.keyProv = s.keyProv.Join(key)
	s.vTaint |= vTaint

	locked := st.lockHeld && st.lockMap == mapName
	if !locked {
		s.lockedAll = false
	} else if s.visited && (!s.lockedAll || s.lockKey != st.lockKey) {
		s.lockConsistent = s.lockConsistent && s.lockKey == st.lockKey
	} else if !s.visited {
		s.lockKey = st.lockKey
	}
	s.visited = true
}

// reportBPF classifies the accumulated sites per referenced map.
func (a *bpfAnalyzer) reportBPF() *compile.ConcReport {
	rep := &compile.ConcReport{Verdict: compile.VerdictShardSafe}
	byMap := make(map[string][]*siteInfo)
	for _, s := range a.order {
		byMap[s.mapName] = append(byMap[s.mapName], s)
	}
	for _, name := range a.mapOrder {
		kind := a.kinds[name]
		bits := uint(64)
		if m := a.meta[name]; m != nil && m.KeySize > 0 && m.KeySize < 8 {
			bits = uint(m.KeySize) * 8
		}
		info := mapInfo{
			Name:    name,
			Kind:    kind,
			KeyBits: bits,
			Bit:     a.bit(name),
			PerCPU:  strings.Contains(kind, "percpu"),
		}
		rep.Merge(classifyMap(info, byMap[name]))
	}
	return rep
}
