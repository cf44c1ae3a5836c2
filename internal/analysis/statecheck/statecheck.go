// Package statecheck cross-checks the verifier's abstract interpretation
// against concrete execution: a state-embedding soundness oracle.
//
// The verifier's acceptance is a universally quantified claim — "at every
// instruction, on every path, the machine state is contained in one of the
// abstract states I explored". The paper's Table 1 is a catalogue of
// kernels where that claim was false. This package checks the claim
// directly: it verifies a program with state capture on
// (verifier.Config.CaptureState), runs the program on the interpreter with
// a per-instruction trace hook (interp.Observer), and asserts that every
// observed concrete state is a member of some captured abstract state at
// that pc. A violation is an unsoundness witness: concrete proof that the
// verifier believed something false about a program it accepted.
//
// The oracle is the interpreter, which is itself differentially tested
// against the JIT by the acceptance fuzz (internal/ebpf fuzz_test.go), so
// a witness indicts the verifier's abstract operators or branch reasoning
// rather than the executor. Witnesses are minimized by a delta-debugging
// shrinker (shrink.go) and persist as deterministic repros in
// internal/bugcorpus.
package statecheck

import (
	"fmt"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/jit"
	"kex/internal/ebpf/maps"
	"kex/internal/ebpf/verifier"
	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/rng"
)

// Program is the unit the checker operates on: bytecode plus the maps it
// references by name. Deliberately independent of internal/ebpf so the
// acceptance fuzz (package ebpf) can import this package without a cycle.
type Program struct {
	Name  string
	Type  isa.ProgType
	Insns []isa.Instruction
	Maps  []maps.Spec
}

// RunSpec is one concrete execution to hold against the abstract states.
type RunSpec struct {
	// CPU selects the simulated CPU (bpf_get_smp_processor_id's result).
	CPU int
	// Ctx is copied into the 64-byte context region before the run.
	Ctx []byte
}

// ctxSize is the context region each run maps; it matches the default
// context internal/ebpf maps for loaded programs.
const ctxSize = 64

// Config tunes one check.
type Config struct {
	// Verifier is the configuration under test. CaptureState is forced on.
	Verifier verifier.Config
	// Runs are the concrete executions; empty means DefaultRuns(Seed).
	Runs []RunSpec
	// Seed feeds the default run set's context fills.
	Seed int64
	// Shrink minimizes the witness program via delta debugging.
	Shrink bool
	// MaxWitnesses caps recorded violations per check (default 8).
	MaxWitnesses int
}

// Witness is one observed containment violation: at instruction PC, run
// Run observed a concrete state no captured abstract state contains.
type Witness struct {
	PC   int    `json:"pc"`
	Kind string `json:"kind"` // "reg", "slot", "unverified-pc"
	// Reg is the violating register for Kind "reg".
	Reg int `json:"reg,omitempty"`
	// Slot is the violating 8-byte stack slot index for Kind "slot".
	Slot int `json:"slot,omitempty"`
	// Concrete is the observed value (register content or slot bytes).
	Concrete uint64 `json:"concrete"`
	// Reason explains, against the nearest snapshot, what failed.
	Reason string `json:"reason"`
	// Run indexes the RunSpec that produced the observation.
	Run int `json:"run"`
	// Insns is the (possibly shrunk) program exhibiting the violation.
	Insns []isa.Instruction `json:"insns"`
}

func (w *Witness) String() string {
	return fmt.Sprintf("pc=%d %s run=%d concrete=%#x: %s", w.PC, w.Kind, w.Run, w.Concrete, w.Reason)
}

// Verdict is the outcome of one check.
type Verdict struct {
	// Accepted reports whether the verifier accepted the program; a
	// rejected program yields no soundness evidence either way.
	Accepted  bool
	RejectErr string
	// Checked counts the concrete observations validated.
	Checked int
	// Runs counts the concrete executions performed.
	Runs int
	// Witnesses are the containment violations, minimized when
	// Config.Shrink was set.
	Witnesses []*Witness
	// Table is the verifier's captured snapshot table.
	Table *verifier.StateTable
}

// Sound reports whether the check found no violations on an accepted
// program.
func (v *Verdict) Sound() bool { return v.Accepted && len(v.Witnesses) == 0 }

// DefaultRuns builds the standard six-execution probe set: CPUs cycle 0-3
// and the context is filled with shapes that steer branches down different
// paths (zeros, all-ones, two seeded pseudo-random fills, a sign-bit
// pattern that separates signed from unsigned reasoning, and a ramp).
func DefaultRuns(seed int64) []RunSpec {
	runs := make([]RunSpec, 6)
	for i := range runs {
		ctx := make([]byte, ctxSize)
		switch i {
		case 0: // zeros
		case 1:
			for j := range ctx {
				ctx[j] = 0xff
			}
		case 2, 3:
			// Two xorshift fills; seed-dependent but engine-independent.
			x := rng.XorShift(uint64(seed)*2654435761 + uint64(i))
			for j := range ctx {
				ctx[j] = byte(x.Next())
			}
		case 4: // sign bit set in every 32-bit word
			for j := 3; j < len(ctx); j += 4 {
				ctx[j] = 0x80
			}
		case 5: // ramp
			for j := range ctx {
				ctx[j] = byte(j)
			}
		}
		runs[i] = RunSpec{CPU: i % 4, Ctx: ctx}
	}
	return runs
}

// Check verifies the program with state capture on, executes every RunSpec
// on the interpreter with the trace hook armed, and reports containment
// violations. The returned error covers harness failures (bad map spec),
// not verification rejections — those yield Accepted=false.
func Check(p Program, cfg Config) (*Verdict, error) {
	if cfg.MaxWitnesses <= 0 {
		cfg.MaxWitnesses = 8
	}
	runs := cfg.Runs
	if len(runs) == 0 {
		runs = DefaultRuns(cfg.Seed)
	}

	k := kernel.NewDefault()
	core := exec.NewCore(k, helpers.NewRegistry(), maps.NewRegistry())
	mapMeta := make(map[string]*verifier.MapMeta)
	for _, spec := range p.Maps {
		m, _, err := core.Maps.Create(k, spec)
		if err != nil {
			return nil, fmt.Errorf("statecheck: map %q: %w", spec.Name, err)
		}
		mapMeta[spec.Name] = &verifier.MapMeta{
			Name:      spec.Name,
			KeySize:   m.Spec().KeySize,
			ValueSize: m.Spec().ValueSize,
			HasLock:   spec.HasLock,
		}
	}

	prog := &isa.Program{Name: p.Name, Type: p.Type, Insns: p.Insns}
	vcfg := cfg.Verifier
	if vcfg.MaxInsns == 0 {
		// Zero value means "the verifier under normal configuration".
		bugs := vcfg.Bugs
		vcfg = verifier.DefaultConfig()
		vcfg.Bugs = bugs
	}
	vcfg.CaptureState = true
	res, err := verifier.Verify(prog, core.Helpers, mapMeta, vcfg)
	if err != nil {
		return &Verdict{Accepted: false, RejectErr: err.Error(), Table: res.States}, nil
	}
	verdict := &Verdict{Accepted: true, Table: res.States}

	insns := append([]isa.Instruction(nil), p.Insns...)
	if err := interp.Relocate(insns, core.Maps); err != nil {
		return nil, fmt.Errorf("statecheck: relocate: %w", err)
	}
	fixed := &isa.Program{Name: p.Name, Type: p.Type, Insns: insns}
	eng, err := exec.NewEngine(core.Machine, fixed, false, jit.Config{})
	if err != nil {
		return nil, err
	}
	ctx := k.Mem.Map(ctxSize, kernel.ProtRW, "statecheck_ctx")
	rec := core.Program(p.Name)

	for ri, rs := range runs {
		for j := range ctx.Data {
			ctx.Data[j] = 0
		}
		copy(ctx.Data, rs.Ctx)
		obs := observer{
			table:   verdict.Table,
			mem:     k.Mem,
			ctxBase: ctx.Base,
			run:     ri,
			max:     cfg.MaxWitnesses,
		}
		req := exec.Request{
			Program: rec,
			CPU:     rs.CPU,
			CtxAddr: ctx.Base,
			Observe: obs.observe,
		}
		// The run's own outcome (crash, damage) is the acceptance fuzz's
		// property; here only the trace matters. A crash mid-run still
		// validated every observation up to the faulting instruction.
		_, _ = core.Run(eng, req, nil)
		verdict.Runs++
		verdict.Checked += obs.checked
		verdict.Witnesses = append(verdict.Witnesses, obs.witnesses...)
		if len(verdict.Witnesses) >= cfg.MaxWitnesses {
			verdict.Witnesses = verdict.Witnesses[:cfg.MaxWitnesses]
			break
		}
	}

	for _, w := range verdict.Witnesses {
		w.Insns = p.Insns
	}
	if cfg.Shrink && len(verdict.Witnesses) > 0 {
		shrunk := shrink(p, cfg)
		for _, w := range verdict.Witnesses {
			w.Insns = shrunk
		}
	}
	return verdict, nil
}

// observer validates one run's trace against the snapshot table.
type observer struct {
	table   *verifier.StateTable
	mem     *kernel.AddressSpace
	ctxBase uint64
	run     int
	max     int

	checked   int
	witnesses []*Witness
	seenPC    map[int]bool
}

// observe is the interp.Observer hook: regs is the live register file
// entering instruction pc, depth the BPF-call nesting level (0 = main).
func (o *observer) observe(pc int, regs *[11]uint64, depth int) {
	o.checked++
	if len(o.witnesses) >= o.max {
		return
	}
	snaps, saturated := o.table.At(pc)
	if saturated {
		return
	}
	if len(snaps) == 0 {
		o.record(&Witness{PC: pc, Kind: "unverified-pc", Reason: "concrete execution reached an instruction the verifier captured no state for"})
		return
	}
	// Containment: at least one snapshot must contain the concrete state.
	// Record the nearest miss (fewest failing components) when none does.
	var best *Witness
	bestScore := -1
	for i := range snaps {
		w, score := o.containedIn(&snaps[i], regs, depth)
		if w == nil {
			return
		}
		if bestScore == -1 || score < bestScore {
			best, bestScore = w, score
		}
	}
	best.PC = pc
	o.record(best)
}

// record deduplicates per-pc: a violating instruction inside a loop would
// otherwise flood the witness list with the same fact.
func (o *observer) record(w *Witness) {
	if o.seenPC == nil {
		o.seenPC = make(map[int]bool)
	}
	if o.seenPC[w.PC] {
		return
	}
	o.seenPC[w.PC] = true
	w.Run = o.run
	o.witnesses = append(o.witnesses, w)
}

// containedIn checks one snapshot against the concrete state. It returns
// nil when contained, else the first violation plus a mismatch count used
// to pick the most plausible snapshot for the report.
func (o *observer) containedIn(snap *verifier.StateSnap, regs *[11]uint64, depth int) (*Witness, int) {
	frameBase := regs[10] - verifier.StackSize
	// A PtrToStack register is only anchorable to the live frame when the
	// snapshot has a single frame: with callers present the abstract
	// pointer may refer to a caller's frame the observation cannot see.
	anchorStack := snap.Frames == 1

	var first *Witness
	misses := 0
	for r := 0; r < verifier.NumSnapRegs; r++ {
		reason := o.regContained(&snap.Regs[r], regs[r], frameBase, anchorStack)
		if reason == "" {
			continue
		}
		misses++
		if first == nil {
			first = &Witness{Kind: "reg", Reg: r, Concrete: regs[r], Reason: fmt.Sprintf("r%d: %s", r, reason)}
		}
	}
	// Stack slots always describe the snapshot's innermost frame, which is
	// the live activation whenever pcs match — slot checks hold at any
	// depth.
	for _, slot := range snap.Stack {
		addr := frameBase + uint64(slot.Slot*8)
		val, fault := o.mem.LoadUint(addr, 8)
		if fault != nil {
			continue
		}
		reason := o.slotContained(&slot, val, frameBase, anchorStack)
		if reason == "" {
			continue
		}
		misses++
		if first == nil {
			first = &Witness{Kind: "slot", Slot: slot.Slot, Concrete: val, Reason: fmt.Sprintf("stack slot %d: %s", slot.Slot, reason)}
		}
	}
	if first == nil {
		return nil, 0
	}
	return first, misses
}

// regContained reports why concrete value v is outside abstract register
// r, or "" when contained.
func (o *observer) regContained(r *verifier.Reg, v uint64, frameBase uint64, anchorStack bool) string {
	switch r.Type {
	case verifier.NotInit:
		// The verifier proved no path reads it; any content is covered.
		return ""
	case verifier.Scalar:
		return scalarContains(r, v)
	case verifier.PtrToCtx:
		// Concrete = ctx base + fixed offset + variable offset, where the
		// variable part must inhabit the pointer's scalar abstraction.
		return pointerDelta(r, v, o.ctxBase, "ctx")
	case verifier.PtrToStack:
		if !anchorStack {
			return ""
		}
		return pointerDelta(r, v, frameBase, "stack")
	default:
		// Other pointer kinds (map values, mem, sockets) have bases the
		// table does not anchor; the checkable fragment is null-ness.
		if !r.MaybeNull && v == 0 {
			return fmt.Sprintf("%v claimed non-null, concrete is 0", r.Type)
		}
		return ""
	}
}

// slotContained reports why concrete 8-byte slot content val is outside
// the abstract slot, or "" when contained.
func (o *observer) slotContained(s *verifier.SlotSnap, val uint64, frameBase uint64, anchorStack bool) string {
	switch s.Kind {
	case "zero":
		if val != 0 {
			return fmt.Sprintf("claimed zero, concrete is %#x", val)
		}
		return ""
	case "spill":
		if s.Spill == nil {
			return ""
		}
		return o.regContained(s.Spill, val, frameBase, anchorStack)
	default: // "misc" covers anything
		return ""
	}
}

// scalarContains reports why v is outside the scalar abstraction, or "".
func scalarContains(r *verifier.Reg, v uint64) string {
	if !r.Tnum.Contains(v) {
		return fmt.Sprintf("%#x outside tnum (value=%#x mask=%#x)", v, r.Tnum.Value, r.Tnum.Mask)
	}
	if v < r.UMin || v > r.UMax {
		return fmt.Sprintf("%#x outside unsigned bounds [%d, %d]", v, r.UMin, r.UMax)
	}
	if int64(v) < r.SMin || int64(v) > r.SMax {
		return fmt.Sprintf("%#x outside signed bounds [%d, %d]", v, r.SMin, r.SMax)
	}
	return ""
}

// pointerDelta checks an anchored pointer: v must equal base + Off + var,
// with the variable part contained in the pointer's scalar abstraction.
func pointerDelta(r *verifier.Reg, v uint64, base uint64, what string) string {
	delta := v - base - uint64(r.Off)
	if reason := scalarContains(r, delta); reason != "" {
		return fmt.Sprintf("%s pointer variable offset %s", what, reason)
	}
	return ""
}
