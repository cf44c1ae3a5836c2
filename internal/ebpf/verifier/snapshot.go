package verifier

import (
	"encoding/json"
	"math"
	"math/bits"

	"kex/internal/ebpf/isa"
)

// This file is the machine-readable export of the verifier's abstract
// interpretation: every state the worklist steps is captured into a
// per-instruction snapshot table that downstream tooling (the statecheck
// soundness oracle, `kexverify -dump-state=json`) can consume. The table
// is the verifier's claim, stated precisely: "at instruction i, on every
// path, the machine state is contained in one of these snapshots". The
// state-embedding checker holds concrete executions against exactly that
// claim.
//
// Capture happens in explore(), just before step() runs the instruction's
// transfer function, so the snapshot describes the state *entering* the
// instruction — the same point a runtime trace hook observes. States
// pruned at a prune point never reach step(), but the covering general
// state was itself stepped (states enter visited[pc] only on the
// non-pruned path), so a concrete execution following a pruned path is
// still contained in some captured snapshot at every pc.

// maxSnapsPerInsn bounds the per-instruction snapshot list. A pc that
// overflows is marked saturated; consumers must treat a saturated pc as
// containing every machine state (the table stays sound, it just stops
// being informative there). Generalization-deduping keeps real programs
// far below the cap.
const maxSnapsPerInsn = 512

// SlotSnap is the abstract content of one written 8-byte stack slot of
// the active frame, identified by its slot index from the frame bottom
// (byte offset = Slot*8).
type SlotSnap struct {
	Slot  int    `json:"slot"`
	Kind  string `json:"kind"` // "misc", "zero", "spill"
	Spill *Reg   `json:"spill,omitempty"`
}

// StateSnap is one abstract state captured at an instruction: the active
// frame's registers and written stack slots, plus the call-frame depth.
// For multi-frame states only the innermost frame is recorded — that is
// the frame a runtime register observation at this pc corresponds to.
// Regs and every Spill point into the verifier's captured state, which
// nothing modifies after capture; consumers must not write through them.
type StateSnap struct {
	PC     int               `json:"pc"`
	Frames int               `json:"frames"`
	Regs   *[NumSnapRegs]Reg `json:"regs"`
	Stack  []SlotSnap        `json:"stack,omitempty"`
}

// NumSnapRegs is the register-file width recorded per snapshot (R0-R10).
const NumSnapRegs = isa.NumRegisters

// StateTable is the per-instruction snapshot table of one verification.
type StateTable struct {
	// Insns is the program length the pcs index into.
	Insns int `json:"insns"`
	// PerPC holds the captured snapshots, indexed by pc.
	PerPC [][]StateSnap `json:"per_pc"`
	// Saturated marks pcs whose snapshot list overflowed; consumers must
	// treat these as containing every machine state.
	Saturated []bool `json:"saturated,omitempty"`
}

// At returns the snapshots captured at pc, plus whether the pc saturated.
func (t *StateTable) At(pc int) ([]StateSnap, bool) {
	if pc < 0 || pc >= len(t.PerPC) {
		return nil, false
	}
	return t.PerPC[pc], t.Saturated != nil && t.Saturated[pc]
}

// Snapshots counts all captured states.
func (t *StateTable) Snapshots() int {
	n := 0
	for _, s := range t.PerPC {
		n += len(s)
	}
	return n
}

// MarshalJSON emits the table with stable field order.
func (t *StateTable) MarshalJSON() ([]byte, error) {
	type alias StateTable
	return json.Marshal((*alias)(t))
}

// Precision summarises how tight the captured abstraction is — the
// metrics BENCH_statecheck.json tracks so verifier changes are measured
// for precision, not only soundness.
type Precision struct {
	Insns            int     `json:"insns"`
	Snapshots        int     `json:"snapshots"`
	MeanSnapsPerInsn float64 `json:"mean_states_per_insn"`
	MaxSnapsPerInsn  int     `json:"max_states_per_insn"`
	// ScalarRegs counts the scalar register occurrences the means below
	// average over.
	ScalarRegs int `json:"scalar_regs"`
	// MeanUnknownTnumBits is the mean number of unknown (mask) bits per
	// scalar register: 0 for a constant, 64 for a fully unknown value.
	MeanUnknownTnumBits float64 `json:"mean_unknown_tnum_bits"`
	// MeanBoundsWidthLog2 is the mean log2(UMax-UMin+1) per scalar
	// register: 0 for a constant, 64 for an unconstrained value.
	MeanBoundsWidthLog2 float64 `json:"mean_bounds_width_log2"`
}

// Precision computes the table's precision metrics.
func (t *StateTable) Precision() Precision {
	p := Precision{Insns: t.Insns}
	var unknownBits, widthLog2 float64
	for _, snaps := range t.PerPC {
		p.Snapshots += len(snaps)
		if len(snaps) > p.MaxSnapsPerInsn {
			p.MaxSnapsPerInsn = len(snaps)
		}
		for i := range snaps {
			for r := range snaps[i].Regs {
				reg := &snaps[i].Regs[r]
				if reg.Type != Scalar {
					continue
				}
				p.ScalarRegs++
				unknownBits += float64(bits.OnesCount64(reg.Tnum.Mask))
				widthLog2 += widthBits(reg.UMin, reg.UMax)
			}
		}
	}
	if t.Insns > 0 {
		p.MeanSnapsPerInsn = float64(p.Snapshots) / float64(t.Insns)
	}
	if p.ScalarRegs > 0 {
		p.MeanUnknownTnumBits = unknownBits / float64(p.ScalarRegs)
		p.MeanBoundsWidthLog2 = widthLog2 / float64(p.ScalarRegs)
	}
	return p
}

// widthBits is log2 of the interval cardinality, saturating at 64 for the
// full space (where UMax-UMin+1 wraps to 0).
func widthBits(umin, umax uint64) float64 {
	w := umax - umin + 1
	if w == 0 {
		return 64
	}
	return math.Log2(float64(w))
}

// snapshotter accumulates captured states during one verification.
type snapshotter struct {
	perPC     [][]*state
	saturated []bool
}

func newSnapshotter(insns int) *snapshotter {
	return &snapshotter{perPC: make([][]*state, insns), saturated: make([]bool, insns)}
}

// capture records st's abstract state at st.pc unless an already-captured
// snapshot generalizes it (that snapshot contains every machine state this
// one does, so the table loses nothing by skipping the special case).
// frozen, when not nil, is a clone of st that nothing will modify (the
// one a prune point kept in visited): the table keeps it instead of
// cloning st a second time.
func (c *snapshotter) capture(st, frozen *state) {
	pc := st.pc
	if pc < 0 || pc >= len(c.perPC) || c.saturated[pc] {
		return
	}
	for _, old := range c.perPC[pc] {
		if old.generalizes(st) {
			return
		}
	}
	if len(c.perPC[pc]) >= maxSnapsPerInsn {
		c.saturated[pc] = true
		return
	}
	if frozen == nil {
		frozen = st.clone()
	}
	c.perPC[pc] = append(c.perPC[pc], frozen)
}

// table converts the raw captures into the exported form. A snapshot
// points into its captured state (registers and spilled slots) instead of
// copying it: the captured states are never modified once taken, so the
// table costs one StateSnap and one SlotSnap per written slot, each from
// a single backing array.
func (c *snapshotter) table() *StateTable {
	t := &StateTable{Insns: len(c.perPC), PerPC: make([][]StateSnap, len(c.perPC))}
	nsnaps, nslots := 0, 0
	anySat := false
	for pc, states := range c.perPC {
		if c.saturated[pc] {
			anySat = true
		}
		nsnaps += len(states)
		for _, st := range states {
			for _, s := range st.cur().stack {
				if s.kind != slotInvalid {
					nslots++
				}
			}
		}
	}
	snaps := make([]StateSnap, nsnaps)
	slots := make([]SlotSnap, nslots)
	for pc, states := range c.perPC {
		if len(states) == 0 {
			continue
		}
		t.PerPC[pc] = snaps[:len(states):len(states)]
		for i, st := range states {
			snaps[i], slots = snapOf(st, slots)
		}
		snaps = snaps[len(states):]
	}
	if anySat {
		t.Saturated = c.saturated
	}
	return t
}

// snapOf exports one captured state, taking its slot snapshots from the
// front of slots and returning what is left of it.
func snapOf(st *state, slots []SlotSnap) (StateSnap, []SlotSnap) {
	f := st.cur()
	s := StateSnap{PC: st.pc, Frames: len(st.frames), Regs: &f.regs}
	n := 0
	// Slots are exported bottom up: the deepest (highest spi) first.
	for spi := len(f.stack) - 1; spi >= 0; spi-- {
		slot := stackSlots - 1 - spi
		switch f.stack[spi].kind {
		case slotInvalid:
			continue
		case slotMisc:
			slots[n] = SlotSnap{Slot: slot, Kind: "misc"}
		case slotZero:
			slots[n] = SlotSnap{Slot: slot, Kind: "zero"}
		case slotSpill:
			slots[n] = SlotSnap{Slot: slot, Kind: "spill", Spill: &f.stack[spi].spill}
		}
		n++
	}
	if n > 0 {
		s.Stack = slots[:n:n]
	}
	return s, slots[n:]
}
