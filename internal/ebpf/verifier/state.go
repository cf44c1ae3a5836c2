package verifier

import (
	"fmt"

	"kex/internal/ebpf/isa"
)

// StackSize is the per-function stack frame size, matching the kernel's
// MAX_BPF_STACK.
const StackSize = 512

// slotType describes one 8-byte stack slot.
type slotType uint8

const (
	slotInvalid slotType = iota // never written
	slotMisc                    // written with data bytes
	slotZero                    // written with constant zero
	slotSpill                   // holds a spilled register
)

// stackSlot is the abstract content of one 8-byte-aligned stack slot.
type stackSlot struct {
	kind  slotType
	spill Reg // valid when kind == slotSpill
}

// stackSlots is the number of 8-byte slots in one stack frame.
const stackSlots = StackSize / 8

// frame is the verifier state of one call frame.
type frame struct {
	regs [isa.NumRegisters]Reg
	// stack holds the frame's slots down to the deepest one written, in
	// the kernel's order: stack[spi] covers bytes [-8(spi+1), -8spi) below
	// r10. A slot past the end was never written and reads as slotInvalid.
	// Like the kernel's allocated_stack (grown by grow_stack_state), it
	// keeps a state, and every copy of it, as small as what it holds.
	stack   []stackSlot
	callPC  int // return address (element index) in the caller, -1 for main
	retFrom int // pc of the call instruction, for logs
}

func newFrame() *frame {
	f := &frame{}
	for i := range f.regs {
		f.regs[i] = Reg{Type: NotInit}
	}
	f.regs[isa.R10] = Reg{Type: PtrToStack, Off: StackSize}
	f.callPC = -1
	return f
}

func (f *frame) clone() *frame {
	c := *f
	c.stack = append([]stackSlot(nil), f.stack...)
	return &c
}

// slot returns the content of the slot at byte offset i*8 from the frame
// bottom.
func (f *frame) slot(i int64) stackSlot {
	if spi := stackSlots - 1 - int(i); spi < len(f.stack) {
		return f.stack[spi]
	}
	return stackSlot{}
}

// set stores s into the slot at byte offset i*8 from the frame bottom,
// growing the stack down to it.
func (f *frame) set(i int64, s stackSlot) {
	spi := stackSlots - 1 - int(i)
	if spi >= len(f.stack) {
		f.stack = append(f.stack, make([]stackSlot, spi+1-len(f.stack))...)
	}
	f.stack[spi] = s
}

// state is one point in the symbolic exploration: a program counter, the
// call-frame stack, and the global obligations (references, lock).
type state struct {
	pc     int
	frames []*frame

	// refs are outstanding acquired-reference obligations (socket refs,
	// ringbuf reservations) that must be released before exit.
	refs []int

	// lockHeld is non-zero while a bpf_spin_lock is held; it stores a
	// pseudo-id of the lock for pairing.
	lockHeld int

	// callbackDepth guards against unbounded callback recursion.
	callbackDepth int
}

func newState() *state {
	return &state{frames: []*frame{newFrame()}}
}

func (s *state) clone() *state {
	c := &state{
		pc:            s.pc,
		refs:          append([]int(nil), s.refs...),
		lockHeld:      s.lockHeld,
		callbackDepth: s.callbackDepth,
	}
	for _, f := range s.frames {
		c.frames = append(c.frames, f.clone())
	}
	return c
}

// cur returns the active (innermost) frame.
func (s *state) cur() *frame { return s.frames[len(s.frames)-1] }

// reg returns a pointer to register r of the active frame.
func (s *state) reg(r isa.Register) *Reg { return &s.cur().regs[r] }

// acquireRef records a new reference obligation and returns its id.
func (s *state) acquireRef(id int) { s.refs = append(s.refs, id) }

// releaseRef discharges a reference obligation; it reports whether the id
// was outstanding.
func (s *state) releaseRef(id int) bool {
	for i, got := range s.refs {
		if got == id {
			s.refs = append(s.refs[:i], s.refs[i+1:]...)
			return true
		}
	}
	return false
}

// dropRefEverywhere clears RefID'd registers after a release, so stale
// copies of a released pointer cannot be used.
func (s *state) dropRefEverywhere(id int) {
	for _, f := range s.frames {
		for i := range f.regs {
			if f.regs[i].RefID == id {
				f.regs[i] = Reg{Type: NotInit}
			}
		}
		for i := range f.stack {
			if f.stack[i].kind == slotSpill && f.stack[i].spill.RefID == id {
				f.stack[i] = stackSlot{kind: slotMisc}
			}
		}
	}
}

// generalizes reports whether s covers every concrete execution o covers —
// used to prune already-explored states (the kernel's states_equal).
func (s *state) generalizes(o *state) bool {
	if s.pc != o.pc || len(s.frames) != len(o.frames) {
		return false
	}
	if len(s.refs) != len(o.refs) || s.lockHeld != o.lockHeld || s.callbackDepth != o.callbackDepth {
		return false
	}
	for i := range s.frames {
		sf, of := s.frames[i], o.frames[i]
		if sf.callPC != of.callPC {
			return false
		}
		for r := range sf.regs {
			if !sf.regs[r].generalizes(&of.regs[r]) {
				return false
			}
		}
		// Slots past the end of either stack were never written: past the
		// end of sf they cover anything, past the end of of they read as
		// unwritten.
		var unwritten stackSlot
		for spi := range sf.stack {
			ss, os := &sf.stack[spi], &unwritten
			if spi < len(of.stack) {
				os = &of.stack[spi]
			}
			switch {
			case ss.kind == slotInvalid:
				// If verification succeeded with the slot unreadable, no
				// path from here reads it, so any content in o is covered.
			case ss.kind == slotMisc &&
				(os.kind == slotMisc || os.kind == slotZero ||
					(os.kind == slotSpill && os.spill.Type == Scalar)):
				// Unknown data covers zero and any spilled scalar.
			case ss.kind != os.kind:
				return false
			case ss.kind == slotSpill && !ss.spill.generalizes(&os.spill):
				return false
			}
		}
	}
	return true
}

func (s *state) String() string {
	f := s.cur()
	out := fmt.Sprintf("pc=%d", s.pc)
	for i := 0; i < 11; i++ {
		if f.regs[i].Type != NotInit {
			out += fmt.Sprintf(" r%d=%v", i, &f.regs[i])
		}
	}
	return out
}
