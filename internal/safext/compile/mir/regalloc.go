package mir

import "sort"

// Linear-scan register allocation onto the callee-saved register file.
//
// The eBPF calling convention leaves R6–R9 intact across helper calls
// (helpers clobber R0–R5 only) and BPF-to-BPF calls get a fresh register
// activation, so four registers are allocatable with no save/restore
// traffic around calls. Everything that doesn't fit spills to an 8-byte
// frame slot — what a stack-machine code generator does for *every*
// value, which is why allocation is the big win: each avoided
// spill removes a store+load round-trip through the interpreter's
// address-space checks on the hot path.
//
// NumAllocRegs is the size of that file; the emitter maps allocation
// indexes 0..3 onto R6..R9.
const NumAllocRegs = 4

// Allocation assignments for one function.
const (
	// LocUnused marks a vreg with no interval (dead or never defined).
	LocUnused = -2
	// LocSpill marks a spilled vreg; SpillSlot gives its slot index.
	LocSpill = -1
)

type Alloc struct {
	// Reg[v] is 0..NumAllocRegs-1, LocSpill, or LocUnused.
	Reg []int
	// SpillSlot[v] is the spill slot index (0-based) or -1.
	SpillSlot []int
	NumSpills int
}

type interval struct {
	v          VReg
	start, end int
}

// Allocate performs liveness analysis and linear-scan allocation.
func Allocate(f *Func) *Alloc {
	nv := f.NumVRegs + 1
	words := (nv + 63) / 64
	type bset []uint64
	newSet := func() bset { return make(bset, words) }
	get := func(s bset, v VReg) bool { return s[v/64]&(1<<(uint(v)%64)) != 0 }
	set := func(s bset, v VReg) { s[v/64] |= 1 << (uint(v) % 64) }

	n := len(f.Blocks)
	use := make([]bset, n)
	def := make([]bset, n)
	in := make([]bset, n)
	out := make([]bset, n)
	idxOf := make(map[BlockID]int, n)
	for i, b := range f.Blocks {
		idxOf[b.ID] = i
		use[i], def[i], in[i], out[i] = newSet(), newSet(), newSet(), newSet()
		for j := range b.Insns {
			ins := &b.Insns[j]
			forEachUse(ins, func(v VReg) {
				if !get(def[i], v) {
					set(use[i], v)
				}
			})
			if ins.Dst != 0 {
				set(def[i], ins.Dst)
			}
		}
		forEachTermUse(&b.Term, func(v VReg) {
			if !get(def[i], v) {
				set(use[i], v)
			}
		})
	}

	// Backward liveness to fixpoint.
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			for _, s := range b.Term.Succs() {
				si, ok := idxOf[s]
				if !ok {
					continue
				}
				for w := 0; w < words; w++ {
					nw := out[i][w] | in[si][w]
					if nw != out[i][w] {
						out[i][w] = nw
						changed = true
					}
				}
			}
			for w := 0; w < words; w++ {
				nw := use[i][w] | (out[i][w] &^ def[i][w])
				if nw != in[i][w] {
					in[i][w] = nw
					changed = true
				}
			}
		}
	}

	// Conservative [start, end] intervals over the linear block layout.
	// Live-in extends to the block start and live-out to the block end, so
	// loop-carried values cover the whole loop (the back edge makes them
	// live-out of the latch and live-in to the header).
	start := make([]int, nv)
	end := make([]int, nv)
	for v := range start {
		start[v] = -1
	}
	touch := func(v VReg, p int) {
		if start[v] == -1 || p < start[v] {
			start[v] = p
		}
		if p > end[v] {
			end[v] = p
		}
	}
	pos := 0
	for i, b := range f.Blocks {
		blockStart := pos
		for j := range b.Insns {
			ins := &b.Insns[j]
			forEachUse(ins, func(v VReg) { touch(v, pos) })
			if ins.Dst != 0 {
				touch(ins.Dst, pos)
			}
			pos++
		}
		forEachTermUse(&b.Term, func(v VReg) { touch(v, pos) })
		blockEnd := pos
		pos++
		for v := VReg(1); int(v) < nv; v++ {
			if get(in[i], v) {
				touch(v, blockStart)
			}
			if get(out[i], v) {
				touch(v, blockEnd)
			}
		}
	}

	var ivs []interval
	for v := 1; v < nv; v++ {
		if start[v] >= 0 {
			ivs = append(ivs, interval{VReg(v), start[v], end[v]})
		}
	}
	sort.Slice(ivs, func(a, b int) bool {
		if ivs[a].start != ivs[b].start {
			return ivs[a].start < ivs[b].start
		}
		return ivs[a].v < ivs[b].v
	})

	al := &Alloc{Reg: make([]int, nv), SpillSlot: make([]int, nv)}
	for v := 0; v < nv; v++ {
		al.Reg[v] = LocUnused
		al.SpillSlot[v] = -1
	}
	spill := func(v VReg) {
		al.Reg[v] = LocSpill
		al.SpillSlot[v] = al.NumSpills
		al.NumSpills++
	}

	free := []int{0, 1, 2, 3}[:NumAllocRegs]
	freePool := append([]int(nil), free...)
	var active []interval // sorted by end
	for _, iv := range ivs {
		// Expire strictly-ended intervals; an interval ending exactly at
		// this start stays active, so a def never shares its operand's
		// register (the emitter relies on this).
		keep := active[:0]
		for _, a := range active {
			if a.end < iv.start {
				freePool = append(freePool, al.Reg[a.v])
			} else {
				keep = append(keep, a)
			}
		}
		active = keep
		sort.Ints(freePool)

		if len(freePool) > 0 {
			al.Reg[iv.v] = freePool[0]
			freePool = freePool[1:]
			active = append(active, iv)
			sort.Slice(active, func(a, b int) bool {
				if active[a].end != active[b].end {
					return active[a].end < active[b].end
				}
				return active[a].v < active[b].v
			})
			continue
		}
		// Spill the interval that ends furthest away.
		last := active[len(active)-1]
		if mutantActive("regalloc-clobber") {
			// Steal the register without spilling its owner: both intervals
			// are live and share one callee-saved register.
			al.Reg[iv.v] = al.Reg[last.v]
			active = append(active, iv)
			sort.Slice(active, func(a, b int) bool {
				if active[a].end != active[b].end {
					return active[a].end < active[b].end
				}
				return active[a].v < active[b].v
			})
			continue
		}
		if last.end > iv.end {
			al.Reg[iv.v] = al.Reg[last.v]
			spill(last.v)
			active[len(active)-1] = iv
			sort.Slice(active, func(a, b int) bool {
				if active[a].end != active[b].end {
					return active[a].end < active[b].end
				}
				return active[a].v < active[b].v
			})
		} else {
			spill(iv.v)
		}
	}
	return al
}
