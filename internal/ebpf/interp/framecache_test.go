package interp

import (
	"sync"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/kernel"
)

// TestFrameCacheReuse makes 10k runs on one CPU: runs of a one-frame and
// of a two-frame program, from one goroutine and from several at once,
// each goroutine on a state of its own, as the execution core's run frames
// are, and half of the runs on a state of the machine's. Each program reads
// its frames before dirtying them, so any nonzero R0 is a reused frame
// that was not cleared. At the end the only stack frames mapped are the
// two each goroutine's state keeps, none shared by two states, and
// Release unmaps them.
func TestFrameCacheReuse(t *testing.T) {
	k := kernel.NewDefault()
	reg := helpers.NewRegistry()
	m := NewMachine(k, reg, nil)
	probe := func(body ...isa.Instruction) *isa.Program {
		return &isa.Program{Name: "probe", Type: isa.Tracing, Insns: body}
	}
	readDirty := []isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		isa.LoadMem(isa.SizeDW, isa.R1, isa.R10, -512),
		isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R1),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 7),
		isa.StoreImm(isa.SizeDW, isa.R10, -512, 9),
		isa.Exit(),
	}
	one := probe(readDirty...)
	two := probe(append([]isa.Instruction{
		isa.LoadMem(isa.SizeDW, isa.R6, isa.R10, -8),
		isa.LoadMem(isa.SizeDW, isa.R7, isa.R10, -512),
		isa.ALU64Reg(isa.OpAdd, isa.R6, isa.R7),
		isa.StoreImm(isa.SizeDW, isa.R10, -8, 7),
		isa.StoreImm(isa.SizeDW, isa.R10, -512, 9),
		isa.CallBPF(2), // readDirty, in a second frame
		isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R6),
		isa.Exit(),
	}, readDirty...)...)
	base := len(k.Mem.Regions())

	run := func(runs int, st *State) {
		env := helpers.NewEnv(k, k.NewContext(1), nil)
		for i := 0; i < runs; i++ {
			prog, opts := one, Options{State: st}
			if i%3 == 0 {
				prog = two
			}
			if i%2 == 0 {
				opts.State = nil
			}
			if r0, err := m.Run(prog, env, opts); err != nil || r0 != 0 {
				t.Errorf("run %d: R0 = %d, err = %v; want 0 from zeroed frames", i, r0, err)
				return
			}
		}
	}
	states := make([]State, 5)
	run(2000, &states[0])
	var wg sync.WaitGroup
	for w := 1; w < len(states); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(2000, &states[w])
		}()
	}
	wg.Wait()

	kept := map[*kernel.Region]bool{}
	for i := range states {
		if n := len(states[i].stacks); n != 2 {
			t.Fatalf("state %d keeps %d stack frames; the deepest run used 2", i, n)
		}
		for _, f := range states[i].stacks {
			if kept[f] {
				t.Fatalf("stack frame %#x is kept by two states", f.Base)
			}
			kept[f] = true
		}
	}
	if got := len(k.Mem.Regions()); got != base+len(kept) {
		t.Fatalf("%d regions mapped, want %d: %d before the runs plus the %d frames kept",
			got, base+len(kept), base, len(kept))
	}
	for i := range states {
		states[i].Release()
	}
	if got := len(k.Mem.Regions()); got != base {
		t.Fatalf("%d regions mapped after Release, want the %d before the runs", got, base)
	}
}
