package interp

import (
	"sync"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/kernel"
)

// TestFrameCacheReuse makes 10k runs on one CPU: runs of a one-frame and
// of a two-frame program, from one goroutine and from several at once, so
// frames pass through the CPU's slot and its locked list. Each program
// reads its frames before dirtying them, so any nonzero R0 is a reused
// frame that was not cleared. At the end every stack frame mapped is one
// the cache holds: none was lost or cached twice.
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

	run := func(runs int, ctx *kernel.Context) {
		env := helpers.NewEnv(k, ctx, nil)
		for i := 0; i < runs; i++ {
			prog := one
			if i%3 == 0 {
				prog = two
			}
			if r0, err := m.Run(prog, env, Options{}); err != nil || r0 != 0 {
				t.Errorf("run %d: R0 = %d, err = %v; want 0 from zeroed frames", i, r0, err)
				return
			}
		}
	}
	run(2000, k.NewContext(1))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		ctx := k.NewContext(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(2000, ctx)
		}()
	}
	wg.Wait()

	fc := &m.frames[1]
	cached := map[*kernel.Region]bool{}
	if s := fc.slot.Load(); s != nil {
		cached[s] = true
	}
	for _, s := range fc.free {
		cached[s] = true
	}
	if n := len(fc.free); n >= frameCacheCap {
		t.Fatalf("the list holds %d frames beside the slot, cap %d in all", n, frameCacheCap)
	}
	if len(cached) != len(fc.free)+1 {
		t.Fatalf("cache holds %d distinct frames in %d entries", len(cached), len(fc.free)+1)
	}
	if got := len(k.Mem.Regions()); got != base+len(cached) {
		t.Fatalf("%d regions mapped, want %d: %d before the runs plus the %d frames cached",
			got, base+len(cached), base, len(cached))
	}
}
