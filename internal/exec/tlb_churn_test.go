package exec

import (
	"encoding/binary"
	"sync"
	"testing"

	"kex/internal/ebpf/interp"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
)

// TestShardedTLBSnapshotChurn runs one JIT program on both shards of a
// sharded plane while a third goroutine maps and unmaps unrelated regions,
// so every context's TLB keeps meeting new address-space snapshots. Each
// run loads its key from its own ctx region, stores it to the stack, looks
// it up in a hash map and reads the value through the returned pointer:
// every R0 must be exact and the kernel must take no oops.
func TestShardedTLBSnapshotChurn(t *testing.T) {
	c := newTestCore()
	const keys = 64
	vals, _, err := c.Maps.Create(c.K, maps.Spec{Name: "vals", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: keys})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make([]uint64, keys)
	for key := range ctxs {
		var k4 [4]byte
		var v8 [8]byte
		binary.LittleEndian.PutUint32(k4[:], uint32(key))
		binary.LittleEndian.PutUint64(v8[:], uint64(key)*1000+7)
		if err := vals.Update(0, k4[:], v8[:], 0); err != nil {
			t.Fatal(err)
		}
		ctx := c.K.Mem.Map(8, kernel.ProtRW, "ctx")
		c.K.Mem.StoreUint(ctx.Base, 4, uint64(key))
		ctxs[key] = ctx.Base
	}
	lookup, _ := c.Helpers.ByName("bpf_map_lookup_elem")
	insns := []isa.Instruction{
		isa.LoadMem(isa.SizeW, isa.R6, isa.R1, 0), // key from ctx
		isa.StoreMem(isa.SizeW, isa.R10, -4, isa.R6),
		isa.Mov64Reg(isa.R2, isa.R10),
		isa.ALU64Imm(isa.OpAdd, isa.R2, -4),
		isa.LoadMapRef(isa.R1, "vals"),
		isa.Call(int32(lookup.ID)),
		isa.JmpImm(isa.OpJeq, isa.R0, 0, 3),
		isa.LoadMem(isa.SizeDW, isa.R0, isa.R0, 0), // the key's value
		isa.ALU64Reg(isa.OpAdd, isa.R0, isa.R6),
		isa.Exit(),
		isa.Mov64Imm(isa.R0, 0), // key missing
		isa.Exit(),
	}
	if err := interp.Relocate(insns, c.Maps); err != nil {
		t.Fatal(err)
	}
	eng := bindEngine(t, c, &isa.Program{Name: "churn", Type: isa.Tracing, Insns: insns}, true)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		var held []*kernel.Region
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			held = append(held, c.K.Mem.Map(64+i%4096, kernel.ProtRW, "churn"))
			if len(held) > 8 {
				c.K.Mem.Unmap(held[0])
				held = held[1:]
			}
		}
	}()

	sh := c.NewSharded(ShardedConfig{Shards: 2, RingSize: 8})
	const batches, per = 100, 16
	var mu sync.Mutex
	var wrong, ran int
	for b := 0; b < batches; b++ {
		for cpu := 0; cpu < sh.Shards(); cpu++ {
			reqs := make([]Request, per)
			for i := range reqs {
				reqs[i] = Request{Program: c.Program("churn"), CtxAddr: ctxs[(b*per+i+cpu)%keys]}
			}
			done := func(results []BatchResult) {
				mu.Lock()
				defer mu.Unlock()
				for i, res := range results {
					ran++
					key := uint64((b*per + i + cpu) % keys)
					if res.Err != nil || res.Report.R0 != key*1000+7+key {
						wrong++
						if wrong <= 3 {
							t.Errorf("batch %d cpu %d req %d: R0 = %d, err = %v; want %d", b, cpu, i, res.Report.R0, res.Err, key*1000+7+key)
						}
					}
				}
			}
			if err := sh.SubmitWait(cpu, Batch{Engine: eng, Reqs: reqs, Done: done}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sh.Flush()
	sh.Close()
	close(stop)
	churn.Wait()

	if ran != batches*per*2 || wrong != 0 {
		t.Fatalf("%d runs, %d wrong; want %d runs, 0 wrong", ran, wrong, batches*per*2)
	}
	if n := c.K.OopsCount(); n != 0 {
		t.Fatalf("%d oopses, want 0: %v", n, c.K.LastOops())
	}
}
