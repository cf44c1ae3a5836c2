package exec

import (
	"reflect"
	"sync"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/kernel"
)

// TestRuntimeNsConcurrentPerCPU runs a 500ns program from two goroutines
// on CPUs 0 and 1 at once. Each report's RuntimeNs must be the run's own
// time, not the clock's, which also carries the other CPU's work.
func TestRuntimeNsConcurrentPerCPU(t *testing.T) {
	c := newTestCore()
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, _ interp.Options) (uint64, error) {
		for i := 0; i < 50; i++ {
			env.Ctx.Tick(10)
		}
		return 0, nil
	}}
	const runs = 2000
	var wg sync.WaitGroup
	var off [2]int
	for cpu := range off {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				rep, err := c.Run(eng, Request{Program: "p", CPU: cpu}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if rep.RuntimeNs != 500 {
					off[cpu]++
				}
			}
		}()
	}
	wg.Wait()
	if off != [2]int{} {
		t.Fatalf("reports with RuntimeNs != 500: %d on CPU 0, %d on CPU 1, of %d each", off[0], off[1], runs)
	}
	if now := c.K.Clock.Now(); now != 2*runs*500 {
		t.Fatalf("clock = %d, want %d", now, 2*runs*500)
	}
}

// assertLinePadded requires a per-CPU cell type to end in a full cache
// line of padding, so the hot fields of neighbouring cells are at least
// 64 bytes apart whatever the alignment of the array holding them.
func assertLinePadded(t *testing.T, cell any) {
	t.Helper()
	typ := reflect.TypeOf(cell)
	last := typ.Field(typ.NumField() - 1)
	if last.Type != reflect.TypeOf(kernel.CacheLinePad{}) {
		t.Fatalf("%v ends in %v, want kernel.CacheLinePad", typ, last.Type)
	}
	if gap := typ.Size() - last.Offset; gap < 64 {
		t.Fatalf("%v: neighbouring cells' hot fields are %d bytes apart, want >= 64", typ, gap)
	}
}

// TestStatsCellsPadded pins the layout of the per-CPU stats cells each
// run writes, and of the per-shard counters each batch writes.
func TestStatsCellsPadded(t *testing.T) {
	assertLinePadded(t, cpuCell{})
	assertLinePadded(t, runStripe{})
	assertLinePadded(t, shardCell{})
}
