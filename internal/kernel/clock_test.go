package kernel

import (
	"reflect"
	"sync"
	"testing"
)

// TestClockConcurrentPerCPU ticks contexts on two CPUs at once while a
// reader polls the clock: every reading is monotone, and the final time is
// the work of both CPUs plus what a harness advanced.
func TestClockConcurrentPerCPU(t *testing.T) {
	k := New(Config{NumCPU: 2})
	const ticks = 5000
	var wg sync.WaitGroup
	for cpu := 0; cpu < 2; cpu++ {
		ctx := k.NewContext(cpu)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ticks; i++ {
				ctx.Tick(3)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last int64
		for i := 0; i < ticks; i++ {
			now := k.Clock.Now()
			if now < last {
				t.Errorf("clock went back from %d to %d", last, now)
				return
			}
			last = now
		}
	}()
	wg.Wait()
	<-done
	if got := k.Clock.Advance(7); got != 2*ticks*3+7 {
		t.Fatalf("Advance returned %d, want %d", got, 2*ticks*3+7)
	}
	// A CPU id past the kernel's wraps onto a counter like RCU's shards.
	k.NewContext(5).Tick(1)
	if got := k.Clock.Now(); got != 2*ticks*3+8 {
		t.Fatalf("Now = %d, want %d", got, 2*ticks*3+8)
	}
}

// TestPerCPUCellsPadded pins the layout of the kernel's per-CPU cells:
// each ends in a full cache line of padding, so the hot fields of
// neighbouring cells are at least 64 bytes apart whatever the alignment
// of the array holding them.
func TestPerCPUCellsPadded(t *testing.T) {
	for _, cell := range []any{clockCell{}, rcuShard{}} {
		typ := reflect.TypeOf(cell)
		last := typ.Field(typ.NumField() - 1)
		if last.Type != reflect.TypeOf(CacheLinePad{}) {
			t.Fatalf("%v ends in %v, want CacheLinePad", typ, last.Type)
		}
		if gap := typ.Size() - last.Offset; gap < 64 {
			t.Fatalf("%v: neighbouring cells' hot fields are %d bytes apart, want >= 64", typ, gap)
		}
	}
}
