package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
	"kex/internal/kernel"
)

func TestRunBatchMatchesRun(t *testing.T) {
	c := newTestCore()
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.Ctx.Tick(5)
		return 7, nil
	}}
	reqs := make([]Request, 4)
	for i := range reqs {
		reqs[i] = Request{Program: c.Program("p"), CPU: 99} // CPU must be overridden
	}
	results := c.RunBatch(eng, 2, reqs, nil)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch[%d] err = %v", i, r.Err)
		}
		if r.Report.R0 != 7 || r.Report.Instructions != 5 {
			t.Fatalf("batch[%d] report = %+v", i, r.Report)
		}
		if r.Report.CPUTimeNs != 5 {
			t.Fatalf("batch[%d] cpu time = %d, want 5", i, r.Report.CPUTimeNs)
		}
	}
	snap := c.Stats.Snapshot()
	cs, ok := snap.CPUs[2]
	if !ok || cs.Invocations != 4 {
		t.Fatalf("CPU 2 stats = %+v (batch did not pin the CPU)", cs)
	}
	if _, stray := snap.CPUs[99]; stray {
		t.Fatal("request CPU leaked past the batch pin")
	}
}

func TestShardedExecutesAcrossShards(t *testing.T) {
	c := newTestCore()
	var ran [8]atomic.Uint64
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.Ctx.Tick(100)
		ran[env.Ctx.CPUID].Add(1)
		return 0, nil
	}}
	sh := c.NewSharded(ShardedConfig{Shards: 4, RingSize: 8})
	defer sh.Close()
	if sh.Shards() != 4 {
		t.Fatalf("shards = %d", sh.Shards())
	}
	const batches, per = 6, 3
	for cpu := 0; cpu < sh.Shards(); cpu++ {
		for b := 0; b < batches; b++ {
			reqs := make([]Request, per)
			for i := range reqs {
				reqs[i] = Request{Program: c.Program("p")}
			}
			if err := sh.SubmitWait(cpu, Batch{Engine: eng, Reqs: reqs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sh.Flush()
	if got := sh.Completed(); got != batches*per*4 {
		t.Fatalf("completed = %d, want %d", got, batches*per*4)
	}
	for cpu := 0; cpu < 4; cpu++ {
		if got := ran[cpu].Load(); got != batches*per {
			t.Fatalf("shard %d ran %d, want %d", cpu, got, batches*per)
		}
		if busy := sh.BusyNs(cpu); busy != batches*per*100 {
			t.Fatalf("shard %d busy = %d, want %d", cpu, busy, batches*per*100)
		}
	}
	if sh.MaxBusyNs() != batches*per*100 {
		t.Fatalf("max busy = %d", sh.MaxBusyNs())
	}
	if sh.TotalBusyNs() != batches*per*100*4 {
		t.Fatalf("total busy = %d", sh.TotalBusyNs())
	}
	// Per-CPU stats landed on each shard's own CPU.
	snap := c.Stats.Snapshot()
	for cpu := 0; cpu < 4; cpu++ {
		if snap.CPUs[cpu].Invocations != batches*per {
			t.Fatalf("cpu %d invocations = %d", cpu, snap.CPUs[cpu].Invocations)
		}
		if snap.CPUs[cpu].CPUTimeNs != batches*per*100 {
			t.Fatalf("cpu %d cpu time = %d", cpu, snap.CPUs[cpu].CPUTimeNs)
		}
	}
}

func TestShardedBackpressureAndClose(t *testing.T) {
	c := newTestCore()
	block := make(chan struct{})
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		<-block
		return 0, nil
	}}
	sh := c.NewSharded(ShardedConfig{Shards: 1, RingSize: 1})
	// First batch occupies the worker, second fills the ring; the third
	// non-blocking submit must bounce.
	if err := sh.Submit(0, Batch{Engine: eng, Reqs: []Request{{Program: c.Program("p")}}}); err != nil {
		t.Fatal(err)
	}
	full := false
	for i := 0; i < 100; i++ {
		if err := sh.Submit(0, Batch{Engine: eng, Reqs: []Request{{Program: c.Program("p")}}}); err != nil {
			if !errors.Is(err, ErrRingFull) {
				t.Fatalf("err = %v", err)
			}
			full = true
			break
		}
	}
	if !full {
		t.Fatal("ring never reported full")
	}
	close(block)
	sh.Flush()
	sh.Close()
	if err := sh.Submit(0, Batch{Engine: eng}); !errors.Is(err, ErrShardedClosed) {
		t.Fatalf("submit after close = %v", err)
	}
	if err := sh.SubmitWait(0, Batch{Engine: eng}); !errors.Is(err, ErrShardedClosed) {
		t.Fatalf("submit-wait after close = %v", err)
	}
	sh.Close() // idempotent
}

// TestShardedCloseWithBlockedSubmitWait parks a SubmitWait on a full ring
// and then Closes: the close must wait for the parked sender rather than
// closing a channel with a live sender (which panics), and the submission
// must either land or fail with ErrShardedClosed.
func TestShardedCloseWithBlockedSubmitWait(t *testing.T) {
	c := newTestCore()
	block := make(chan struct{})
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		<-block
		return 0, nil
	}}
	sh := c.NewSharded(ShardedConfig{Shards: 1, RingSize: 1})
	// First batch occupies the worker; the second (SubmitWait blocks until
	// the worker dequeues the first) fills the ring's single slot.
	if err := sh.Submit(0, Batch{Engine: eng, Reqs: []Request{{Program: c.Program("p")}}}); err != nil {
		t.Fatal(err)
	}
	if err := sh.SubmitWait(0, Batch{Engine: eng, Reqs: []Request{{Program: c.Program("p")}}}); err != nil {
		t.Fatal(err)
	}
	// Third submission parks on the full ring.
	submitDone := make(chan error, 1)
	go func() {
		submitDone <- sh.SubmitWait(0, Batch{Engine: eng, Reqs: []Request{{Program: c.Program("p")}}})
	}()
	time.Sleep(10 * time.Millisecond) // let the sender park on the ring
	closeDone := make(chan struct{})
	go func() {
		sh.Close()
		close(closeDone)
	}()
	time.Sleep(10 * time.Millisecond) // let Close contend with the sender
	close(block)                      // release the worker; everything drains
	if err := <-submitDone; err != nil && !errors.Is(err, ErrShardedClosed) {
		t.Fatalf("parked SubmitWait = %v", err)
	}
	<-closeDone
	if err := sh.Submit(0, Batch{Engine: eng}); !errors.Is(err, ErrShardedClosed) {
		t.Fatalf("submit after close = %v", err)
	}
	sh.Flush() // all pending batches were retired
}

// TestShardedFullRingFlushWake races non-blocking submits against Flush on
// a tiny ring: a Submit that bounces with ErrRingFull transiently raises
// pending, and its decrement must wake Flush waiters exactly as a worker
// completion does — without the wake a concurrent Flush hangs forever.
func TestShardedFullRingFlushWake(t *testing.T) {
	c := newTestCore()
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.Ctx.Tick(1)
		return 0, nil
	}}
	sh := c.NewSharded(ShardedConfig{Shards: 1, RingSize: 1})
	defer sh.Close()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				err := sh.Submit(0, Batch{Engine: eng, Reqs: []Request{{Program: c.Program("p")}}})
				if err != nil && !errors.Is(err, ErrRingFull) {
					t.Error(err)
					return
				}
			}
		}()
	}
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for i := 0; i < 100; i++ {
			sh.Flush()
		}
	}()
	wg.Wait()
	<-flushed
	sh.Flush()
	if sh.Completed() == 0 {
		t.Fatal("no submission landed")
	}
}

func TestShardedInvalidShard(t *testing.T) {
	c := newTestCore()
	sh := c.NewSharded(ShardedConfig{Shards: 2})
	defer sh.Close()
	if err := sh.Submit(7, Batch{}); err == nil || errors.Is(err, ErrRingFull) {
		t.Fatalf("submit to shard 7 of 2 = %v", err)
	}
	// Shard count clamps to the kernel's CPUs.
	sh2 := c.NewSharded(ShardedConfig{Shards: 64})
	defer sh2.Close()
	if sh2.Shards() != len(c.K.CPUs()) {
		t.Fatalf("shards = %d, want %d", sh2.Shards(), len(c.K.CPUs()))
	}
}

// TestShardedWatchdogPerShard pins the semantic core of the refactor: a
// shard's watchdog deadline is judged by that context's own consumed time,
// so heavy traffic on other shards cannot expire a well-behaved program's
// watchdog, and a genuinely over-budget program still dies.
func TestShardedWatchdogPerShard(t *testing.T) {
	c := newTestCore()
	wd := errors.New("watchdog")
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		// Model an engine's watchdog check against ctx.Runtime, as the
		// interpreter and JIT do.
		for i := 0; i < 10; i++ {
			env.Ctx.Tick(10)
			if env.Ctx.ConsumedNs() >= opts.WatchdogNs {
				return 0, wd
			}
		}
		return 1, nil
	}}
	sh := c.NewSharded(ShardedConfig{Shards: 4, RingSize: 64})
	defer sh.Close()
	var mu sync.Mutex
	var errs []error
	done := func(rs []BatchResult) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range rs {
			errs = append(errs, r.Err)
		}
	}
	for cpu := 0; cpu < 4; cpu++ {
		for b := 0; b < 16; b++ {
			// Budget of 500 > the 100 each run consumes: no run should
			// trip the watchdog regardless of what other shards consume.
			if err := sh.SubmitWait(cpu, Batch{Engine: eng, Done: done,
				Reqs: []Request{{Program: c.Program("p"), WatchdogNs: 500}}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sh.Flush()
	mu.Lock()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("cross-shard watchdog interference: %v", err)
		}
	}
	mu.Unlock()
	// A genuinely over-budget run still trips.
	if _, err := c.Run(eng, Request{Program: c.Program("p"), CPU: 0, WatchdogNs: 50}, nil); !errors.Is(err, wd) {
		t.Fatalf("over-budget run = %v, want watchdog", err)
	}
}

// TestShardedStatsConcurrent hammers the lock-free stats cells from all
// shards and checks that nothing is lost (run under -race in CI).
func TestShardedStatsConcurrent(t *testing.T) {
	c := newTestCore()
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.Ctx.Tick(3)
		env.CountHelper("bpf_ktime_get_ns")
		env.MapOps++
		return 0, nil
	}}
	sh := c.NewSharded(ShardedConfig{Shards: 4, RingSize: 16})
	const batches, per = 25, 4
	var wg sync.WaitGroup
	for cpu := 0; cpu < 4; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				reqs := make([]Request, per)
				for i := range reqs {
					reqs[i] = Request{Program: c.Program("hot")}
				}
				if err := sh.SubmitWait(cpu, Batch{Engine: eng, Reqs: reqs}); err != nil {
					t.Error(err)
					return
				}
			}
		}(cpu)
	}
	wg.Wait()
	sh.Flush()
	sh.Close()
	snap := c.Stats.Snapshot()
	ps := snap.Programs["hot"]
	want := uint64(4 * batches * per)
	if ps.Invocations != want {
		t.Fatalf("invocations = %d, want %d", ps.Invocations, want)
	}
	if ps.Instructions != want*3 {
		t.Fatalf("instructions = %d, want %d", ps.Instructions, want*3)
	}
	if ps.MapOps != want {
		t.Fatalf("map ops = %d, want %d", ps.MapOps, want)
	}
	if ps.HelperCalls["bpf_ktime_get_ns"] != want {
		t.Fatalf("helper calls = %d, want %d", ps.HelperCalls["bpf_ktime_get_ns"], want)
	}
	if ps.CPUTimeNs != int64(want)*3 {
		t.Fatalf("cpu time = %d, want %d", ps.CPUTimeNs, int64(want)*3)
	}
	var cpuSum uint64
	for _, cs := range snap.CPUs {
		cpuSum += cs.Invocations
	}
	if cpuSum != want {
		t.Fatalf("per-cpu invocations sum = %d, want %d", cpuSum, want)
	}
}

// TestShardedMemOpsConcurrent drives concurrent Map/Unmap through the
// copy-on-write address space from every shard (the hash-map value path
// allocates and frees regions per op), racing against snapshot readers.
func TestShardedMemOpsConcurrent(t *testing.T) {
	k := kernel.NewDefault()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range k.Mem.Regions() {
				_ = r.End()
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				r := k.Mem.Map(64, kernel.ProtRW, "scratch")
				if f := k.Mem.Write(r.Base, []byte{1, 2, 3}); f != nil {
					t.Errorf("write: %v", f)
					return
				}
				k.Mem.Unmap(r)
			}
		}()
	}
	writers.Wait()
	close(stop)
	wg.Wait()
}
