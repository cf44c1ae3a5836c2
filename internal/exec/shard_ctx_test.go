package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
)

// TestShardedSubmitWaitDeadline pins the wedged-shard contract: a full
// ring whose worker never drains must fail a deadline-bound SubmitWaitCtx
// with ErrDeadline instead of parking the caller forever.
func TestShardedSubmitWaitDeadline(t *testing.T) {
	c := newTestCore()
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	eng := fakeEngine{name: "wedge", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		started <- struct{}{}
		<-gate
		env.Ctx.Tick(1)
		return 0, nil
	}}
	sh := c.NewSharded(ShardedConfig{Shards: 1, RingSize: 1})
	defer sh.Close()

	// The worker picks up the first batch and wedges inside the engine.
	if err := sh.SubmitWait(0, Batch{Engine: eng, Reqs: []Request{{Program: c.Program("w")}}}); err != nil {
		t.Fatal(err)
	}
	<-started
	// The second batch fills the ring.
	if err := sh.Submit(0, Batch{Engine: eng, Reqs: []Request{{Program: c.Program("w")}}}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := sh.SubmitWaitCtx(ctx, 0, Batch{Engine: eng, Reqs: []Request{{Program: c.Program("w")}}})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("SubmitWaitCtx on wedged shard = %v, want ErrDeadline", err)
	}

	// Unwedge: everything already submitted still completes and the plane
	// stays usable — the expired submission was dropped cleanly, so Flush
	// must not wait for a batch that never entered a ring.
	go func() {
		gate <- struct{}{} // first batch
		gate <- struct{}{} // second batch
	}()
	flushCtx, flushCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer flushCancel()
	if err := sh.FlushCtx(flushCtx); err != nil {
		t.Fatalf("flush after unwedging: %v", err)
	}
	if got := sh.Completed(); got != 2 {
		t.Fatalf("completed = %d, want 2", got)
	}
}

// TestShardedFlushDeadline pins FlushCtx: with a batch wedged in flight it
// must give up at the deadline with ErrDeadline, and succeed once the
// shard drains.
func TestShardedFlushDeadline(t *testing.T) {
	c := newTestCore()
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	eng := fakeEngine{name: "wedge", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		started <- struct{}{}
		<-gate
		env.Ctx.Tick(1)
		return 0, nil
	}}
	sh := c.NewSharded(ShardedConfig{Shards: 1, RingSize: 4})
	defer sh.Close()
	if err := sh.SubmitWait(0, Batch{Engine: eng, Reqs: []Request{{Program: c.Program("w")}}}); err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := sh.FlushCtx(ctx); !errors.Is(err, ErrDeadline) {
		t.Fatalf("FlushCtx with wedged batch = %v, want ErrDeadline", err)
	}

	close(gate)
	if err := sh.FlushCtx(context.Background()); err != nil {
		t.Fatalf("flush after unwedging: %v", err)
	}
	if got := sh.Completed(); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
}
