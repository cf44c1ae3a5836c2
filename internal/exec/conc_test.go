package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
)

func TestParseConcMode(t *testing.T) {
	cases := []struct {
		in   string
		mode ConcMode
		err  bool
	}{
		{"off", ConcOff, false},
		{"", ConcOff, false},
		{"warn", ConcWarn, false},
		{"strict", ConcStrict, false},
		{"Strict", ConcOff, true},
		{"on", ConcOff, true},
	}
	for _, c := range cases {
		got, err := ParseConcMode(c.in)
		if (err != nil) != c.err || got != c.mode {
			t.Errorf("ParseConcMode(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.mode, c.err)
		}
	}
	for mode, want := range map[ConcMode]string{ConcOff: "off", ConcWarn: "warn", ConcStrict: "strict"} {
		if mode.String() != want {
			t.Errorf("%d.String() = %q, want %q", mode, mode.String(), want)
		}
	}
}

func TestConcVerdictRegistry(t *testing.T) {
	c := newTestCore()
	if racy, _ := c.ConcVerdict("unregistered"); racy {
		t.Fatal("unregistered program reported racy")
	}
	c.SetConc(c.Program("p"), true, "window at pc 3")
	if racy, reason := c.ConcVerdict("p"); !racy || reason != "window at pc 3" {
		t.Fatalf("verdict = %v %q", racy, reason)
	}
	if n := c.racy.Load(); n != 1 {
		t.Fatalf("racy count = %d, want 1", n)
	}
	// Re-registration (hot-swap of a fixed build) replaces the verdict and
	// keeps the counter balanced.
	c.SetConc(c.Program("p"), true, "still racy")
	if n := c.racy.Load(); n != 1 {
		t.Fatalf("racy count after re-register = %d, want 1", n)
	}
	c.SetConc(c.Program("p"), false, "")
	if racy, _ := c.ConcVerdict("p"); racy {
		t.Fatal("cleared verdict still racy")
	}
	if n := c.racy.Load(); n != 0 {
		t.Fatalf("racy count after clear = %d, want 0", n)
	}
}

// countingEngine records which simulated CPU each invocation ran on.
func countingEngine(ran *[8]atomic.Uint64) fakeEngine {
	return fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		ran[env.Ctx.CPUID].Add(1)
		return 0, nil
	}}
}

// loads snapshots the per-shard counters for printing (the atomic array
// itself must not be copied into a format call).
func loads(ran *[8]atomic.Uint64) [8]uint64 {
	var out [8]uint64
	for i := range ran {
		out[i] = ran[i].Load()
	}
	return out
}

func submitOne(t *testing.T, sh *Sharded, eng Engine, cpu int, prog string) error {
	t.Helper()
	return sh.SubmitWait(cpu, Batch{Engine: eng, Reqs: []Request{{Program: sh.core.Program(prog)}}})
}

func TestConcStrictRefusesRacyOnMultiShard(t *testing.T) {
	c := newTestCore()
	c.SetConc(c.Program("racy"), true, "unguarded window")
	c.SetConc(c.Program("safe"), false, "")
	var ran [8]atomic.Uint64
	eng := countingEngine(&ran)
	sh := c.NewSharded(ShardedConfig{Shards: 4, RingSize: 8, Conc: ConcStrict})
	defer sh.Close()

	err := submitOne(t, sh, eng, 2, "racy")
	if !errors.Is(err, ErrShardUnsafe) {
		t.Fatalf("racy submit err = %v, want ErrShardUnsafe", err)
	}
	if err := submitOne(t, sh, eng, 2, "safe"); err != nil {
		t.Fatalf("safe submit refused: %v", err)
	}
	// Unregistered programs (pre-CONC objects) are not convicted.
	if err := submitOne(t, sh, eng, 3, "legacy"); err != nil {
		t.Fatalf("unregistered submit refused: %v", err)
	}
	sh.Flush()
	if ran[2].Load() != 1 || ran[3].Load() != 1 {
		t.Fatalf("ran = %v", loads(&ran))
	}
}

func TestConcStrictAllowsRacyOnSingleShard(t *testing.T) {
	c := newTestCore()
	c.SetConc(c.Program("racy"), true, "unguarded window")
	var ran [8]atomic.Uint64
	eng := countingEngine(&ran)
	sh := c.NewSharded(ShardedConfig{Shards: 1, RingSize: 8, Conc: ConcStrict})
	defer sh.Close()
	if err := submitOne(t, sh, eng, 0, "racy"); err != nil {
		t.Fatalf("single-shard racy submit refused: %v", err)
	}
	sh.Flush()
	if ran[0].Load() != 1 {
		t.Fatalf("ran = %v", loads(&ran))
	}
}

func TestConcWarnDemotesToShardZero(t *testing.T) {
	c := newTestCore()
	c.SetConc(c.Program("racy"), true, "unguarded window at pc 7")
	var ran [8]atomic.Uint64
	eng := countingEngine(&ran)
	sh := c.NewSharded(ShardedConfig{Shards: 4, RingSize: 16, Conc: ConcWarn})
	defer sh.Close()
	const per = 3
	for cpu := 0; cpu < 4; cpu++ {
		reqs := make([]Request, per)
		for i := range reqs {
			reqs[i] = Request{Program: c.Program("racy")}
		}
		if err := sh.SubmitWait(cpu, Batch{Engine: eng, Reqs: reqs}); err != nil {
			t.Fatal(err)
		}
	}
	sh.Flush()
	if got := ran[0].Load(); got != 4*per {
		t.Fatalf("shard 0 ran %d, want %d (all demoted batches)", got, 4*per)
	}
	for cpu := 1; cpu < 4; cpu++ {
		if ran[cpu].Load() != 0 {
			t.Fatalf("shard %d ran %d, want 0", cpu, ran[cpu].Load())
		}
	}
	snap := c.Stats.Snapshot()
	ps := snap.Programs["racy"]
	if ps.ConcDemotions != 4*per {
		t.Fatalf("ConcDemotions = %d, want %d", ps.ConcDemotions, 4*per)
	}
	if ps.LastConcReason != "unguarded window at pc 7" {
		t.Fatalf("LastConcReason = %q", ps.LastConcReason)
	}
	if tot := snap.Totals(); tot.ConcDemotions != 4*per {
		t.Fatalf("total ConcDemotions = %d", tot.ConcDemotions)
	}
}

func TestConcOffIgnoresVerdicts(t *testing.T) {
	c := newTestCore()
	c.SetConc(c.Program("racy"), true, "unguarded window")
	var ran [8]atomic.Uint64
	eng := countingEngine(&ran)
	sh := c.NewSharded(ShardedConfig{Shards: 4, RingSize: 8})
	defer sh.Close()
	if err := submitOne(t, sh, eng, 3, "racy"); err != nil {
		t.Fatalf("off-mode submit refused: %v", err)
	}
	sh.Flush()
	if ran[3].Load() != 1 {
		t.Fatalf("ran = %v (off mode must not reroute)", loads(&ran))
	}
	snap := c.Stats.Snapshot()
	if snap.Programs["racy"].ConcDemotions != 0 {
		t.Fatal("off mode recorded a demotion")
	}
}

// TestConcDemotionsConcurrent hammers the warn-mode gate from many
// goroutines under the race detector: the demotion counters and the
// last-reason pointer are updated on every submission path concurrently.
func TestConcDemotionsConcurrent(t *testing.T) {
	c := newTestCore()
	c.SetConc(c.Program("racy"), true, "window")
	c.SetConc(c.Program("safe"), false, "")
	var ran [8]atomic.Uint64
	eng := countingEngine(&ran)
	sh := c.NewSharded(ShardedConfig{Shards: 4, RingSize: 64, Conc: ConcWarn})
	defer sh.Close()
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog := "racy"
			if w%2 == 1 {
				prog = "safe"
			}
			for i := 0; i < per; i++ {
				if err := submitOne(t, sh, eng, (w+i)%4, prog); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	sh.Flush()
	snap := c.Stats.Snapshot()
	if got := snap.Programs["racy"].ConcDemotions; got != workers/2*per {
		t.Fatalf("ConcDemotions = %d, want %d", got, workers/2*per)
	}
	if got := snap.Programs["safe"].ConcDemotions; got != 0 {
		t.Fatalf("safe ConcDemotions = %d", got)
	}
	if snap.Programs["racy"].LastConcReason != "window" {
		t.Fatalf("LastConcReason = %q", snap.Programs["racy"].LastConcReason)
	}
}
