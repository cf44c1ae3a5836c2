package exec

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/interp"
)

// recordRunPerRun is the per-invocation accounting the batch fold
// replaced: one set of atomic adds per run, to the record of the report's
// program. TestFoldMatchesPerRunRecord holds the fold to it.
func recordRunPerRun(s *Stats, cpu int, rep *Report, engineErr error) {
	st := &s.prog(rep.Program).stripes[uint(cpu)%statStripes]
	st.n[pInvocations].Add(1)
	if engineErr != nil {
		st.n[pErrors].Add(1)
	}
	st.n[pInstructions].Add(rep.Instructions)
	st.n[pFuelUsed].Add(rep.FuelUsed)
	st.n[pMapOps].Add(rep.MapOps)
	st.n[pRuntimeNs].Add(uint64(rep.RuntimeNs))
	st.n[pWallNs].Add(uint64(rep.WallNs))
	st.n[pCPUTimeNs].Add(uint64(rep.CPUTimeNs))
	for slot, n := range rep.HelperCalls {
		if n != 0 {
			st.helpers.add(slot, n)
		}
	}
	cs := s.cpu(cpu)
	cs.n[cInvocations].Add(1)
	cs.n[cInstructions].Add(rep.Instructions)
	cs.n[cRuntimeNs].Add(uint64(rep.RuntimeNs))
	cs.n[cWallNs].Add(uint64(rep.WallNs))
	cs.n[cCPUTimeNs].Add(uint64(rep.CPUTimeNs))
}

// foldStep is what one request of the edge-case batch does in the engine.
type foldStep struct {
	ticks   uint64
	helpers []string
	err     error
}

// TestFoldMatchesPerRunRecord runs one supervised batch that mixes a clean
// run, an engine error, a dispatch denied because that error quarantined
// its program, and a run whose helper slot lies past the report's inline
// counts, and two programs interleave. The snapshot must equal the one
// per-run accounting gives for the same reports and supervisor events.
func TestFoldMatchesPerRunRecord(t *testing.T) {
	// Push a helper past the inline slots: in this process more than
	// inlineCalls helper names have been counted before it.
	var filler helpers.Calls
	for i := 0; i <= inlineCalls; i++ {
		filler = filler.Add(fmt.Sprintf("fold_filler_%d", i), 1)
	}
	late := "fold_late_probe"
	if filler = filler.Add(late, 1); len(filler) <= inlineCalls {
		t.Fatalf("late helper slot %d is inline", len(filler)-1)
	}

	c := newTestCore()
	c.Supervise(SupervisorConfig{TripThreshold: 1})
	boom := errors.New("boom")
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		step := env.Scratch.(*foldStep)
		env.Ctx.Tick(step.ticks)
		for _, h := range step.helpers {
			env.CountHelper(h)
		}
		env.MapOps += step.ticks
		return step.ticks, step.err
	}}
	reqs := []Request{
		{Program: c.Program("a"), Scratch: &foldStep{ticks: 3, helpers: []string{"fold_filler_0"}}},
		{Program: c.Program("e"), Scratch: &foldStep{ticks: 5, err: boom}},
		{Program: c.Program("a"), Scratch: &foldStep{ticks: 7, helpers: []string{late, late, "fold_filler_1"}}},
		{Program: c.Program("e"), Scratch: &foldStep{ticks: 11}}, // denied: "e" is quarantined
		{Program: c.Program("b"), Scratch: &foldStep{ticks: 13, helpers: []string{"fold_filler_0"}}},
		{Program: c.Program("a"), Scratch: &foldStep{ticks: 17}},
	}
	const cpu = 1
	results := c.RunBatch(eng, cpu, reqs, nil)

	var want Stats
	want.sizeCPUs(c.K.Cfg.NumCPU)
	for i, r := range results {
		switch {
		case i == 1:
			if !errors.Is(r.Err, boom) {
				t.Fatalf("request 1 err = %v, want boom", r.Err)
			}
		case i == 3:
			if r.Report.Supervision != "denied" || r.Report.R0 != 0 {
				t.Fatalf("request 3 report = %+v, want a denied fallback", r.Report)
			}
			continue
		case r.Err != nil:
			t.Fatalf("request %d err = %v", i, r.Err)
		}
		recordRunPerRun(&want, cpu, r.Report, r.Err)
	}
	e := want.prog("e")
	e.at(pFaults).Add(1)
	e.recordTransition(StateHealthy, StateQuarantined)
	e.recordDenied()

	got, exp := c.Stats.Snapshot(), want.Snapshot()
	if !reflect.DeepEqual(got, exp) {
		t.Fatalf("folded snapshot:\n got %+v\nwant %+v", got, exp)
	}
	if a := got.Programs["a"]; a.Invocations != 3 || a.HelperCalls[late] != 2 || a.Instructions != 27 {
		t.Fatalf("program a = %+v", a)
	}
	if e := got.Programs["e"]; e.Invocations != 1 || e.Errors != 1 || e.Denied != 1 {
		t.Fatalf("program e = %+v", e)
	}
}

// TestFoldSnapshotLag pins the lag rule of the batch fold on a sharded
// plane: a snapshot taken from a Finish hook while a batch runs counts
// every earlier batch and none of the running one, and a snapshot taken
// from Batch.Done counts the whole batch.
func TestFoldSnapshotLag(t *testing.T) {
	c := newTestCore()
	eng := fakeEngine{name: "fake", run: func(env *helpers.Env, opts interp.Options) (uint64, error) {
		env.Ctx.Tick(2)
		env.CountHelper("bpf_ktime_get_ns")
		return 0, nil
	}}
	sh := c.NewSharded(ShardedConfig{Shards: 1})
	defer sh.Close()
	const batches, per = 4, 5
	type seen struct{ mid, done Snapshot }
	snaps := make([]seen, batches)
	for b := 0; b < batches; b++ {
		reqs := make([]Request, per)
		for i := range reqs {
			reqs[i] = Request{Program: c.Program("lag")}
		}
		reqs[per/2].Finish = func(*helpers.Env, *Report, error) { snaps[b].mid = c.Stats.Snapshot() }
		done := func([]BatchResult) { snaps[b].done = c.Stats.Snapshot() }
		if err := sh.SubmitWait(0, Batch{Engine: eng, Reqs: reqs, Done: done}); err != nil {
			t.Fatal(err)
		}
	}
	sh.Flush()
	for b, s := range snaps {
		for _, at := range []struct {
			name string
			snap Snapshot
			runs uint64
		}{{"mid-batch", s.mid, uint64(b * per)}, {"Done", s.done, uint64((b + 1) * per)}} {
			ps, cs := at.snap.Programs["lag"], at.snap.CPUs[0]
			if ps.Invocations != at.runs || ps.Instructions != 2*at.runs || ps.HelperCalls["bpf_ktime_get_ns"] != at.runs {
				t.Errorf("batch %d %s snapshot: program %+v, want %d runs", b, at.name, ps, at.runs)
			}
			if cs.Invocations != at.runs || cs.CPUTimeNs != int64(2*at.runs) {
				t.Errorf("batch %d %s snapshot: cpu %+v, want %d runs", b, at.name, cs, at.runs)
			}
		}
	}
}
