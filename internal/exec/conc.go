package exec

import (
	"errors"
	"fmt"
)

// Shard-safety enforcement: the kernel-side half of the CONC property. The
// toolchain proves (or fails to prove) that a program cannot lose updates
// across the per-CPU data plane's shards; the verdict travels in the signed
// object; this file is where the plane *acts* on it. Like every safext
// property, the expensive reasoning already happened in userspace — the
// data plane pays one atomic load per submission when every resident
// program is certified, and only reads a request's verdict when a
// convicted program is actually loaded.

// ConcMode selects what a multi-shard plane does with a program whose CONC
// verdict is Racy. The zero value is ConcOff: no behavior change, bit-for-
// bit the pre-CONC plane.
type ConcMode int

const (
	// ConcOff ignores verdicts entirely.
	ConcOff ConcMode = iota
	// ConcWarn serializes Racy programs onto shard 0 — the program keeps
	// running with single-shard semantics (no cross-shard window can open)
	// and every demoted invocation is counted in ProgramStats.ConcDemotions.
	ConcWarn
	// ConcStrict refuses Racy programs at dispatch with ErrShardUnsafe.
	ConcStrict
)

func (m ConcMode) String() string {
	switch m {
	case ConcWarn:
		return "warn"
	case ConcStrict:
		return "strict"
	}
	return "off"
}

// ParseConcMode parses the -conc flag values.
func ParseConcMode(s string) (ConcMode, error) {
	switch s {
	case "off", "":
		return ConcOff, nil
	case "warn":
		return ConcWarn, nil
	case "strict":
		return ConcStrict, nil
	}
	return ConcOff, fmt.Errorf("exec: unknown conc mode %q (want off, warn, or strict)", s)
}

// ErrShardUnsafe reports a strict-mode dispatch of a program whose CONC
// verdict is Racy on a plane with more than one shard.
var ErrShardUnsafe = errors.New("exec: program convicted shard-unsafe (CONC verdict Racy) on multi-shard plane")

// concVerdict is one program's shard-safety verdict (Program.conc).
type concVerdict struct {
	racy   bool
	reason string
}

// SetConc sets a program's shard-safety verdict, replacing any prior one
// (hot-swap sets it on every activation, so the verdict tracks the running
// build, not the first one loaded). The racy count rises before the swap
// and falls after it, so it never reads below the number of racy verdicts
// and gateConc's fast path skips none.
func (c *Core) SetConc(p *Program, racy bool, reason string) {
	if racy {
		c.racy.Add(1)
	}
	if old := p.conc.Swap(&concVerdict{racy: racy, reason: reason}); old != nil && old.racy {
		c.racy.Add(-1)
	}
}

// ConcVerdict reports the named program's verdict, making no record.
// Programs without one (verifier-stack loads predating CONC, hand-built
// tests) are not racy: enforcement is opt-in per object, the verdict being
// part of what the object's signature vouches for.
func (c *Core) ConcVerdict(program string) (racy bool, reason string) {
	if p := c.Stats.lookup(program); p != nil {
		if v := p.conc.Load(); v != nil {
			return v.racy, v.reason
		}
	}
	return false, ""
}

// gateConc applies the plane's conc mode to one batch, returning the shard
// it should land on. Fast path: mode off, single shard (no cross-shard
// window exists to exploit), or zero convicted programs resident.
func (s *Sharded) gateConc(cpu int, b *Batch) (int, error) {
	if s.conc == ConcOff || len(s.rings) <= 1 || s.core.racy.Load() == 0 {
		return cpu, nil
	}
	demoted := false
	for i := range b.Reqs {
		p := b.Reqs[i].Program
		v := p.conc.Load()
		if v == nil || !v.racy {
			continue
		}
		if s.conc == ConcStrict {
			return cpu, fmt.Errorf("%w: %s: %s", ErrShardUnsafe, p.name, v.reason)
		}
		p.RecordConcDemotion(v.reason)
		demoted = true
	}
	if demoted {
		// Warn mode: the whole batch serializes onto shard 0. One shard
		// means one worker, so the convicted window can never interleave —
		// the semantics the program was (implicitly) written for.
		return 0, nil
	}
	return cpu, nil
}
