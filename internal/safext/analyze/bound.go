package analyze

import "kex/internal/safext/compile/mir"

// boundCap drops astronomically large bounds: past it a static bound is
// useless (no budget would admit it) and products risk overflow.
const boundCap = int64(1) << 40

// Cost is one emitted function as StaticBound sees it.
type Cost struct {
	// F is the function as emitted; Trips is Elide's loop bound for each
	// entry of F.Loops.
	F     *mir.Func
	Trips []int64
	// Size counts the instructions emitted for each block of F; Tail
	// those emitted after the last block (the shared trap paths).
	Size map[mir.BlockID]int64
	Tail int64
}

// StaticBound bounds the instructions one invocation of entry retires,
// or returns 0 when it cannot: a block's instructions count once per run
// of every loop around it (its trip bound plus the final exit test), a
// user call adds the callee's bound, and a function's trap tails count
// once per call (a trap ends the run).
// Recursion, a loop Elide could not bound and a bound past boundCap give
// no bound.
func StaticBound(funcs map[string]*Cost, entry string) int64 {
	memo := make(map[string]int64)
	open := make(map[string]bool)
	var bound func(name string) int64
	bound = func(name string) int64 {
		if b, ok := memo[name]; ok {
			return b
		}
		c := funcs[name]
		if c == nil || open[name] {
			return -1
		}
		open[name] = true
		defer delete(open, name)
		mult := make(map[mir.BlockID]int64)
		for li, l := range c.F.Loops {
			for _, id := range l.Blocks {
				if c.F.BlockByID(id) == nil {
					continue
				}
				if c.Trips[li] < 0 {
					return -1
				}
				m, ok := mult[id]
				if !ok {
					m = 1
				}
				mult[id] = mulCap(m, c.Trips[li]+1)
			}
		}
		total := c.Tail
		for _, b := range c.F.Blocks {
			cost := c.Size[b.ID]
			for i := range b.Insns {
				if b.Insns[i].Op == mir.OpCallUser {
					callee := bound(b.Insns[i].Name)
					if callee < 0 {
						return -1
					}
					cost += callee
				}
			}
			m, ok := mult[b.ID]
			if !ok {
				m = 1
			}
			if total += mulCap(m, cost); total > boundCap {
				return -1
			}
		}
		memo[name] = total
		return total
	}
	if b := bound(entry); b > 0 {
		return b
	}
	return 0
}

// mulCap multiplies two non-negative counts, saturating past boundCap.
func mulCap(a, b int64) int64 {
	if a != 0 && b > boundCap/a {
		return boundCap + 1
	}
	return a * b
}
