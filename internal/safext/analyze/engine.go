// Package analyze is the trusted toolchain's static analysis over the SLX
// compiler's mid-level IR (package mir): one forward dataflow engine,
// Forward, with the abstract domain passed in. Its interval + known-bits
// domain (the lattice of internal/ebpf/verifier, with userspace budgets:
// running out stops proving, it never rejects) drives the elision pass,
// Elide, and the static instruction bound, StaticBound; the interval
// endpoints Elide proves seed the translation validator's palette, and
// the shard-safety analyzer runs its own domain on the same engine. This
// is the paper's §3 bet: analysis moves out of the kernel into the
// toolchain, and what it proves rides to the kernel behind the object
// signature instead of being re-derived.
package analyze

import "kex/internal/safext/compile/mir"

// Domain is one forward analysis over a MIR function, run by Forward. S
// is the abstract state at a program point; a domain may mutate the state
// it is handed by Transfer, never one it returned earlier.
type Domain[S any] interface {
	// Copy returns a copy of src the caller may mutate without touching
	// src, reusing the storage of dst, a state the engine no longer needs
	// (or the zero S).
	Copy(dst, src S) S
	// Transfer runs block b's instructions over in and returns the state
	// at its terminator.
	Transfer(b *mir.Block, in S) S
	// Edge refines st, the state flowing from b's terminator to
	// successor to, by what the edge proves (a TermCond's relation or its
	// negation). st is the caller's to mutate.
	Edge(b *mir.Block, to mir.BlockID, st S) S
	// Join merges in into old, the state already at a block entry, and
	// reports whether the result differs from old. It may return old
	// updated in place but must not keep in.
	Join(old, in S) (S, bool)
	// Widen is Join at the header of loop l once the header has been
	// joined widenAfter times: it jumps whatever is still growing in the
	// loop's own definitions to a bound, so the fixpoint converges.
	Widen(old, in S, l *mir.Loop) (S, bool)
}

// widenAfter is how many joins a loop header takes plainly before it
// widens: one lets a loop-carried value show its step first, so widening
// moves only the bound that grows.
const widenAfter = 1

// Flow is a converged forward analysis: the state at the entry of every
// block it reached, indexed by block ID.
type Flow[S any] struct {
	In      []S
	Reached []bool
}

// At reports the entry state of block id and whether the analysis reached
// it.
func (fl *Flow[S]) At(id mir.BlockID) (S, bool) {
	if int(id) >= len(fl.In) || !fl.Reached[id] {
		var zero S
		return zero, false
	}
	return fl.In[id], true
}

// Forward runs d over f from entry to a fixpoint: a per-block worklist in
// layout order, Join where paths meet, Widen at the headers of f.Loops and
// Edge on every control transfer. Each instruction transferred spends one
// unit of *budget; if it runs out the analysis stops and ok is false, and
// nothing it computed may be used.
func Forward[S any](f *mir.Func, d Domain[S], entry S, budget *int) (fl *Flow[S], ok bool) {
	n := 0
	for _, b := range f.Blocks {
		n = max(n, int(b.ID)+1)
	}
	fl = &Flow[S]{In: make([]S, n), Reached: make([]bool, n)}
	if len(f.Blocks) == 0 {
		return fl, true
	}
	pos := make([]int, n)
	for i, b := range f.Blocks {
		pos[b.ID] = i
	}
	header := make([]*mir.Loop, n)
	for _, l := range f.Loops {
		if int(l.Header) < n {
			header[l.Header] = l
		}
	}
	joins := make([]int, n)
	pending := make([]bool, len(f.Blocks))
	// spare holds states a join consumed, for Copy to reuse.
	var spare []S
	copyOf := func(src S) S {
		var dst S
		if k := len(spare); k > 0 {
			dst, spare = spare[k-1], spare[:k-1]
		}
		return d.Copy(dst, src)
	}

	first := f.Blocks[0].ID
	fl.In[first], fl.Reached[first] = entry, true
	pending[0] = true
	for more := true; more; {
		more = false
		for i, b := range f.Blocks {
			if !pending[i] {
				continue
			}
			pending[i] = false
			if *budget -= len(b.Insns) + 1; *budget < 0 {
				return fl, false
			}
			out := d.Transfer(b, copyOf(fl.In[b.ID]))
			succs := b.Term.Succs()
			for k, to := range succs {
				in := out
				if k < len(succs)-1 {
					in = copyOf(out)
				}
				in = d.Edge(b, to, in)
				changed := true
				switch {
				case !fl.Reached[to]:
					fl.In[to], fl.Reached[to] = in, true
				case header[to] != nil && joins[to] >= widenAfter:
					fl.In[to], changed = d.Widen(fl.In[to], in, header[to])
					spare = append(spare, in)
				default:
					fl.In[to], changed = d.Join(fl.In[to], in)
					joins[to]++
					spare = append(spare, in)
				}
				if changed {
					pending[pos[to]] = true
					more = true
				}
			}
		}
	}
	return fl, true
}
