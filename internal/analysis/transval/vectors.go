package transval

import (
	"sort"

	"kex/internal/analysis/mirrun"
	"kex/internal/safext/compile"
	"kex/internal/safext/compile/mir"
)

// Input-vector synthesis. The interesting inputs of an SLX program are the
// constants its own checks and branches compare against: array lengths,
// branch immediates, fold products, and the interval endpoints the
// elision pass proved at block entries (MIRFuncArtifact.Endpoints). Those
// are the loop bounds and derived limits the optimized code's folded
// compares sit on, so probing at endpoint±1 exercises the first and last
// iteration and the exit edge of every loop the domain can bound. The
// palette is those values and their off-by-one neighbours plus the
// classic 64-bit boundary cases; every volatile model value (crate
// results, percpu streams) and every function parameter is drawn from it,
// seeded per vector.

// paletteCap bounds the palette so vector cost stays flat across programs.
const paletteCap = 64

func buildPalette(funcs []compile.MIRFuncArtifact) []uint64 {
	seen := map[uint64]bool{}
	var pal []uint64
	add := func(v uint64) {
		if !seen[v] {
			seen[v] = true
			pal = append(pal, v)
		}
	}
	addNear := func(v int64) {
		add(uint64(v))
		add(uint64(v - 1))
		add(uint64(v + 1))
	}

	// 64-bit boundary classics: zero, small counts, sign and overflow
	// boundaries, all-ones, single high bit.
	for _, v := range []int64{0, 1, 2, 3, 5, 7, 8, 16, 63, 64, 255, 256, 1023} {
		add(uint64(v))
	}
	add(^uint64(0))
	add(1 << 63)
	add(1<<63 - 1)
	add(1<<63 + 1)
	add(1<<32 - 1)
	add(1 << 32)

	for i := range funcs {
		f := funcs[i].Naive
		for _, n := range f.Arrays {
			addNear(n)
		}
		for _, b := range f.Blocks {
			for j := range b.Insns {
				in := &b.Insns[j]
				if in.Op == mir.OpConst {
					addNear(in.Imm)
				}
				if in.BIsImm {
					addNear(in.BImm)
				}
				if in.IdxIsImm {
					addNear(in.IdxImm)
				}
				for k := range in.Args {
					if in.Args[k].IsImm {
						addNear(in.Args[k].Imm)
					}
				}
			}
			if b.Term.BIsImm {
				addNear(b.Term.BImm)
			}
			if b.Term.RetIsImm {
				add(uint64(b.Term.RetImm))
			}
		}
		for _, v := range funcs[i].Endpoints {
			addNear(v)
		}
	}

	// Deterministic order, capped. Sorting keeps the small/boundary values
	// (which sort low unsigned) ahead of large constants and endpoints.
	sort.Slice(pal, func(a, b int) bool { return pal[a] < pal[b] })
	if len(pal) > paletteCap {
		pal = pal[:paletteCap]
	}
	return pal
}

// paramVector draws one function's parameter values from the palette.
func paramVector(pal []uint64, seed uint64, nParams int) []uint64 {
	args := make([]uint64, nParams)
	for i := range args {
		args[i] = pal[mirrun.Mix(seed, 0x70617261, uint64(i))%uint64(len(pal))]
	}
	return args
}
