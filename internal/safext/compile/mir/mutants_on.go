//go:build tvmutants

package mir

// Intentionally-miscompiling seams for the translation validator's kill
// suite. Each name below flips exactly one guard the shipped optimizer (or
// the analyze package's elision pass) relies on; the validator must reject
// every one of them, and a validator that passes one fails CI (`make tv`).
//
// The seams are selected one at a time through SetMutant, so the kill
// suite can attribute every rejection to a single wrong transform.
var mutantNames = []string{
	// fold converts a constant out-of-range array index to immediate form
	// and discharges the bounds site: the dynamic check disappears.
	"drop-bounds-check",
	// constant folding of "+" saturates instead of wrapping at the 64-bit
	// overflow boundary.
	"fold-overflow",
	// the immediate-form shift conversion masks the amount with &31
	// instead of the ALU's &63.
	"fold-shift-mask-wrong",
	// LICM hoists an array load out of a loop that stores to the array.
	"licm-past-store",
	// RLE caches map_get results on percpu/percpu_hash maps, whose slots
	// other CPUs revisit between calls.
	"rle-percpu",
	// linear scan steals an in-use callee-saved register without spilling
	// its owner: two live values share one register.
	"regalloc-clobber",
	// two adjacent map_set calls are swapped: same final state in some
	// interleavings, wrong observable effect order always.
	"reorder-map-update",
	// DCE treats map_set with an unused result as removable.
	"dce-effectful",
	// the immediate-form compare conversion flips signedness.
	"cmp-sign-swap",
	// branch threading forwards a conditional's edges crosswise.
	"thread-wrong-edge",
	// sweep drops unreachable blocks without flipping their Emit sites to
	// Folded: the check ledger claims a check the code no longer has.
	"sweep-ledger-leak",
	// the elision pass refines a conditional's false edge with the true
	// edge's relation, so an access the branch does not guard looks in
	// range and loses its check.
	"refine-false-edge",
}

var activeMutant string

// SetMutant selects an intentionally-miscompiling optimizer seam by name
// (empty string deselects). Reports whether the name is known.
func SetMutant(name string) bool {
	if name == "" {
		activeMutant = ""
		return true
	}
	for _, n := range mutantNames {
		if n == name {
			activeMutant = name
			return true
		}
	}
	return false
}

// ActiveMutant reports the selected seam name.
func ActiveMutant() string { return activeMutant }

// MutantNames lists the available seams.
func MutantNames() []string { return append([]string(nil), mutantNames...) }

func mutantActive(name string) bool { return activeMutant == name }

// MutantActive reports whether the named seam is selected, for seams that
// live outside this package (the elision pass's).
func MutantActive(name string) bool { return mutantActive(name) }

// applyMutantReorder is the reorder-map-update seam: it swaps the first
// adjacent pair of map_set calls it finds, once per function.
func applyMutantReorder(f *Func) {
	if !mutantActive("reorder-map-update") {
		return
	}
	for _, b := range f.Blocks {
		for i := 0; i+1 < len(b.Insns); i++ {
			x, y := &b.Insns[i], &b.Insns[i+1]
			if x.Op == OpCallCrate && x.Name == "map_set" && y.Op == OpCallCrate && y.Name == "map_set" {
				b.Insns[i], b.Insns[i+1] = b.Insns[i+1], b.Insns[i]
				return
			}
		}
	}
}
