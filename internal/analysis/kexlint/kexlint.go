// Package kexlint is a repo-specific invariant analyzer: a small multi-checker
// over the Go source tree that enforces properties no general-purpose linter
// knows about. The checkers encode invariants this codebase's correctness
// arguments depend on:
//
//   - rcubalance: a function that enters an RCU read-side critical section
//     (.ReadLock) must guarantee the matching .ReadUnlock on every exit path,
//     which in Go means a defer whose body (transitively, through nested
//     function literals) performs the unlock. A straight-line unlock leaks
//     the critical section on early returns and panics.
//   - helpereffects: in the eBPF helper registry, an implementation that
//     tracks an acquired reference (Ctx.TrackRef) must declare AcquiresRef
//     in its spec — otherwise the verifier reasons from a prototype that
//     contradicts the runtime effect.
//   - randdeterminism: packages whose replayability depends on owned RNG
//     state (fault-injection campaigns, synthetic call-graph generation)
//     must not touch math/rand global state; constructors like rand.New and
//     rand.NewSource are the sanctioned idiom.
//   - atomicmix: a struct field updated through sync/atomic pointer calls
//     must never also be accessed with plain loads/stores in the same
//     package — the plain side has no happens-before edge and reads stale
//     values on weakly-ordered hardware.
//
// The package is stdlib-only (go/ast, go/parser, go/token) so it runs in CI
// with no module downloads.
package kexlint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one invariant violation.
type Finding struct {
	Pos     token.Position
	Checker string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Checker, f.Message)
}

// Config selects the tree to analyze and which directories carry the
// directory-scoped invariants. Directory entries match a path relative to
// Root (slash-separated) exactly, as a trailing suffix, or as an ancestor:
// listing internal/safext/compile covers its nested subpackages too.
type Config struct {
	Root string
	// DeterministicDirs must not use math/rand global state.
	DeterministicDirs []string
	// HelperDirs hold helper registries whose specs must match impl effects.
	HelperDirs []string
}

// DefaultConfig is the repo-wide configuration used by `make lint`.
func DefaultConfig(root string) Config {
	return Config{
		Root: root,
		// internal/safext/compile covers the whole compiler including the
		// mir subpackage (matchDir descends into nested subpackages);
		// internal/analysis/transval is listed because validation results
		// feed build decisions and certificates — a nondeterministic
		// validator would make the same source demote on one build host
		// and validate on another.
		// internal/analysis/concheck (and its mutants subpackage, via the
		// same descent) is deterministic for the same reason as transval:
		// its verdicts are serialized into signed objects and enforced at
		// dispatch, so the same source must classify identically on every
		// build host — and its interleaving oracle must replay schedules
		// bit-for-bit from its seeds.
		// internal/analysis/mirrun is the MIR machine both of those run on:
		// TVAL certificate bytes and oracle replays depend on it.
		// internal/ebpf/interp and internal/ebpf/jit are the two execution
		// engines: their instruction, fuel and virtual-time accounting
		// feeds the X3 replay and the statecheck traces, which must be
		// bit-identical from run to run and from one engine to the other.
		DeterministicDirs: []string{"internal/faultinject", "internal/kernel/callgraph", "internal/analysis/statecheck", "internal/analysis/transval", "internal/analysis/concheck", "internal/analysis/mirrun", "internal/registry", "internal/fleet", "internal/safext/compile", "internal/rng", "internal/ebpf/interp", "internal/ebpf/jit"},
		HelperDirs:        []string{"internal/ebpf/helpers"},
	}
}

// dir is one parsed directory of Go files.
type dir struct {
	rel   string // slash-separated path relative to cfg.Root ("." for root)
	files map[string]*ast.File
}

// Run parses every Go file under cfg.Root (skipping testdata, vendor and
// VCS directories) and applies all checkers. Findings come back sorted by
// position for stable output.
func Run(cfg Config) ([]Finding, error) {
	fset := token.NewFileSet()
	dirs, err := parseTree(fset, cfg.Root)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, d := range dirs {
		out = append(out, rcuBalance(fset, d)...)
		out = append(out, atomicMix(fset, d)...)
		if matchDir(d.rel, cfg.HelperDirs) {
			out = append(out, helperEffects(fset, d)...)
		}
		if matchDir(d.rel, cfg.DeterministicDirs) {
			out = append(out, randDeterminism(fset, d)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Checker < out[j].Checker
	})
	return out, nil
}

func matchDir(rel string, dirs []string) bool {
	for _, d := range dirs {
		if rel == d || strings.HasSuffix(rel, "/"+d) {
			return true
		}
		// Nested subpackages of a listed directory inherit its invariant:
		// the listed path as a leading prefix (rooted tree) or enclosed by
		// slashes (suffix-matched tree).
		if strings.HasPrefix(rel, d+"/") || strings.Contains(rel, "/"+d+"/") {
			return true
		}
	}
	return false
}

func parseTree(fset *token.FileSet, root string) ([]*dir, error) {
	byDir := map[string]*dir{}
	err := filepath.WalkDir(root, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			name := de.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(de.Name(), ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("kexlint: %w", err)
		}
		dp := filepath.Dir(path)
		d := byDir[dp]
		if d == nil {
			rel, rerr := filepath.Rel(root, dp)
			if rerr != nil {
				rel = dp
			}
			d = &dir{rel: filepath.ToSlash(rel), files: map[string]*ast.File{}}
			byDir[d.rel] = d
			byDir[dp] = d
		}
		d.files[path] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	seen := map[*dir]bool{}
	var dirs []*dir
	for _, d := range byDir {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].rel < dirs[j].rel })
	return dirs, nil
}

// selCall reports whether n is a method/selector call named sel, e.g.
// x.ReadLock(...) for sel == "ReadLock".
func selCall(n ast.Node, sel string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	s, ok := call.Fun.(*ast.SelectorExpr)
	return ok && s.Sel.Name == sel
}

// containsSelCall reports whether the subtree rooted at n contains a call
// to any selector named sel, descending into nested function literals.
func containsSelCall(n ast.Node, sel string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if selCall(m, sel) {
			found = true
			return false
		}
		return true
	})
	return found
}
