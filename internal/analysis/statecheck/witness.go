package statecheck

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/ebpf/verifier"
)

// Witness persistence: confirmed unsoundness findings from the oracle
// become deterministic repro files, in the one format both the soundness
// fuzz campaign (internal/ebpf) and the committed corpus
// (internal/bugcorpus) read and write. Where the static Table 1 entries
// document the *kernel's* historical bugs, witness repros document bugs
// found in THIS repo's verifier — the corpus the soundness campaign grows.
// Each file carries everything a replay needs: the program, its maps, the
// verifier bug flags active when it was found (empty for a genuine new
// bug), and the concrete runs that exposed the violation.

// WitnessRepro is one persisted finding.
type WitnessRepro struct {
	// ID is a content hash of the program and flags, stable across runs.
	ID string `json:"id"`
	// FoundBy records the finder, e.g. "FuzzVerifierSoundness seed=17".
	FoundBy string `json:"found_by"`
	// Bugs are the reintroduced-verifier-bug flags the finding requires;
	// all-zero means the finding indicts the current fixed verifier.
	Bugs verifier.BugConfig `json:"bugs"`
	// Insns is the (shrunk) witness program.
	Insns []isa.Instruction `json:"insns"`
	// Maps are the map specs the program references.
	Maps []maps.Spec `json:"maps,omitempty"`
	// Runs are the concrete executions that exposed the violation; empty
	// means the default run set with Seed.
	Runs []RunSpec `json:"runs,omitempty"`
	Seed int64     `json:"seed,omitempty"`
	// Reason is the human-readable violation from the original witness.
	Reason string `json:"reason"`
}

// witnessID hashes the repro's replay-relevant content.
func witnessID(w *WitnessRepro) string {
	h := sha256.New()
	enc, _ := json.Marshal(struct {
		Bugs  verifier.BugConfig
		Insns []isa.Instruction
		Runs  []RunSpec
		Seed  int64
	}{w.Bugs, w.Insns, w.Runs, w.Seed})
	h.Write(enc)
	return "W" + hex.EncodeToString(h.Sum(nil))[:12]
}

// SaveWitness writes the repro as dir/<id>.json, creating dir as needed,
// and returns the file path. A missing ID is filled in from the content
// hash, so re-finding the same program is idempotent.
func SaveWitness(dir string, w *WitnessRepro) (string, error) {
	if w.ID == "" {
		w.ID = witnessID(w)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, w.ID+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadWitness reads one repro file.
func LoadWitness(path string) (*WitnessRepro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	w := &WitnessRepro{}
	if err := json.Unmarshal(data, w); err != nil {
		return nil, fmt.Errorf("statecheck: witness %s: %w", path, err)
	}
	return w, nil
}

// Replay re-runs the statecheck against the repro's recorded flags and
// returns the verdict. A healthy repro still yields at least one witness
// under its recorded bug flags; a repro with all-zero flags that still
// reproduces means the live verifier is unsound.
func (w *WitnessRepro) Replay() (*Verdict, error) {
	cfg := Config{Verifier: verifier.DefaultConfig(), Runs: w.Runs, Seed: w.Seed}
	cfg.Verifier.Bugs = w.Bugs
	return Check(Program{
		Name:  w.ID,
		Type:  isa.Tracing,
		Insns: w.Insns,
		Maps:  w.Maps,
	}, cfg)
}
