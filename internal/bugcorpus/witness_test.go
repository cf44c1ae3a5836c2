package bugcorpus

import (
	"path/filepath"
	"testing"

	"kex/internal/analysis/statecheck"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/verifier"
)

// TestWitnessRoundtrip saves a repro, loads it back, and replays it: the
// recorded bug flags must still produce a witness, and clearing them must
// not.
func TestWitnessRoundtrip(t *testing.T) {
	w := &statecheck.WitnessRepro{
		FoundBy: "unit test",
		Bugs:    verifier.BugConfig{OffByOneJle: true},
		Insns: []isa.Instruction{
			isa.LoadMem(isa.SizeW, isa.R2, isa.R1, 0),
			isa.Mov64Imm(isa.R0, 0),
			isa.JmpImm(isa.OpJle, isa.R2, 5, 1),
			isa.Ja(1),
			isa.Mov64Reg(isa.R0, isa.R2),
			isa.Exit(),
		},
		// The violation needs the boundary value in the context word.
		Runs: []statecheck.RunSpec{{Ctx: []byte{5, 0, 0, 0}}},
	}
	dir := t.TempDir()
	path, err := statecheck.SaveWitness(dir, w)
	if err != nil {
		t.Fatal(err)
	}
	if w.ID == "" {
		t.Fatal("SaveWitness did not assign an ID")
	}
	loaded, err := statecheck.LoadWitness(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ID != w.ID || len(loaded.Insns) != len(w.Insns) {
		t.Fatalf("roundtrip mismatch: %+v", loaded)
	}
	// A caller-chosen ID, as the soundness fuzz campaign gives its seeds,
	// names the file and survives the round trip.
	named := *w
	named.ID = "Wfuzz-seed-7"
	if path, err := statecheck.SaveWitness(dir, &named); err != nil || filepath.Base(path) != "Wfuzz-seed-7.json" {
		t.Fatalf("SaveWitness(Wfuzz-seed-7) = %s, %v", path, err)
	} else if got, err := statecheck.LoadWitness(path); err != nil || got.ID != named.ID {
		t.Fatalf("LoadWitness(%s) = %+v, %v", path, got, err)
	}
	v, err := loaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Accepted || len(v.Witnesses) == 0 {
		t.Fatalf("replay lost the witness: accepted=%v witnesses=%d", v.Accepted, len(v.Witnesses))
	}
	// Same program under the fixed verifier: sound.
	fixed := *loaded
	fixed.Bugs = verifier.BugConfig{}
	v, err = fixed.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Sound() {
		t.Fatalf("fixed verifier unsound on witness program: %v", v.Witnesses)
	}
}

// TestCommittedWitnessesReplay keeps the checked-in repro files honest:
// every witness in testdata still reproduces under its recorded flags.
func TestCommittedWitnessesReplay(t *testing.T) {
	files, err := filepath.Glob("testdata/witnesses/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed witness repros")
	}
	for _, f := range files {
		w, err := statecheck.LoadWitness(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if w.ID == "" || w.FoundBy == "" || w.Reason == "" {
			t.Errorf("%s: incomplete repro metadata", f)
		}
		v, err := w.Replay()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !v.Accepted {
			t.Errorf("%s: no longer accepted: %s", f, v.RejectErr)
			continue
		}
		if len(v.Witnesses) == 0 {
			t.Errorf("%s: no longer reproduces", f)
		}
		if (w.Bugs == verifier.BugConfig{}) {
			t.Errorf("%s: reproduces against the FIXED verifier — live soundness bug", f)
		}
	}
}
