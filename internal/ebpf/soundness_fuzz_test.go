package ebpf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kex/internal/analysis/statecheck"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/ebpf/verifier"
	"kex/internal/kernel"
)

// FuzzVerifierSoundness drives the state-embedding checker with programs
// from the SAME progGen vocabulary as the acceptance fuzz: for every
// accepted program, every concrete state observed by the interpreter must
// be contained in the verifier's captured abstract state at that pc. The
// acceptance fuzz (fuzz_test.go) proves accepted programs don't damage
// the kernel; this one proves the verifier's *reasoning* about them was
// truthful. A violation is minimized and persisted under
// statecheck_witnesses/ so CI can upload the repro.

// soundnessMaps matches the map progGen references by name.
func soundnessMaps() []maps.Spec {
	return []maps.Spec{{Name: "fuzzmap", Type: maps.Array, KeySize: 4, ValueSize: 8, MaxEntries: 8}}
}

// soundnessProgram generates the seed's program via progGen.
func soundnessProgram(seed int64) statecheck.Program {
	s := NewStack(kernel.NewDefault())
	g := newProgGen(seed, s)
	steps := 4 + g.rng.Intn(20)
	for i := 0; i < steps; i++ {
		g.step()
	}
	return statecheck.Program{Name: "soundness_fuzz", Type: isa.Tracing, Insns: g.finish(), Maps: soundnessMaps()}
}

// TestSoundnessProgramDeterministic: a seed must name one program, or the
// fuzz corpus, the assertCaught sweeps and a witness's seed cannot be
// replayed. The fuzz seed corpus, and seed 3662 that older notes name as
// a Jmp32SignedBounds64 witness, are generated several times over and
// must give the same instruction bytes each time.
func TestSoundnessProgramDeterministic(t *testing.T) {
	seeds := []int64{299, 2000, 3662}
	for seed := int64(0); seed < 64; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		var first []byte
		for round := 0; round < 4; round++ {
			got, err := json.Marshal(soundnessProgram(seed).Insns)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Fatalf("seed %d: generation %d differs from the first", seed, round)
			}
		}
	}
}

// soundnessCheckSeed runs one seed through the checker with the given
// verifier bug flags.
func soundnessCheckSeed(seed int64, bugs verifier.BugConfig) (*statecheck.Verdict, statecheck.Program, error) {
	p := soundnessProgram(seed)
	cfg := statecheck.Config{Verifier: verifier.DefaultConfig(), Seed: seed}
	cfg.Verifier.Bugs = bugs
	v, err := statecheck.Check(p, cfg)
	return v, p, err
}

func FuzzVerifierSoundness(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	// Known bug-convicting seeds (under reintroduced verifier bugs); sound
	// on the fixed verifier, but worth keeping in the corpus.
	f.Add(int64(2000))
	f.Add(int64(299))
	f.Fuzz(func(t *testing.T, seed int64) {
		v, p, err := soundnessCheckSeed(seed, verifier.BugConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !v.Accepted {
			return // rejected programs carry no soundness claim
		}
		for _, w := range v.Witnesses {
			t.Errorf("seed %d: UNSOUNDNESS WITNESS: %v\nprog:\n%v", seed, w, p.Insns)
		}
		if len(v.Witnesses) > 0 {
			persistWitnesses(t, seed, p)
		}
	})
}

// persistWitnesses shrinks and saves the seed's findings so the CI
// artifact upload can collect them. The JSON shape matches
// bugcorpus.WitnessRepro so a saved file can be replayed with
// bugcorpus.LoadWitness (that package cannot be imported here: it
// depends on this one).
func persistWitnesses(t *testing.T, seed int64, p statecheck.Program) {
	cfg := statecheck.Config{Verifier: verifier.DefaultConfig(), Seed: seed, Shrink: true}
	v, err := statecheck.Check(p, cfg)
	if err != nil || len(v.Witnesses) == 0 {
		return
	}
	w := v.Witnesses[0]
	repro := struct {
		ID      string               `json:"id"`
		FoundBy string               `json:"found_by"`
		Bugs    verifier.BugConfig   `json:"bugs"`
		Insns   []isa.Instruction    `json:"insns"`
		Maps    []maps.Spec          `json:"maps,omitempty"`
		Runs    []statecheck.RunSpec `json:"runs,omitempty"`
		Seed    int64                `json:"seed,omitempty"`
		Reason  string               `json:"reason"`
	}{
		ID:      fmt.Sprintf("Wfuzz-seed-%d", seed),
		FoundBy: fmt.Sprintf("FuzzVerifierSoundness seed=%d", seed),
		Insns:   w.Insns,
		Maps:    p.Maps,
		Seed:    seed,
		Reason:  w.Reason,
	}
	if err := os.MkdirAll("statecheck_witnesses", 0o755); err != nil {
		t.Logf("failed to persist witness: %v", err)
		return
	}
	data, _ := json.MarshalIndent(repro, "", "  ")
	path := filepath.Join("statecheck_witnesses", repro.ID+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Logf("failed to persist witness: %v", err)
		return
	}
	t.Logf("witness repro saved to %s", path)
}

// TestSoundnessFuzzSeedCorpusClean is the deterministic core of the CI
// smoke: the fuzz seed corpus must be witness-free on the fixed verifier.
func TestSoundnessFuzzSeedCorpusClean(t *testing.T) {
	accepted := 0
	for seed := int64(0); seed < 200; seed++ {
		v, p, err := soundnessCheckSeed(seed, verifier.BugConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !v.Accepted {
			continue
		}
		accepted++
		for _, w := range v.Witnesses {
			t.Errorf("seed %d: witness: %v\nprog:\n%v", seed, w, p.Insns)
		}
	}
	if accepted < 10 {
		t.Fatalf("only %d/200 seeds accepted — generator too hostile to test soundness", accepted)
	}
}

// TestSoundnessFuzzCatchesBrokenTnum proves the oracle has teeth: with the
// synthetic carry-dropping tnum add enabled, the same seed sweep the CI
// smoke runs must convict the verifier.
func TestSoundnessFuzzCatchesBrokenTnum(t *testing.T) {
	assertCaught(t, verifier.BugConfig{TnumAddNoCarry: true}, "TnumAddNoCarry")
}

// TestSoundnessFuzzCatchesJmp32Bug does the same for the reintroduced
// CVE-2021-31440-class 32-bit signed-bounds confusion.
func TestSoundnessFuzzCatchesJmp32Bug(t *testing.T) {
	assertCaught(t, verifier.BugConfig{Jmp32SignedBounds64: true}, "Jmp32SignedBounds64")
}

// assertCaught sweeps the deterministic seed range and requires at least
// one witness against the given broken verifier. The range is sized from
// measurement: the first convicting seeds are 2000 (TnumAddNoCarry) and
// 299 (Jmp32SignedBounds64), so [0, 8000) gives 4x headroom while the
// sweep still finishes in roughly a second (it stops at the first catch).
func assertCaught(t *testing.T, bugs verifier.BugConfig, name string) {
	for seed := int64(0); seed < 8000; seed++ {
		v, p, err := soundnessCheckSeed(seed, bugs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if v.Accepted && len(v.Witnesses) > 0 {
			t.Logf("seed %d convicts %s: %v (prog %d insns)", seed, name, v.Witnesses[0], len(p.Insns))
			return
		}
	}
	t.Fatalf("no seed in [0,8000) produced a witness against %s — the oracle is blind to it", name)
}

// TestMain leaves witness artifacts in place on failure but removes the
// directory when the whole package run passed, keeping local trees clean.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		os.RemoveAll("statecheck_witnesses")
	}
	os.Exit(code)
}
