package ebpf

import (
	"strings"
	"testing"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/isa"
	"kex/internal/ebpf/maps"
	"kex/internal/ebpf/verifier"
	"kex/internal/kernel"
)

// tableMap is the reference for CallFact.Map: the map every snapshot at a
// helper call agrees register r names, read from the captured state table
// as the shard-safety analyzer once read it.
func tableMap(snaps []verifier.StateSnap, r isa.Register) string {
	name := ""
	for i := range snaps {
		m := snaps[i].Regs[r].Map
		if m == nil {
			return ""
		}
		if name == "" {
			name = m.Name
		} else if name != m.Name {
			return ""
		}
	}
	return name
}

// tableKey is the reference for CallFact.Key: register r is a stack
// pointer at a fixed offset in every snapshot, and the 8-byte slot there
// holds one constant (known zero or a spilled constant scalar) in all.
func tableKey(snaps []verifier.StateSnap, r isa.Register) (uint64, bool) {
	var val uint64
	have := false
	for i := range snaps {
		reg := snaps[i].Regs[r]
		if reg.Type != verifier.PtrToStack || reg.Tnum.Mask != 0 {
			return 0, false
		}
		slot := int(reg.Off+int64(reg.Tnum.Value)) / 8
		var c uint64
		found := false
		for _, s := range snaps[i].Stack {
			if s.Slot != slot {
				continue
			}
			if s.Kind == "zero" {
				c, found = 0, true
			} else if s.Kind == "spill" && s.Spill != nil &&
				s.Spill.Type == verifier.Scalar && s.Spill.Tnum.Mask == 0 {
				c, found = s.Spill.Tnum.Value, true
			}
			break
		}
		if !found || have && c != val {
			return 0, false
		}
		val, have = c, true
	}
	return val, have
}

// disagreeingCalls are programs whose two paths pass different maps, or
// different constant keys, to one lookup: no golden program does, and a
// fact must be poisoned there.
func disagreeingCalls(t testing.TB) []goldenProgram {
	lookup, ok := NewStack(kernel.NewDefault()).Helpers.ByName("bpf_map_lookup_elem")
	if !ok {
		t.Fatal("bpf_map_lookup_elem missing")
	}
	arms := func(mapB string, keyB int32) []isa.Instruction {
		return []isa.Instruction{
			isa.LoadMem(isa.SizeDW, isa.R6, isa.R1, 0),
			isa.JmpImm(isa.OpJgt, isa.R6, 5, 3),
			isa.Mov64Imm(isa.R7, 3),
			isa.LoadMapRef(isa.R1, "a"),
			isa.Ja(2),
			isa.Mov64Imm(isa.R7, keyB),
			isa.LoadMapRef(isa.R1, mapB),
			isa.StoreMem(isa.SizeDW, isa.R10, -8, isa.R7),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.ALU64Imm(isa.OpAdd, isa.R2, -8),
			isa.Call(int32(lookup.ID)),
			isa.Mov64Imm(isa.R0, 0),
			isa.Exit(),
		}
	}
	specs := []maps.Spec{
		{Name: "a", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 16},
		{Name: "b", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 16},
	}
	return []goldenProgram{
		{name: "facts/maps_differ", typ: isa.Tracing, insns: arms("b", 3), maps: specs},
		{name: "facts/keys_differ", typ: isa.Tracing, insns: arms("a", 4), maps: specs},
	}
}

// TestVerifierFactsMatchTable: over the golden corpus (statecheck seeds
// 1-60 included) and two programs whose paths disagree at a call, the
// facts the verifier joins at each helper call answer what the captured
// state table answers. At a pc whose snapshot list saturated, the table
// answers nothing, and a fact may say more — but never something a
// captured snapshot contradicts.
func TestVerifierFactsMatchTable(t *testing.T) {
	checked, known := 0, 0
	for _, p := range append(goldenCorpus(t), disagreeingCalls(t)...) {
		s := NewStack(kernel.NewDefault())
		for _, spec := range p.maps {
			if _, err := s.CreateMap(spec); err != nil {
				t.Fatalf("%s: create map %s: %v", p.name, spec.Name, err)
			}
		}
		prog := &isa.Program{Name: p.name, Type: p.typ, Insns: p.insns}
		cfg := s.VerifierConfig
		cfg.CaptureState = true
		cfg.Bugs = p.bugs
		res, err := verifier.Verify(prog, s.Helpers, s.mapMeta, cfg)
		if err != nil {
			if strings.HasPrefix(p.name, "facts/") {
				t.Fatalf("%s: rejected: %v", p.name, err)
			}
			continue
		}
		for pc, ins := range p.insns {
			if !ins.IsCall() {
				continue
			}
			spec, ok := s.Helpers.ByID(helpers.ID(ins.Imm))
			if !ok {
				continue
			}
			snaps, sat := res.States.At(pc)
			fact := res.Facts[pc]
			for i, at := range spec.Args {
				r := isa.Register(i + 1)
				switch at {
				case helpers.ArgConstMapHandle:
					checked++
					want := tableMap(snaps, r)
					got := ""
					if m, ok := fact.Map.Get(); ok {
						got = m.Name
						known++
					}
					switch {
					case !sat && got != want:
						t.Errorf("%s pc %d: map fact %q, table %q", p.name, pc, got, want)
					case sat && got != "" && len(snaps) > 0 && got != want:
						t.Errorf("%s pc %d (saturated): map fact %q contradicts the table's snapshots", p.name, pc, got)
					}
				case helpers.ArgPtrToMapKey:
					checked++
					want, wok := tableKey(snaps, r)
					got, gok := fact.Key.Get()
					if gok {
						known++
					}
					switch {
					case !sat && (got != want || gok != wok):
						t.Errorf("%s pc %d: key fact %d/%v, table %d/%v", p.name, pc, got, gok, want, wok)
					case sat && gok && len(snaps) > 0 && (!wok || got != want):
						t.Errorf("%s pc %d (saturated): key fact %d contradicts the table's snapshots", p.name, pc, got)
					}
				}
			}
		}
	}
	if checked < 40 || known < 20 {
		t.Fatalf("checked %d map and key arguments, %d with a fact: the corpus no longer exercises the facts", checked, known)
	}
	t.Logf("%d map and key arguments checked, %d with a fact", checked, known)
}
