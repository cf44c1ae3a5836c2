package toolchain

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"kex/internal/ebpf/isa"
	"kex/internal/safext/compile"
	"kex/internal/wire"
)

// The SLXO container: a little-endian TLV format.
//
//	magic "SLXO" | version u32 | sections...
//	section: tag [4]byte | length u32 | payload
//
// Sections are the rows of objSections, written in table order. Every
// section rides inside the signed payload, so the signature vouches for
// what was proven (CHEK, OPTM, TVAL, CONC), not only for the code.
//
// Map references in the code section are symbolic: the code is encoded
// with zeroed immediates and a RELO section lists (insn index, map name)
// pairs for the loader's fixup pass. Rodata references stay numeric (the
// offset is the immediate; the loader adds the mapped base).

var objMagic = [4]byte{'S', 'L', 'X', 'O'}

const objVersion = 1

// Certificate field caps: the loader runs before trust is established, so
// every variable-length field is bounded at deserialization, and Serialize
// refuses to write what Deserialize would reject.
const (
	tvalMaxReason = 512
	tvalMaxFuncs  = 256
	concMaxMaps   = 64
	concMaxSites  = 4096
	concMaxStr    = 512
)

// objSection is one row of the section table: a new proven property is one
// more row. omit, when set, leaves an optional section out of the container
// (older pipelines then stay byte-identical). decode reads the section body
// to its end; the caller rejects trailing bytes and reports the first error.
type objSection struct {
	tag    string
	omit   func(obj *compile.Object) bool
	encode func(w *wire.Writer, obj *compile.Object) error
	decode func(r *wire.Reader, d *decoded)
}

// decoded is the object under construction plus the CODE and RELO bodies,
// which are joined after every section is read.
type decoded struct {
	obj        compile.Object
	code, relo []byte
}

var objSections = []objSection{
	{
		tag:    "NAME",
		encode: func(w *wire.Writer, obj *compile.Object) error { w.Raw([]byte(obj.Name)); return nil },
		decode: func(r *wire.Reader, d *decoded) { d.obj.Name = string(r.Rest()) },
	},
	{
		tag: "CODE",
		encode: func(w *wire.Writer, obj *compile.Object) error {
			// Strip symbolic map names; RELO carries them.
			insns := append([]isa.Instruction(nil), obj.Insns...)
			for i := range insns {
				if insns[i].IsMapRef() && insns[i].MapName != "" {
					insns[i].MapName = ""
					insns[i].Const = 0
					insns[i].Imm = 0
				}
			}
			code, err := isa.Encode(insns)
			if err != nil {
				return fmt.Errorf("toolchain: encode: %w", err)
			}
			w.Raw(code)
			return nil
		},
		decode: func(r *wire.Reader, d *decoded) { d.code = r.Rest() },
	},
	{
		tag: "RELO",
		encode: func(w *wire.Writer, obj *compile.Object) error {
			for i, ins := range obj.Insns {
				if ins.IsMapRef() && ins.MapName != "" {
					w.U32(uint32(i))
					w.Str(ins.MapName)
				}
			}
			return nil
		},
		decode: func(r *wire.Reader, d *decoded) { d.relo = r.Rest() },
	},
	{
		tag:    "RODA",
		encode: func(w *wire.Writer, obj *compile.Object) error { w.Raw(obj.Rodata); return nil },
		decode: func(r *wire.Reader, d *decoded) { d.obj.Rodata = append([]byte(nil), r.Rest()...) },
	},
	{
		tag: "MAPS",
		encode: func(w *wire.Writer, obj *compile.Object) error {
			for _, m := range obj.Maps {
				w.Str(m.Name)
				w.Str(m.Kind)
				w.U32(uint32(m.KeySize))
				w.U32(uint32(m.ValSize))
				w.U32(uint32(m.Entries))
				locked := uint32(0)
				if m.Locked {
					locked = 1
				}
				w.U32(locked)
			}
			return nil
		},
		decode: func(r *wire.Reader, d *decoded) {
			for r.Len() > 0 {
				m := compile.MapSpec{Name: r.Str(wire.Unbounded), Kind: r.Str(wire.Unbounded)}
				m.KeySize = int(r.U32())
				m.ValSize = int(r.U32())
				m.Entries = int64(r.U32())
				m.Locked = r.U32() == 1
				d.obj.Maps = append(d.obj.Maps, m)
			}
		},
	},
	{
		tag: "CAPS",
		encode: func(w *wire.Writer, obj *compile.Object) error {
			for _, c := range obj.Capabilities {
				w.Str(c)
			}
			return nil
		},
		decode: func(r *wire.Reader, d *decoded) {
			for r.Len() > 0 {
				d.obj.Capabilities = append(d.obj.Capabilities, r.Str(wire.Unbounded))
			}
		},
	},
	{
		// The check ledger: emitted/elided counts, the static instruction
		// bound, and the per-site elision records.
		tag: "CHEK",
		encode: func(w *wire.Writer, obj *compile.Object) error {
			cs := &obj.Checks
			putInts(w, chekFields(cs))
			w.U64(uint64(cs.StaticInsnBound))
			w.U32(uint32(len(cs.Elisions)))
			for _, el := range cs.Elisions {
				w.Str(el.Kind)
				w.U32(uint32(el.Line))
			}
			return nil
		},
		decode: func(r *wire.Reader, d *decoded) {
			cs := &d.obj.Checks
			getInts(r, chekFields(cs))
			cs.StaticInsnBound = int64(r.U64())
			for i, n := 0, r.Count(wire.Unbounded); i < n; i++ {
				cs.Elisions = append(cs.Elisions, compile.Elision{Kind: r.Str(wire.Unbounded), Line: int(r.U32())})
			}
		},
	},
	{
		// The optimization level and the MIR pipeline's rewrite counters.
		tag:    "OPTM",
		encode: func(w *wire.Writer, obj *compile.Object) error { putInts(w, optmFields(&obj.Opt)); return nil },
		decode: func(r *wire.Reader, d *decoded) { getInts(r, optmFields(&d.obj.Opt)) },
	},
	{
		// The translation-validation certificate of an OptMIR build. The
		// loader refuses OptMIR objects whose certificate is missing,
		// unvalidated or demoted. WallNanos is a measurement, not part of
		// the proof, and is not serialized: two builds of the same source
		// must stay byte-identical (the registry deduplicates by hash).
		tag:  "TVAL",
		omit: func(obj *compile.Object) bool { return obj.TVal == nil },
		encode: func(w *wire.Writer, obj *compile.Object) error {
			tv := obj.TVal
			if len(tv.Funcs) > tvalMaxFuncs {
				return fmt.Errorf("toolchain: TVAL certificate covers %d functions, cap is %d", len(tv.Funcs), tvalMaxFuncs)
			}
			flags := uint32(0)
			if tv.Validated {
				flags |= 1
			}
			if tv.Demoted {
				flags |= 2
			}
			w.U32(flags)
			reason := tv.Reason
			if len(reason) > tvalMaxReason {
				reason = reason[:tvalMaxReason]
			}
			w.Str(reason)
			w.U32(uint32(tv.Vectors))
			w.U32(uint32(tv.Bounded))
			w.U32(uint32(len(tv.Funcs)))
			for _, fc := range tv.Funcs {
				w.Str(fc.Name)
				putInts(w, tvalFuncFields(&fc))
			}
			return nil
		},
		decode: func(r *wire.Reader, d *decoded) {
			tv := &compile.TValCert{}
			flags := r.U32()
			tv.Validated = flags&1 != 0
			tv.Demoted = flags&2 != 0
			tv.Reason = r.Str(tvalMaxReason)
			tv.Vectors = int(r.U32())
			tv.Bounded = int(r.U32())
			for i, n := 0, r.Count(tvalMaxFuncs); i < n; i++ {
				fc := compile.TValFuncCert{Name: r.Str(wire.Unbounded)}
				getInts(r, tvalFuncFields(&fc))
				tv.Funcs = append(tv.Funcs, fc)
			}
			d.obj.TVal = tv
		},
	},
	{
		// The shard-safety report: per-map concurrency verdicts and the
		// classified access sites behind them, enforced by the per-CPU
		// data plane at dispatch. WallNanos is not serialized (as TVAL).
		tag:    "CONC",
		omit:   func(obj *compile.Object) bool { return obj.Conc == nil },
		encode: encodeConc,
		decode: func(r *wire.Reader, d *decoded) {
			cc := &compile.ConcReport{Verdict: r.Str(concMaxStr), Reason: r.Str(concMaxStr)}
			cc.Sites = int(r.U32())
			cc.Proven = int(r.U32())
			for i, nmaps := 0, r.Count(concMaxMaps); i < nmaps; i++ {
				mv := compile.ConcMapVerdict{
					Map: r.Str(concMaxStr), Kind: r.Str(concMaxStr),
					Verdict: r.Str(concMaxStr), Reason: r.Str(concMaxStr),
				}
				for j, nsites := 0, r.Count(concMaxSites); j < nsites; j++ {
					s := compile.ConcSite{Map: mv.Map, Func: r.Str(concMaxStr)}
					s.PC = int(r.U32())
					s.Line = int(r.U32())
					s.Op = r.Str(concMaxStr)
					s.Class = r.Str(concMaxStr)
					s.Key = r.Str(concMaxStr)
					s.Note = r.Str(concMaxStr)
					mv.Sites = append(mv.Sites, s)
				}
				cc.Maps = append(cc.Maps, mv)
			}
			d.obj.Conc = cc
		},
	},
}

func encodeConc(w *wire.Writer, obj *compile.Object) error {
	cc := obj.Conc
	var err error
	str := func(s string) {
		if len(s) > concMaxStr && err == nil {
			err = fmt.Errorf("toolchain: CONC string of %d bytes, cap is %d", len(s), concMaxStr)
		}
		w.Str(s)
	}
	if len(cc.Maps) > concMaxMaps {
		return fmt.Errorf("toolchain: CONC report covers %d maps, cap is %d", len(cc.Maps), concMaxMaps)
	}
	str(cc.Verdict)
	str(cc.Reason)
	w.U32(uint32(cc.Sites))
	w.U32(uint32(cc.Proven))
	w.U32(uint32(len(cc.Maps)))
	for _, mv := range cc.Maps {
		if len(mv.Sites) > concMaxSites {
			return fmt.Errorf("toolchain: CONC map %s has %d sites, cap is %d", mv.Map, len(mv.Sites), concMaxSites)
		}
		str(mv.Map)
		str(mv.Kind)
		str(mv.Verdict)
		str(mv.Reason)
		w.U32(uint32(len(mv.Sites)))
		for _, s := range mv.Sites {
			str(s.Func)
			w.U32(uint32(s.PC))
			w.U32(uint32(s.Line))
			str(s.Op)
			str(s.Class)
			str(s.Key)
			str(s.Note)
		}
	}
	return err
}

// The fixed u32 fields of a section in wire order, shared by both
// directions so encoder and decoder cannot disagree on the layout.
func chekFields(cs *compile.CheckStats) []*int {
	return []*int{&cs.BoundsEmitted, &cs.BoundsElided, &cs.DivEmitted, &cs.DivElided, &cs.MaskEmitted, &cs.MaskElided}
}

func optmFields(o *compile.OptStats) []*int {
	return []*int{&o.Level, &o.Folded, &o.Hoisted, &o.LoadsEliminated, &o.DeadRemoved, &o.BlocksRemoved, &o.Spills, &o.RegAssigned}
}

func tvalFuncFields(fc *compile.TValFuncCert) []*int {
	return []*int{&fc.Vectors, &fc.Bounded, &fc.BlocksCovered, &fc.BlocksTotal, &fc.SitesEmitted, &fc.SitesElided, &fc.SitesFolded}
}

func putInts(w *wire.Writer, fields []*int) {
	for _, f := range fields {
		w.U32(uint32(*f))
	}
}

func getInts(r *wire.Reader, fields []*int) {
	for _, f := range fields {
		*f = int(r.U32())
	}
}

// Serialize encodes a compiled object into the SLXO container.
func Serialize(obj *compile.Object) ([]byte, error) {
	var out wire.Writer
	out.Raw(objMagic[:])
	out.U32(objVersion)
	for _, sec := range objSections {
		if sec.omit != nil && sec.omit(obj) {
			continue
		}
		var body wire.Writer
		if err := sec.encode(&body, obj); err != nil {
			return nil, err
		}
		out.Raw([]byte(sec.tag))
		out.Bytes(body.Data())
	}
	return out.Data(), nil
}

// Deserialize parses an SLXO container back into a compiled object. It
// rejects unknown and repeated sections and any section with bytes left
// over after its fields.
func Deserialize(payload []byte) (*compile.Object, error) {
	if len(payload) < 8 || !bytes.Equal(payload[:4], objMagic[:]) {
		return nil, fmt.Errorf("toolchain: bad magic")
	}
	if v := binary.LittleEndian.Uint32(payload[4:8]); v != objVersion {
		return nil, fmt.Errorf("toolchain: unsupported version %d", v)
	}
	var d decoded
	var seen uint32 // bit i: objSections[i] was read
	r := wire.NewReader(payload[8:], "toolchain", "section")
	for r.Len() > 0 {
		tag := string(r.Raw(4))
		body := r.Bytes(wire.Unbounded)
		if err := r.Err(); err != nil {
			return nil, err
		}
		i := sectionIndex(tag)
		if i < 0 {
			return nil, fmt.Errorf("toolchain: unknown section %q", tag)
		}
		if seen&(1<<i) != 0 {
			return nil, fmt.Errorf("toolchain: repeated %s section", tag)
		}
		seen |= 1 << i
		sr := wire.NewReader(body, "toolchain", tag+" section")
		objSections[i].decode(sr, &d)
		if err := sr.Done(); err != nil {
			return nil, err
		}
	}
	insns, err := isa.Decode(d.code)
	if err != nil {
		return nil, err
	}
	// Reapply symbolic map references. Serialize zeroes a relocated load's
	// immediate, so a nonzero one is refused: it could not re-encode.
	rr := wire.NewReader(d.relo, "toolchain", "RELO section")
	for rr.Len() > 0 {
		idx := rr.U32()
		name := rr.Str(wire.Unbounded)
		if err := rr.Err(); err != nil {
			return nil, err
		}
		if int(idx) >= len(insns) || !insns[idx].IsMapRef() {
			return nil, fmt.Errorf("toolchain: relocation %d does not target a map load", idx)
		}
		if insns[idx].Imm != 0 || insns[idx].Const != 0 {
			return nil, fmt.Errorf("toolchain: relocation %d targets a load with a nonzero immediate", idx)
		}
		insns[idx].MapName = name
	}
	d.obj.Insns = insns
	return &d.obj, nil
}

func sectionIndex(tag string) int {
	for i := range objSections {
		if objSections[i].tag == tag {
			return i
		}
	}
	return -1
}
