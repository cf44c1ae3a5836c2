package transval

import (
	"fmt"

	"kex/internal/analysis/mirrun"
	"kex/internal/safext/compile/mir"
	"kex/internal/safext/lang"
)

// The observable-effect model. Refinement compares verdicts and the
// ordered effect log; the log records everything the kernel could observe:
// keyed-map writes, ring-buffer emits, lock transitions, traces, packet
// writes, and every other crate call — the optimizer never removes,
// duplicates, or hoists a crate call, so a 1:1 ordered match is the sound
// requirement. The single exception is map_get, which redundant-load
// elimination may legally remove for hash/array maps: map_get is *not*
// logged, and its value matters only through dataflow. Gets on
// percpu/percpu_hash maps return a fresh value per (map, key) occurrence —
// a volatile stream — so a build that illegally caches them diverges.

type effect struct {
	name string
	args []uint64
}

func (e effect) equal(o *effect) bool {
	if e.name != o.name || len(e.args) != len(o.args) {
		return false
	}
	for i := range e.args {
		if e.args[i] != o.args[i] {
			return false
		}
	}
	return true
}

func (e effect) String() string {
	return fmt.Sprintf("%s%v", e.name, e.args)
}

// outcome is one side's result over one vector: a return (nil stop) or
// the stop, and the effect log.
type outcome struct {
	stop    *mirrun.Stop
	ret     uint64
	effects []effect
}

// kind is the stop kind, or 0 for a return.
func (o *outcome) kind() int {
	if o.stop == nil {
		return 0
	}
	return o.stop.Kind
}

// bounded reports a run cut short by fuel or call depth.
func (o *outcome) bounded() bool {
	return o.kind() == mirrun.StopFuel || o.kind() == mirrun.StopDepth
}

func (o *outcome) verdict() string {
	switch o.kind() {
	case 0:
		return fmt.Sprintf("ret %d", int64(o.ret))
	case mirrun.StopTrap:
		return fmt.Sprintf("trap %d", o.stop.Trap)
	case mirrun.StopFuel:
		return "fuel exhausted"
	case mirrun.StopDepth:
		return "call depth exhausted"
	}
	return "model error: " + o.stop.Msg
}

// world is one side of a validation: the reference machine over one
// lowering plus the kernel state its crate calls observe. Validate binds
// one world per side and resets it for every vector.
type world struct {
	mirrun.Machine
	seed uint64
	pal  []uint64

	maps    map[string]map[uint64]uint64 // keyed-map store (writes are logged)
	occ     map[string]map[uint64]uint64 // per-(map,key) percpu get occurrence
	seq     map[string]uint64            // per-name volatile call sequence
	effects []effect
	out     outcome

	vals, buf []uint64 // scratch: crate operands, pick inputs
}

func newWorld(funcs map[string]mirrun.Code, pal []uint64) *world {
	w := &world{
		pal:  pal,
		maps: make(map[string]map[uint64]uint64),
		occ:  make(map[string]map[uint64]uint64),
		seq:  make(map[string]uint64),
	}
	w.Funcs = funcs
	w.Crate = w.crate
	w.Unchecked = w.unchecked
	return w
}

// run executes function fn over one input vector from an empty kernel
// state. The outcome, effect log included, is valid until the next run.
func (w *world) run(fn string, args []uint64, seed uint64, fuel int) *outcome {
	w.seed, w.Fuel = seed, fuel
	for _, mp := range w.maps {
		clear(mp)
	}
	for _, mp := range w.occ {
		clear(mp)
	}
	clear(w.seq)
	w.effects = w.effects[:0]
	ret, st := w.Run(fn, args)
	w.out = outcome{stop: st, ret: ret, effects: w.effects}
	return &w.out
}

// log records an effect with a copy of args.
func (w *world) log(name string, args []uint64) {
	w.effects = append(w.effects, effect{name: name, args: append([]uint64(nil), args...)})
}

func (w *world) mapOf(sym string) map[uint64]uint64 {
	mp := w.maps[sym]
	if mp == nil {
		mp = make(map[uint64]uint64)
		w.maps[sym] = mp
	}
	return mp
}

// pick is the volatile-value source: palette-biased for realistic
// branch/bounds coverage, raw for width, deterministic in (seed, inputs).
func (w *world) pick(a, b uint64, rest ...uint64) uint64 {
	w.buf = append(append(w.buf[:0], w.seed, a, b), rest...)
	raw := mirrun.Mix(w.buf...)
	if raw&3 == 0 {
		return raw
	}
	return w.pal[raw%uint64(len(w.pal))]
}

// unchecked models an out-of-range access at a site with no emitted
// check: an effect, so the divergence is caught even if the poison value
// never flows to the verdict, and a poison value for a load.
func (w *world) unchecked(op string, args ...uint64) uint64 {
	w.log(op, args)
	w.buf = append(append(w.buf[:0], w.seed, mirrun.Hash(op)), args...)
	return mirrun.Mix(w.buf...)
}

// crate models one kernel-crate call. Resolved integer arguments, string
// hashes, map-name hashes and buffer-content hashes identify the call in
// the effect log; writable buffers are deterministically overwritten, the
// same conservative assumption the optimizer makes.
func (w *world) crate(fr *mirrun.Frame, in *mir.Insn) (uint64, *mirrun.Stop) {
	w.Fuel -= 3 // calls are pricier than ALU steps
	vals := w.vals[:0]
	for i := range in.Args {
		a := &in.Args[i]
		var v uint64
		switch {
		case a.IsImm:
			v = uint64(a.Imm)
		case a.Kind == lang.CrateStr:
			v = mirrun.Hash(a.Str)
		case a.Kind == lang.CrateMap:
			v = mirrun.Hash(a.Sym)
		case a.Kind == lang.CrateBuf:
			v = mirrun.Hash(fr.Arrs[a.Arr])
		default: // CrateInt, CrateSock
			var ok bool
			if v, ok = fr.Read(a.V); !ok {
				return 0, &mirrun.Stop{Kind: mirrun.StopErr, Msg: fmt.Sprintf("crate arg reads unallocated v%d", a.V)}
			}
		}
		vals = append(vals, v)
	}
	w.vals = vals

	// Keyed-map calls: stateful store, writes logged.
	if len(in.Args) > 0 && in.Args[0].Kind == lang.CrateMap {
		sym := in.Args[0].Sym
		switch in.Name {
		case "map_get":
			if len(vals) < 2 {
				return 0, &mirrun.Stop{Kind: mirrun.StopErr, Msg: "map_get with missing key"}
			}
			key := vals[1]
			if mirrun.PerCPU(fr.F.MapKinds[sym]) {
				ko := w.occ[sym]
				if ko == nil {
					ko = make(map[uint64]uint64)
					w.occ[sym] = ko
				}
				ko[key]++
				return w.pick(mirrun.Hash("percpu-get"), mirrun.Hash(sym), key, ko[key]), nil
			}
			return w.mapOf(sym)[key], nil
		case "map_set":
			if len(vals) < 3 {
				return 0, &mirrun.Stop{Kind: mirrun.StopErr, Msg: "map_set with missing args"}
			}
			w.mapOf(sym)[vals[1]] = vals[2]
			w.log("map_set", vals)
			return 0, nil
		case "map_del":
			if len(vals) < 2 {
				return 0, &mirrun.Stop{Kind: mirrun.StopErr, Msg: "map_del with missing key"}
			}
			delete(w.mapOf(sym), vals[1])
			w.log("map_del", vals)
			return 0, nil
		case "map_inc":
			if len(vals) < 3 {
				return 0, &mirrun.Stop{Kind: mirrun.StopErr, Msg: "map_inc with missing args"}
			}
			mp := w.mapOf(sym)
			mp[vals[1]] += vals[2]
			w.log("map_inc", vals)
			return mp[vals[1]], nil
		}
	}

	// Everything else: logged, uninterpreted-but-deterministic result from
	// a per-name volatile sequence; writable buffers rewritten.
	name := mirrun.Hash(in.Name)
	w.seq[in.Name]++
	seqNo := w.seq[in.Name]
	w.log(in.Name, vals)
	for i := range in.Args {
		if a := &in.Args[i]; !a.IsImm && a.Kind == lang.CrateBuf {
			buf := fr.Arrs[a.Arr]
			for j := range buf {
				buf[j] = byte(mirrun.Mix(w.seed, name, seqNo, uint64(j)))
			}
		}
	}
	return mirrun.Shape(in.Name, w.pick(name, seqNo, vals...)), nil
}
