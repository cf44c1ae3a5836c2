package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	"kex/internal/ebpf"
	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/maps"
	"kex/internal/exec"
	"kex/internal/kernel"
	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

const (
	// shards is the number of per-CPU shards (and simulated CPUs) of each
	// plane; one closed-loop client drives each shard.
	shards = 2
	// batchSize is the number of invocations per submitted batch.
	batchSize = 16
	// ringSize is the per-shard submission ring capacity, in batches.
	ringSize = 64
)

// stackName selects one of the two extension stacks.
type stackName string

const (
	stackEBPF   stackName = "ebpf"
	stackSafext stackName = "safext"
)

var stacks = []stackName{stackEBPF, stackSafext}

// plane is one extension stack booted for the benchmark: a simulated
// kernel, the stack's execution core under a supervisor and shard-safety
// enforcement in strict mode, and a sharded data plane with one lane per
// shard.
type plane struct {
	name stackName
	k    *kernel.Kernel
	core *exec.Core
	sh   *exec.Sharded
	trc  *tracer // nil when untraced

	bpf       *ebpf.Stack
	bpfTables *tables // the eBPF stack's own maps, shared by its programs

	rt     *runtime.Runtime
	signer *toolchain.Signer

	lanes []*lane
	table []uint64 // the cache's records
}

// tables are the maps one program uses.
type tables struct {
	cache, stats, flows, pkts maps.Map
}

// program is one loaded extension, from either stack.
type program struct {
	name   string
	kind   progKind
	engine exec.Engine
	reload exec.Reload
	phases exec.PhaseTimings
	tables *tables
	// request builds the invocation for the packet in lane slot j.
	request func(l *lane, j int) exec.Request
	// result converts slot j's dispatch result into the program's R0.
	result func(l *lane, j int, res exec.BatchResult) (uint64, error)
	close  func()
}

// newPlane boots a stack and starts its data plane. The table is the
// cache's records, which fill loads into a program's cache map.
func newPlane(name stackName, table []uint64, traced bool) (*plane, error) {
	cfg := kernel.DefaultConfig()
	cfg.NumCPU = shards
	p := &plane{name: name, k: kernel.New(cfg), table: table}
	switch name {
	case stackEBPF:
		p.bpf = ebpf.NewStack(p.k)
		p.bpf.Conc = exec.ConcStrict
		p.core = p.bpf.Core
		if err := createEBPFMaps(p.bpf); err != nil {
			return nil, err
		}
		p.bpfTables = &tables{}
		for _, m := range []struct {
			name string
			dst  *maps.Map
		}{
			{mapCache, &p.bpfTables.cache}, {mapStats, &p.bpfTables.stats},
			{mapFlows, &p.bpfTables.flows}, {mapPkts, &p.bpfTables.pkts},
		} {
			var ok bool
			if *m.dst, ok = p.bpf.Maps.ByName(m.name); !ok {
				return nil, fmt.Errorf("map %s not registered", m.name)
			}
		}
		p.bpf.Supervise(exec.DefaultSupervisorConfig())
		p.sh = p.bpf.NewSharded(exec.ShardedConfig{Shards: shards, RingSize: ringSize, Conc: exec.ConcStrict})
	case stackSafext:
		signer, err := toolchain.NewSigner()
		if err != nil {
			return nil, err
		}
		p.signer = signer
		p.rt = runtime.New(p.k, runtime.DefaultConfig())
		p.rt.AddKey(signer.PublicKey())
		p.core = p.rt.Core
		p.rt.Supervise(exec.DefaultSupervisorConfig())
		p.sh = p.rt.NewSharded(exec.ShardedConfig{Shards: shards, RingSize: ringSize, Conc: exec.ConcStrict})
	default:
		return nil, fmt.Errorf("unknown stack %q", name)
	}
	if traced {
		p.trc = newTracer(shards)
		p.trc.install(p.core)
	}
	for cpu := 0; cpu < shards; cpu++ {
		l, err := p.newLane(cpu)
		if err != nil {
			p.close()
			return nil, err
		}
		p.lanes = append(p.lanes, l)
	}
	return p, nil
}

// fill loads the records of keys into the cache (YCSB's load phase) and
// creates their flow counters in flows and the packet counter in pkts at
// zero, so that flow traffic never inserts into a shared hash map.
// Existing counters are kept. A nil keys means every record; maps the
// program does not use are skipped.
func (p *plane) fill(t *tables, keys []uint32) error {
	if keys == nil {
		keys = make([]uint32, len(p.table))
		for i := range keys {
			keys[i] = uint32(i)
		}
	}
	zero := make([]byte, 8)
	for _, key := range keys {
		if int(key) >= len(p.table) {
			continue
		}
		if t.cache != nil {
			if err := t.cache.Update(0, keyBytes(t.cache, key), valueBytes(p.table[key]), 0); err != nil {
				return fmt.Errorf("fill %s: %w", mapCache, err)
			}
		}
		if err := create(t.flows, key, zero); err != nil {
			return err
		}
	}
	return create(t.pkts, 0, zero)
}

// create inserts key with value unless m is nil or already holds key.
func create(m maps.Map, key uint32, value []byte) error {
	if m == nil {
		return nil
	}
	kb := keyBytes(m, key)
	if _, found := m.Lookup(0, kb); found {
		return nil
	}
	if err := m.Update(0, kb, value, 0); err != nil {
		return fmt.Errorf("fill %s: %w", m.Spec().Name, err)
	}
	return nil
}

// deploy builds, signs (safext) and loads a program. The eBPF stack owns
// its maps and its programs share them; a safext program brings its own.
func (p *plane) deploy(name string, kind progKind) (*program, error) {
	var prog *program
	var err error
	if p.name == stackEBPF {
		prog, err = p.deployEBPF(name, kind)
	} else {
		prog, err = p.deploySafext(name, kind)
	}
	if err != nil {
		return nil, err
	}
	if p.trc != nil {
		prog.engine = &tracedEngine{inner: prog.engine, t: p.trc}
	}
	return prog, nil
}

func (p *plane) deployEBPF(name string, kind progKind) (*program, error) {
	bp, err := ebpfProgram(p.bpf, name, kind)
	if err != nil {
		return nil, err
	}
	ld, err := p.bpf.Load(bp)
	if err != nil {
		return nil, err
	}
	return &program{
		name: name, kind: kind,
		engine: ld.Engine(), reload: ld.Reverify(), phases: ld.LoadPhases, tables: p.bpfTables,
		request: func(l *lane, j int) exec.Request {
			return ld.Request(ebpf.RunOptions{CtxAddr: l.slots[j].ctx})
		},
		result: func(_ *lane, _ int, res exec.BatchResult) (uint64, error) {
			if res.Err != nil {
				return 0, res.Err
			}
			return res.Report.R0, nil
		},
		close: ld.Close,
	}, nil
}

func (p *plane) deploySafext(name string, kind progKind) (*program, error) {
	so, err := p.signer.BuildAndSignOptimizedMIR(name, slxSource(kind))
	if err != nil {
		return nil, err
	}
	ext, err := p.rt.Load(so)
	if err != nil {
		return nil, err
	}
	t := &tables{cache: ext.Map(mapCache), stats: ext.Map(mapStats), flows: ext.Map(mapFlows), pkts: ext.Map(mapPkts)}
	return &program{
		name: name, kind: kind,
		engine: ext.Engine(), reload: ext.Revalidate(), phases: ext.LoadPhases, tables: t,
		request: func(l *lane, j int) exec.Request {
			pr := ext.Prepare(runtime.RunOptions{CPU: l.cpu, CtxAddr: l.slots[j].ctx})
			l.preps[j] = pr
			return pr.Request()
		},
		result: func(l *lane, j int, res exec.BatchResult) (uint64, error) {
			v, err := l.preps[j].Finish(res.Report, res.Err)
			l.preps[j] = nil
			if err != nil {
				return 0, err
			}
			if !v.Completed {
				return 0, fmt.Errorf("terminated: %s", v.Reason)
			}
			return uint64(v.R0), nil
		},
		close: ext.Close,
	}, nil
}

// close stops the plane's shard workers and waits for them.
func (p *plane) close() {
	if p.sh != nil {
		p.sh.Close()
	}
}

// keyBytes encodes a key at the map's key width.
func keyBytes(m maps.Map, key uint32) []byte {
	b := make([]byte, m.Spec().KeySize)
	if len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, uint64(key))
	} else {
		binary.LittleEndian.PutUint32(b, key)
	}
	return b
}

func valueBytes(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, v)
}

// errMissing reports a key a map does not hold.
var errMissing = errors.New("key missing")

// value reads a map's 8-byte value for key; a per-CPU map's cells are
// summed.
func (p *plane) value(m maps.Map, key uint32) (uint64, error) {
	kb := keyBytes(m, key)
	if pm, ok := maps.Unwrap(m).(maps.PerCPUMap); ok {
		vals, found := pm.PerCPUValues(kb)
		if !found {
			return 0, fmt.Errorf("%s: key %d: %w", m.Spec().Name, key, errMissing)
		}
		var sum uint64
		for _, v := range vals {
			sum += v
		}
		return sum, nil
	}
	addr, found := m.Lookup(0, kb)
	if !found {
		return 0, fmt.Errorf("%s: key %d: %w", m.Spec().Name, key, errMissing)
	}
	v, f := p.k.Mem.LoadUint(addr, 8)
	if f != nil {
		return 0, fmt.Errorf("%s: read key %d: %v", m.Spec().Name, key, f)
	}
	return v, nil
}

// slot is one batch position's context: the address the program's R1
// points at, and the address the packet's key and length are written to.
// For eBPF the two coincide; safext reads the packet through an skb.
type slot struct {
	ctx, pkt uint64
}

func (p *plane) newSlot() (slot, error) {
	if p.name == stackEBPF {
		r := p.k.Mem.Map(16, kernel.ProtRW, "kexperf_ctx")
		return slot{ctx: r.Base, pkt: r.Base}, nil
	}
	skb := p.k.NewSKB(make([]byte, 8))
	ctx := p.k.Mem.Map(16, kernel.ProtRW, "kexperf_ctx")
	if f := p.k.Mem.StoreUint(ctx.Base+helpers.SkbOffData, 8, skb.DataStart()); f != nil {
		return slot{}, fmt.Errorf("skb ctx: %v", f)
	}
	if f := p.k.Mem.StoreUint(ctx.Base+helpers.SkbOffDataEnd, 8, skb.DataEnd()); f != nil {
		return slot{}, fmt.Errorf("skb ctx: %v", f)
	}
	return slot{ctx: ctx.Base, pkt: skb.DataStart()}, nil
}
