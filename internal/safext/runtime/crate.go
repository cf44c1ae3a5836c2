package runtime

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"kex/internal/ebpf/helpers"
	"kex/internal/ebpf/maps"
	"kex/internal/safext/lang"
)

// ErrTrap reports that the program hit a compiled-in safety check (array
// bounds, division by zero, explicit trap) and requested termination.
var ErrTrap = errors.New("safext: program trapped")

// TrapError carries the trap code to the termination path.
type TrapError struct{ Code int64 }

func (e *TrapError) Error() string {
	return fmt.Sprintf("safext: program trapped (code %d)", e.Code)
}
func (e *TrapError) Unwrap() error { return ErrTrap }

// recordKind tags resource-log entries.
const (
	recSock uint64 = 1
	recLock uint64 = 2
	recMem  uint64 = 3
)

// runState is the per-invocation state the crate implementations share:
// the resource record log (backed by the pre-allocated unwind pool) and
// the runtime it belongs to. It lives in the invocation's Prepared, which
// the execution core installs as the run's Env.Scratch.
type runState struct {
	rt  *Runtime
	ext *Extension

	// records are the live resource-log entries: addresses of 16-byte
	// pool chunks holding {kind u64, payload u64}. The chunk memory is the
	// pre-allocated per-CPU storage of §3.1; this slice is its index,
	// backed by recBuf until a run holds more than len(recBuf) resources.
	records []uint64
	recBuf  [4]uint64
	cpu     int
}

func stateOf(env *helpers.Env) *runState {
	p, ok := env.Scratch.(*Prepared)
	if !ok {
		panic("safext: crate call outside a safext run")
	}
	return &p.rs
}

// record logs an acquired resource into pool-backed storage.
func (rs *runState) record(env *helpers.Env, kind, payload uint64) error {
	addr, err := rs.rt.unwindPool.On(rs.cpu).Alloc()
	if err != nil {
		// Out of unwind records: refuse the acquisition rather than risk
		// an untrackable resource.
		return err
	}
	env.StoreUint(addr, 8, kind)
	env.StoreUint(addr+8, 8, payload)
	rs.records = append(rs.records, addr)
	return nil
}

// unrecord removes the most recent record matching kind/payload.
func (rs *runState) unrecord(env *helpers.Env, kind, payload uint64) {
	for i := len(rs.records) - 1; i >= 0; i-- {
		k, _ := env.K.Mem.LoadUint(rs.records[i], 8)
		p, _ := env.K.Mem.LoadUint(rs.records[i]+8, 8)
		if k == kind && p == payload {
			rs.rt.unwindPool.On(rs.cpu).Free(rs.records[i])
			rs.records = append(rs.records[:i], rs.records[i+1:]...)
			return
		}
	}
}

// registerCrate installs the kernel-crate entry points into the runtime's
// helper registry at their stable IDs. Every implementation is "trusted
// kernel crate" code: it may touch kernel internals, but it never hands raw
// pointers or unpaired resources back to the extension.
func registerCrate(reg *helpers.Registry) {
	impls := map[string]helpers.Func{
		"ktime":    crateKtime,
		"pid_tgid": cratePidTgid,
		"uid":      crateUID,
		"cpu":      crateCPU,
		"rand":     crateRand,
		"comm":     crateComm,
		"trace":    crateTrace,
		"signal":   crateSignal,

		"map_get": crateMapGet,
		"map_set": crateMapSet,
		"map_del": crateMapDel,
		"map_inc": crateMapInc,
		"emit":    crateEmit,

		"sk_lookup_tcp": crateSkLookupTCP,
		"sk_lookup_udp": crateSkLookupUDP,
		"sk_ok":         crateSkOk,
		"sk_mark":       crateSkMark,

		"str_parse": crateStrParse,
		"str_eq":    crateStrEq,

		"mem_alloc": crateMemAlloc,
		"mem_free":  crateMemFree,
		"mem_get":   crateMemGet,
		"mem_set":   crateMemSet,

		"pkt_len":      cratePktLen,
		"pkt_read_u8":  cratePktRead(1),
		"pkt_read_u16": cratePktRead(2),
		"pkt_read_u32": cratePktRead(4),
		"pkt_write_u8": cratePktWrite,

		"trap":         crateTrap,
		"lock_acquire": crateLockAcquire,
		"lock_release": crateLockRelease,
		"sock_release": crateSockRelease,
	}
	for _, name := range lang.CrateNames() {
		impl, ok := impls[name]
		if !ok {
			panic("safext: crate function without implementation: " + name)
		}
		wantID, _ := lang.CrateID(name)
		got := reg.RegisterAt(helpers.ID(wantID), helpers.Spec{
			Name: "slx_" + name,
			Args: []helpers.ArgType{helpers.ArgAnything, helpers.ArgAnything, helpers.ArgAnything, helpers.ArgAnything, helpers.ArgAnything},
			Ret:  helpers.RetInteger,
			Impl: impl,
		})
		if got != helpers.ID(wantID) {
			panic(fmt.Sprintf("safext: crate %s registered at %d, want %d", name, got, wantID))
		}
	}
}

// ---- identity / time --------------------------------------------------------

func crateKtime(e *helpers.Env, _ [5]uint64) (uint64, error) {
	return uint64(e.K.Clock.Now()), nil
}

func cratePidTgid(e *helpers.Env, _ [5]uint64) (uint64, error) {
	t := e.K.Current(e.Ctx.CPUID)
	if t == nil {
		return 0, nil
	}
	return uint64(t.TGID)<<32 | uint64(uint32(t.PID)), nil
}

func crateUID(e *helpers.Env, _ [5]uint64) (uint64, error) {
	t := e.K.Current(e.Ctx.CPUID)
	if t == nil {
		return 0, nil
	}
	return uint64(t.UID), nil
}

func crateCPU(e *helpers.Env, _ [5]uint64) (uint64, error) {
	return uint64(e.Ctx.CPUID), nil
}

func crateRand(e *helpers.Env, _ [5]uint64) (uint64, error) {
	return uint64(e.Rand()), nil
}

func crateComm(e *helpers.Env, a [5]uint64) (uint64, error) {
	buf, size := a[0], a[1]
	t := e.K.Current(e.Ctx.CPUID)
	out := make([]byte, size)
	if t != nil {
		copy(out, t.Comm)
	}
	if size > 0 {
		out[size-1] = 0
	}
	if err := e.WriteMem(buf, out); err != nil {
		return 0, err
	}
	return 0, nil
}

func crateTrace(e *helpers.Env, a [5]uint64) (uint64, error) {
	format, err := e.ReadMem(a[0], a[1])
	if err != nil {
		return 0, err
	}
	varargs := []uint64{a[2], a[3], a[4]}
	vi := 0
	out := make([]byte, 0, len(format)+16)
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c == '%' && i+1 < len(format) && vi < len(varargs) {
			switch format[i+1] {
			case 'd':
				out = append(out, strconv.FormatInt(int64(varargs[vi]), 10)...)
				vi++
				i++
				continue
			case 'u':
				out = append(out, strconv.FormatUint(varargs[vi], 10)...)
				vi++
				i++
				continue
			case 'x':
				out = append(out, strconv.FormatUint(varargs[vi], 16)...)
				vi++
				i++
				continue
			}
		}
		out = append(out, c)
	}
	e.Trace = append(e.Trace, string(out))
	e.Charge(30)
	return 0, nil
}

func crateSignal(e *helpers.Env, a [5]uint64) (uint64, error) {
	t := e.K.Current(e.Ctx.CPUID)
	if t == nil {
		return ^uint64(0), nil
	}
	e.Trace = append(e.Trace, fmt.Sprintf("signal %d -> pid %d", a[0], t.PID))
	return 0, nil
}

// ---- maps ---------------------------------------------------------------------

// valueAddr resolves a map value address for a u64 key, honouring the
// lock-header layout of sync-guarded maps.
func valueAddr(e *helpers.Env, handle, key uint64, create bool) (uint64, maps.Map, error) {
	m, err := e.MapByHandle(handle)
	if err != nil {
		return 0, nil, err
	}
	kb := e.KeyBuf(m.Spec().KeySize)
	for i := range kb {
		kb[i] = byte(key >> (8 * i))
	}
	addr, ok := m.Lookup(e.Ctx.CPUID, kb)
	if !ok && create {
		zero := make([]byte, m.Spec().ValueSize)
		if uerr := m.Update(e.Ctx.CPUID, kb, zero, maps.UpdateNoExist); uerr == nil || uerr == maps.ErrExists {
			addr, ok = m.Lookup(e.Ctx.CPUID, kb)
		}
	}
	if !ok {
		return 0, m, nil
	}
	if m.Spec().HasLock {
		addr += 8 // skip the lock header
	}
	return addr, m, nil
}

func crateMapGet(e *helpers.Env, a [5]uint64) (uint64, error) {
	addr, _, err := valueAddr(e, a[0], a[1], false)
	if err != nil || addr == 0 {
		return 0, err
	}
	e.Charge(20)
	return e.LoadUint(addr, 8)
}

func crateMapSet(e *helpers.Env, a [5]uint64) (uint64, error) {
	addr, _, err := valueAddr(e, a[0], a[1], true)
	if err != nil {
		return 0, err
	}
	if addr == 0 {
		return ^uint64(0), nil // map full
	}
	e.Charge(30)
	return 0, e.StoreUint(addr, 8, a[2])
}

func crateMapDel(e *helpers.Env, a [5]uint64) (uint64, error) {
	m, err := e.MapByHandle(a[0])
	if err != nil {
		return 0, err
	}
	kb := e.KeyBuf(m.Spec().KeySize)
	for i := range kb {
		kb[i] = byte(a[1] >> (8 * i))
	}
	e.Charge(25)
	if m.Delete(kb) != nil {
		return ^uint64(0), nil
	}
	return 0, nil
}

// incStripes serializes concurrent map_inc calls against the same value
// cell. The crate documents map_inc as an atomic fetch-add and the concheck
// analyzer certifies sites on that basis (ClassAtomic), so the
// implementation must actually be indivisible when shard workers race on a
// shared map: a striped lock by value address keeps the load-add-store
// window closed without a global bottleneck.
var incStripes [64]sync.Mutex

func crateMapInc(e *helpers.Env, a [5]uint64) (uint64, error) {
	addr, _, err := valueAddr(e, a[0], a[1], true)
	if err != nil {
		return 0, err
	}
	if addr == 0 {
		return 0, nil
	}
	mu := &incStripes[(addr>>3)%uint64(len(incStripes))]
	mu.Lock()
	defer mu.Unlock()
	v, err := e.LoadUint(addr, 8)
	if err != nil {
		return 0, err
	}
	v += a[2]
	e.Charge(25)
	return v, e.StoreUint(addr, 8, v)
}

func crateEmit(e *helpers.Env, a [5]uint64) (uint64, error) {
	m, err := e.MapByHandle(a[0])
	if err != nil {
		return 0, err
	}
	rb, ok := maps.Unwrap(m).(maps.RingMap)
	if !ok {
		return ^uint64(0), nil
	}
	data, err := e.ReadMem(a[1], a[2])
	if err != nil {
		return 0, err
	}
	addr := rb.Reserve(len(data))
	if addr == 0 {
		return ^uint64(0), nil
	}
	if err := e.WriteMem(addr, data); err != nil {
		return 0, err
	}
	rb.Submit(addr)
	e.Charge(a[2] / 4)
	return 0, nil
}

// ---- sockets (RAII handles) ------------------------------------------------------

func skLookup(e *helpers.Env, a [5]uint64, proto string) (uint64, error) {
	rs := stateOf(e)
	srcIP, srcPort := uint32(a[0]), uint16(a[1])
	dstIP, dstPort := uint32(a[2]), uint16(a[3])
	e.Charge(200)
	s := e.K.Sockets().Lookup(proto, srcIP, srcPort, dstIP, dstPort)
	if s == nil {
		return 0, nil
	}
	if err := rs.record(e, recSock, s.Struct.Base); err != nil {
		// No room to track the resource: release and fail closed.
		s.Ref().Put()
		return 0, nil
	}
	e.Ctx.TrackRef(s.Ref())
	return s.Struct.Base, nil
}

func crateSkLookupTCP(e *helpers.Env, a [5]uint64) (uint64, error) { return skLookup(e, a, "tcp") }
func crateSkLookupUDP(e *helpers.Env, a [5]uint64) (uint64, error) { return skLookup(e, a, "udp") }

func crateSkOk(e *helpers.Env, a [5]uint64) (uint64, error) {
	if a[0] == 0 {
		return 0, nil
	}
	return 1, nil
}

func crateSkMark(e *helpers.Env, a [5]uint64) (uint64, error) {
	if a[0] == 0 {
		return ^uint64(0), nil // null handle: harmless error, not a crash
	}
	s := e.K.Sockets().ByAddr(a[0])
	if s == nil {
		return ^uint64(0), nil
	}
	s.SetMark(uint32(a[1]))
	return 0, nil
}

func crateSockRelease(e *helpers.Env, a [5]uint64) (uint64, error) {
	if a[0] == 0 {
		return 0, nil // releasing a null handle is a no-op (miss path)
	}
	rs := stateOf(e)
	s := e.K.Sockets().ByAddr(a[0])
	if s == nil {
		return 0, nil
	}
	rs.unrecord(e, recSock, a[0])
	e.Ctx.UntrackRef(s.Ref())
	s.Ref().Put()
	return 0, nil
}

// ---- strings ------------------------------------------------------------------------

func crateStrParse(e *helpers.Env, a [5]uint64) (uint64, error) {
	raw, err := e.ReadMem(a[0], a[1])
	if err != nil {
		return 0, err
	}
	s := cstr(raw)
	n, neg := 0, false
	if n < len(s) && (s[n] == '-' || s[n] == '+') {
		neg = s[n] == '-'
		n++
	}
	start := n
	var val int64
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		val = val*10 + int64(s[n]-'0')
		n++
	}
	if n == start {
		return 0, nil
	}
	if neg {
		val = -val
	}
	return uint64(val), nil
}

func crateStrEq(e *helpers.Env, a [5]uint64) (uint64, error) {
	buf, err := e.ReadMem(a[0], a[1])
	if err != nil {
		return 0, err
	}
	lit, err := e.ReadMem(a[2], a[3])
	if err != nil {
		return 0, err
	}
	if cstr(buf) == string(lit) {
		return 1, nil
	}
	return 0, nil
}

func cstr(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// ---- packet access ---------------------------------------------------------------------

func pktBounds(e *helpers.Env) (data, dataEnd uint64, err error) {
	if e.CtxAddr == 0 {
		return 0, 0, nil
	}
	data, err = e.LoadUint(e.CtxAddr+helpers.SkbOffData, 8)
	if err != nil {
		return 0, 0, err
	}
	dataEnd, err = e.LoadUint(e.CtxAddr+helpers.SkbOffDataEnd, 8)
	return data, dataEnd, err
}

func cratePktLen(e *helpers.Env, _ [5]uint64) (uint64, error) {
	data, dataEnd, err := pktBounds(e)
	if err != nil || dataEnd < data {
		return 0, err
	}
	return dataEnd - data, nil
}

// cratePktRead returns a reader for the given width: in-bounds reads yield
// the value, out-of-bounds reads yield -1. The bounds check lives in the
// trusted crate, so the extension cannot get it wrong.
func cratePktRead(width uint64) helpers.Func {
	return func(e *helpers.Env, a [5]uint64) (uint64, error) {
		data, dataEnd, err := pktBounds(e)
		if err != nil {
			return 0, err
		}
		off := a[0]
		if data == 0 || off+width > dataEnd-data {
			return ^uint64(0), nil
		}
		v, err := e.LoadUint(data+off, int(width))
		if err != nil {
			return 0, err
		}
		return v, nil
	}
}

func cratePktWrite(e *helpers.Env, a [5]uint64) (uint64, error) {
	data, dataEnd, err := pktBounds(e)
	if err != nil {
		return 0, err
	}
	off := a[0]
	if data == 0 || off+1 > dataEnd-data {
		return ^uint64(0), nil
	}
	return 0, e.StoreUint(data+off, 1, a[1])
}

// ---- dynamic allocation (§4) -----------------------------------------------------

// The extension heap is a pre-allocated per-CPU pool of fixed-size chunks
// — the design §4 sketches for extension dynamic allocation in
// non-sleepable contexts. The user-visible interface is entirely safe:
// handles are opaque integers that the crate validates against the run's
// own allocation log on every access, so forged or freed handles yield an
// error, never a stray memory access.

func (rs *runState) memOwned(env *helpers.Env, handle uint64) bool {
	for _, rec := range rs.records {
		k, _ := env.K.Mem.LoadUint(rec, 8)
		p, _ := env.K.Mem.LoadUint(rec+8, 8)
		if k == recMem && p == handle {
			return true
		}
	}
	return false
}

func crateMemAlloc(e *helpers.Env, a [5]uint64) (uint64, error) {
	rs := stateOf(e)
	if a[0] == 0 || a[0] > uint64(rs.rt.heapPool.On(rs.cpu).ChunkSize()) {
		return 0, nil
	}
	addr, err := rs.rt.heapPool.On(rs.cpu).Alloc()
	if err != nil {
		return 0, nil // pool exhausted: allocation fails, safely
	}
	if err := rs.record(e, recMem, addr); err != nil {
		rs.rt.heapPool.On(rs.cpu).Free(addr)
		return 0, nil
	}
	e.Charge(20)
	return addr, nil
}

func crateMemFree(e *helpers.Env, a [5]uint64) (uint64, error) {
	rs := stateOf(e)
	if !rs.memOwned(e, a[0]) {
		return ^uint64(0), nil // double free / forged handle: error, not corruption
	}
	rs.unrecord(e, recMem, a[0])
	rs.rt.heapPool.On(rs.cpu).Free(a[0])
	return 0, nil
}

func crateMemGet(e *helpers.Env, a [5]uint64) (uint64, error) {
	rs := stateOf(e)
	handle, off := a[0], a[1]
	if !rs.memOwned(e, handle) || off+8 > uint64(rs.rt.heapPool.On(rs.cpu).ChunkSize()) {
		return ^uint64(0), nil
	}
	return e.LoadUint(handle+off, 8)
}

func crateMemSet(e *helpers.Env, a [5]uint64) (uint64, error) {
	rs := stateOf(e)
	handle, off, val := a[0], a[1], a[2]
	if !rs.memOwned(e, handle) || off+8 > uint64(rs.rt.heapPool.On(rs.cpu).ChunkSize()) {
		return ^uint64(0), nil
	}
	return 0, e.StoreUint(handle+off, 8, val)
}

// ---- locks --------------------------------------------------------------------------------

func crateLockAcquire(e *helpers.Env, a [5]uint64) (uint64, error) {
	rs := stateOf(e)
	addr, _, err := valueAddr(e, a[0], a[1], true)
	if err != nil {
		return 0, err
	}
	if addr == 0 {
		return 0, &TrapError{Code: compileTrapLockFull}
	}
	lockAddr := addr - 8 // the lock header precedes the value
	l := rs.rt.lockAt(lockAddr)
	if !e.K.LockDep().Acquire(e.Ctx, l) {
		return 0, fmt.Errorf("safext: deadlock acquiring %s", l)
	}
	if err := rs.record(e, recLock, lockAddr); err != nil {
		e.K.LockDep().Release(e.Ctx, l)
		return 0, &TrapError{Code: compileTrapLockFull}
	}
	return 0, nil
}

func crateLockRelease(e *helpers.Env, a [5]uint64) (uint64, error) {
	rs := stateOf(e)
	addr, _, err := valueAddr(e, a[0], a[1], false)
	if err != nil {
		return 0, err
	}
	if addr == 0 {
		return ^uint64(0), nil
	}
	lockAddr := addr - 8
	l := rs.rt.lockAt(lockAddr)
	rs.unrecord(e, recLock, lockAddr)
	if !e.K.LockDep().Release(e.Ctx, l) {
		return ^uint64(0), nil
	}
	return 0, nil
}

// compileTrapLockFull is the trap code for unwind-pool exhaustion.
const compileTrapLockFull = 100

// ---- trap -----------------------------------------------------------------------------------

func crateTrap(_ *helpers.Env, a [5]uint64) (uint64, error) {
	return 0, &TrapError{Code: int64(a[0])}
}
