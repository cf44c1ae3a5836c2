package helpers

import (
	"fmt"
	"strconv"

	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
)

// Errno values returned (negated) by helpers, matching the kernel ABI.
const (
	EPERM  = 1
	ENOENT = 2
	ESRCH  = 3
	E2BIG  = 7
	EFAULT = 14
	EEXIST = 17
	EBUSY  = 16
	EINVAL = 22
	ENOSPC = 28
	ERANGE = 34
)

// errno encodes -e as the u64 return register value.
func errno(e int) uint64 { return uint64(-int64(e)) }

// mapErrno translates a map-layer error to the helper ABI.
func mapErrno(err error) uint64 {
	switch err {
	case nil:
		return 0
	case maps.ErrNotFound:
		return errno(ENOENT)
	case maps.ErrExists:
		return errno(EEXIST)
	case maps.ErrNoSpace:
		return errno(ENOSPC)
	case maps.ErrKeySize, maps.ErrValueSize, maps.ErrBadFlags, maps.ErrBadOp:
		return errno(EINVAL)
	}
	return errno(EINVAL)
}

// ---- map helpers --------------------------------------------------------

func implMapLookupElem(e *Env, a [5]uint64) (uint64, error) {
	m, err := e.MapByHandle(a[0])
	if err != nil {
		return 0, err
	}
	key, err := e.readKey(a[1], uint64(m.Spec().KeySize))
	if err != nil {
		return 0, err
	}
	e.Charge(20)
	addr, ok := m.Lookup(e.Ctx.CPUID, key)
	if !ok {
		return 0, nil // NULL
	}
	return addr, nil
}

func implMapUpdateElem(e *Env, a [5]uint64) (uint64, error) {
	m, err := e.MapByHandle(a[0])
	if err != nil {
		return 0, err
	}
	key, err := e.ReadMem(a[1], uint64(m.Spec().KeySize))
	if err != nil {
		return 0, err
	}
	val, err := e.ReadMem(a[2], uint64(m.Spec().ValueSize))
	if err != nil {
		return 0, err
	}
	e.Charge(40)
	return mapErrno(m.Update(e.Ctx.CPUID, key, val, a[3])), nil
}

func implMapDeleteElem(e *Env, a [5]uint64) (uint64, error) {
	m, err := e.MapByHandle(a[0])
	if err != nil {
		return 0, err
	}
	key, err := e.readKey(a[1], uint64(m.Spec().KeySize))
	if err != nil {
		return 0, err
	}
	e.Charge(30)
	return mapErrno(m.Delete(key)), nil
}

func implForEachMapElem(e *Env, a [5]uint64) (uint64, error) {
	m, err := e.MapByHandle(a[0])
	if err != nil {
		return 0, err
	}
	km, ok := maps.Unwrap(m).(maps.KeyedMap)
	if !ok {
		return errno(EINVAL), nil
	}
	if e.CallFunc == nil {
		return 0, fmt.Errorf("%w: no callback support in this engine", ErrAbort)
	}
	n := uint64(0)
	for _, key := range km.Keys() {
		addr, ok := m.Lookup(e.Ctx.CPUID, key)
		if !ok {
			continue
		}
		n++
		e.Charge(25)
		// Callback signature: (map, *key, *value, ctx) reduced to
		// (value_addr, cb_ctx): our callbacks take up to three args.
		ret, err := e.CallFunc(int32(a[1]), addr, a[2], 0)
		if err != nil {
			return 0, err
		}
		if ret != 0 {
			break
		}
	}
	return n, nil
}

// ---- identity and time helpers ------------------------------------------

func implKtimeGetNs(e *Env, _ [5]uint64) (uint64, error) {
	return uint64(e.K.Clock.Now()), nil
}

func implJiffies64(e *Env, _ [5]uint64) (uint64, error) {
	return uint64(e.K.Clock.Now()) / 10_000_000, nil // 100 Hz
}

func implGetPrandomU32(e *Env, _ [5]uint64) (uint64, error) {
	return uint64(e.Rand()), nil
}

func implGetSmpProcessorID(e *Env, _ [5]uint64) (uint64, error) {
	return uint64(e.Ctx.CPUID), nil
}

func implGetNumaNodeID(*Env, [5]uint64) (uint64, error) { return 0, nil }

func implGetCurrentPidTgid(e *Env, _ [5]uint64) (uint64, error) {
	t := e.K.Current(e.Ctx.CPUID)
	if t == nil {
		return errno(EINVAL), nil
	}
	return uint64(t.TGID)<<32 | uint64(uint32(t.PID)), nil
}

func implGetCurrentUidGid(e *Env, _ [5]uint64) (uint64, error) {
	t := e.K.Current(e.Ctx.CPUID)
	if t == nil {
		return errno(EINVAL), nil
	}
	return uint64(t.UID)<<32 | uint64(uint32(t.UID)), nil
}

func implGetCurrentComm(e *Env, a [5]uint64) (uint64, error) {
	t := e.K.Current(e.Ctx.CPUID)
	size := a[1]
	if size == 0 {
		return errno(EINVAL), nil
	}
	buf := make([]byte, size)
	if t != nil {
		copy(buf, t.Comm)
	}
	buf[size-1] = 0
	if err := e.WriteMem(a[0], buf); err != nil {
		return 0, err
	}
	return 0, nil
}

func implGetCurrentTask(e *Env, _ [5]uint64) (uint64, error) {
	t := e.K.Current(e.Ctx.CPUID)
	if t == nil {
		return 0, nil
	}
	return t.Struct.Base, nil
}

// ---- safe copy helpers ---------------------------------------------------

// implProbeRead is the one helper allowed to touch bad memory gracefully:
// it uses a fault-tolerant copy and returns -EFAULT instead of oopsing.
func implProbeRead(e *Env, a [5]uint64) (uint64, error) {
	dst, size, src := a[0], a[1], a[2]
	data, f := e.K.Mem.Read(src, size)
	if f != nil {
		// Fill destination with zeroes per the kernel contract.
		if err := e.WriteMem(dst, make([]byte, size)); err != nil {
			return 0, err
		}
		return errno(EFAULT), nil
	}
	e.Charge(size / 8)
	if err := e.WriteMem(dst, data); err != nil {
		return 0, err
	}
	return 0, nil
}

func implProbeReadStr(e *Env, a [5]uint64) (uint64, error) {
	dst, size, src := a[0], a[1], a[2]
	if size == 0 {
		return 0, nil
	}
	s, f := e.K.Mem.CString(src, int(size-1))
	if f != nil {
		return errno(EFAULT), nil
	}
	buf := append([]byte(s), 0)
	if err := e.WriteMem(dst, buf); err != nil {
		return 0, err
	}
	return uint64(len(buf)), nil
}

func implTracePrintk(e *Env, a [5]uint64) (uint64, error) {
	format, err := e.ReadMem(a[0], a[1])
	if err != nil {
		return 0, err
	}
	// Simplified formatting: %d/%u/%x consume the varargs in order.
	out := make([]byte, 0, len(format)+32)
	varargs := []uint64{a[2], a[3], a[4]}
	vi := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c == 0 {
			break
		}
		if c == '%' && i+1 < len(format) && vi < len(varargs) {
			switch format[i+1] {
			case 'd':
				out = append(out, []byte(strconv.FormatInt(int64(varargs[vi]), 10))...)
				vi++
				i++
				continue
			case 'u':
				out = append(out, []byte(strconv.FormatUint(varargs[vi], 10))...)
				vi++
				i++
				continue
			case 'x':
				out = append(out, []byte(strconv.FormatUint(varargs[vi], 16))...)
				vi++
				i++
				continue
			}
		}
		out = append(out, c)
	}
	e.Trace = append(e.Trace, string(out))
	e.Charge(50)
	return uint64(len(out)), nil
}

// ---- locking helpers -----------------------------------------------------

func implSpinLock(e *Env, a [5]uint64) (uint64, error) {
	l := e.LockAt(a[0])
	if !e.K.LockDep().Acquire(e.Ctx, l) {
		return 0, fmt.Errorf("%w: deadlock on %s", ErrAbort, l)
	}
	return 0, nil
}

func implSpinUnlock(e *Env, a [5]uint64) (uint64, error) {
	l := e.LockAt(a[0])
	if !e.K.LockDep().Release(e.Ctx, l) {
		return 0, fmt.Errorf("%w: bad unlock of %s", ErrAbort, l)
	}
	return 0, nil
}

// ---- socket helpers ------------------------------------------------------

// skTuple reads the 16-byte lookup tuple: src_ip u32, dst_ip u32,
// src_port u16, dst_port u16, pad u32.
func skLookup(e *Env, a [5]uint64, proto string) (uint64, error) {
	tuple, err := e.ReadMem(a[0], 12)
	if err != nil {
		return 0, err
	}
	srcIP := uint32(tuple[0]) | uint32(tuple[1])<<8 | uint32(tuple[2])<<16 | uint32(tuple[3])<<24
	dstIP := uint32(tuple[4]) | uint32(tuple[5])<<8 | uint32(tuple[6])<<16 | uint32(tuple[7])<<24
	srcPort := uint16(tuple[8]) | uint16(tuple[9])<<8
	dstPort := uint16(tuple[10]) | uint16(tuple[11])<<8
	e.Charge(200) // sk_lookup walks connection hashes; it is not cheap
	s := e.K.Sockets().Lookup(proto, srcIP, srcPort, dstIP, dstPort)
	if s == nil {
		return 0, nil
	}
	if e.Bugs.SkLookupRefLeak {
		// Commit 3046a827316c: an internal path takes an extra reference
		// that nothing ever releases.
		s.Ref().Get()
	}
	e.Ctx.TrackRef(s.Ref())
	return s.Struct.Base, nil
}

func implSkLookupTCP(e *Env, a [5]uint64) (uint64, error) { return skLookup(e, a, "tcp") }
func implSkLookupUDP(e *Env, a [5]uint64) (uint64, error) { return skLookup(e, a, "udp") }

func implSkRelease(e *Env, a [5]uint64) (uint64, error) {
	s := e.K.Sockets().ByAddr(a[0])
	if s == nil {
		return errno(EINVAL), nil
	}
	e.Ctx.UntrackRef(s.Ref())
	s.Ref().Put()
	return 0, nil
}

func implGetSocketCookie(e *Env, a [5]uint64) (uint64, error) {
	s := e.K.Sockets().ByAddr(a[0])
	if s == nil {
		return 0, nil
	}
	// A stable per-socket cookie: fold the tuple.
	h := uint64(14695981039346656037)
	for _, c := range []byte(s.Tuple()) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h, nil
}

// ---- task helpers --------------------------------------------------------

func implGetTaskStack(e *Env, a [5]uint64) (uint64, error) {
	taskPtr, buf, size := a[0], a[1], a[2]
	t := e.K.TaskByAddr(taskPtr)
	if t == nil {
		return errno(ESRCH), nil
	}
	e.Charge(100)
	if e.Bugs.GetTaskStackRefLeak {
		// Pre-06ab134ce8ec behaviour: walk the stack without taking a
		// reference or checking liveness. If the task has exited, its
		// stack is freed and this read is a use-after-free.
		data, f := e.K.Mem.Read(t.Stack.Base, min(size, 512))
		if f != nil {
			return 0, e.crash(f)
		}
		if err := e.WriteMem(buf, data); err != nil {
			return 0, err
		}
		return uint64(len(data)), nil
	}
	// Fixed behaviour: refuse dead tasks, hold a stack reference while
	// copying.
	if t.Dead() {
		return errno(ESRCH), nil
	}
	ref := t.GetStack()
	defer ref.Put()
	data, err := e.ReadMem(t.Stack.Base, min(size, 512))
	if err != nil {
		return 0, err
	}
	if err := e.WriteMem(buf, data); err != nil {
		return 0, err
	}
	return uint64(len(data)), nil
}

func implTaskStorageGet(e *Env, a [5]uint64) (uint64, error) {
	m, err := e.MapByHandle(a[0])
	if err != nil {
		return 0, err
	}
	taskPtr := a[1]
	if !e.Bugs.TaskStorageNullDeref && taskPtr == 0 {
		// The fix (commit 1a9c72ad4c26): check owner pointer nullness.
		return 0, nil
	}
	// Dereference the task struct to key the storage by PID. With the bug
	// enabled and taskPtr == 0 this is the NULL dereference.
	pid, err := e.LoadUint(taskPtr+kernel.TaskOffPID, 4)
	if err != nil {
		return 0, err
	}
	key := []byte{byte(pid), byte(pid >> 8), byte(pid >> 16), byte(pid >> 24)}
	if addr, ok := m.Lookup(e.Ctx.CPUID, key); ok {
		return addr, nil
	}
	const createIfNotExist = 1
	if a[3]&createIfNotExist == 0 {
		return 0, nil
	}
	zero := make([]byte, m.Spec().ValueSize)
	if err := m.Update(e.Ctx.CPUID, key, zero, maps.UpdateNoExist); err != nil {
		return 0, nil
	}
	addr, _ := m.Lookup(e.Ctx.CPUID, key)
	return addr, nil
}

// ---- string helpers ------------------------------------------------------

func implStrtol(e *Env, a [5]uint64) (uint64, error) {
	raw, err := e.ReadMem(a[0], a[1])
	if err != nil {
		return 0, err
	}
	s := cstr(raw)
	n := 0
	neg := false
	if n < len(s) && (s[n] == '-' || s[n] == '+') {
		neg = s[n] == '-'
		n++
	}
	start := n
	var val uint64
	overflow := false
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		d := uint64(s[n] - '0')
		if val > (1<<63-1-d)/10 {
			overflow = true
		}
		val = val*10 + d
		n++
	}
	if n == start {
		return errno(EINVAL), nil
	}
	if overflow && !e.Bugs.StrtolOverflow {
		return errno(ERANGE), nil
	}
	// With the overflow bug enabled the wrapped value is silently stored.
	out := int64(val)
	if neg {
		out = -out
	}
	if err := e.StoreUint(a[3], 8, uint64(out)); err != nil {
		return 0, err
	}
	return uint64(n), nil
}

func implStrtoul(e *Env, a [5]uint64) (uint64, error) {
	raw, err := e.ReadMem(a[0], a[1])
	if err != nil {
		return 0, err
	}
	s := cstr(raw)
	n := 0
	var val uint64
	start := n
	overflow := false
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		d := uint64(s[n] - '0')
		if val > (1<<64-1-d)/10 {
			overflow = true
		}
		val = val*10 + d
		n++
	}
	if n == start {
		return errno(EINVAL), nil
	}
	if overflow && !e.Bugs.StrtolOverflow {
		return errno(ERANGE), nil
	}
	if err := e.StoreUint(a[3], 8, val); err != nil {
		return 0, err
	}
	return uint64(n), nil
}

func implStrncmp(e *Env, a [5]uint64) (uint64, error) {
	// s2 is a NUL-terminated string: compare byte-wise and stop at the
	// terminator rather than reading a full a[1] bytes past it.
	for i := uint64(0); i < a[1]; i++ {
		c1, err := e.LoadUint(a[0]+i, 1)
		if err != nil {
			return 0, err
		}
		c2, err := e.LoadUint(a[2]+i, 1)
		if err != nil {
			return 0, err
		}
		if c1 != c2 {
			return uint64(int64(c1) - int64(c2)), nil
		}
		if c1 == 0 {
			break
		}
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

// ---- control-flow helpers ------------------------------------------------

// maxLoops matches the kernel's BPF_MAX_LOOPS (1 << 23).
const maxLoops = 1 << 23

func implLoop(e *Env, a [5]uint64) (uint64, error) {
	nr, cbPC, cbCtx := a[0], int32(a[1]), a[2]
	if nr > maxLoops {
		return errno(E2BIG), nil
	}
	if e.CallFunc == nil {
		return 0, fmt.Errorf("%w: no callback support in this engine", ErrAbort)
	}
	var i uint64
	for ; i < nr; i++ {
		// Each callback invocation costs call setup/teardown beyond the
		// callback's own instructions, as in the kernel's inlined loop.
		e.Charge(20)
		ret, err := e.CallFunc(cbPC, i, cbCtx, 0)
		if err != nil {
			return 0, err
		}
		if ret != 0 {
			i++
			break
		}
	}
	return i, nil
}

// maxTailCalls matches the kernel's MAX_TAIL_CALL_CNT.
const maxTailCalls = 33

func implTailCall(e *Env, a [5]uint64) (uint64, error) {
	if e.TailCall == nil {
		return errno(EINVAL), nil
	}
	// a[0] is the ctx, a[1] the prog-array handle (unused in the
	// simulator: the engine owns the program array), a[2] the index.
	if err := e.TailCall(a[2]); err != nil {
		return errno(ENOENT), nil
	}
	// On success the engine transfers control and never returns here.
	return 0, nil
}

// ---- ring buffer helpers ---------------------------------------------------

func ringOf(e *Env, handle uint64) (maps.RingMap, error) {
	m, err := e.MapByHandle(handle)
	if err != nil {
		return nil, err
	}
	rb, ok := maps.Unwrap(m).(maps.RingMap)
	if !ok {
		return nil, fmt.Errorf("%w: map %q is not a ringbuf", ErrAbort, m.Spec().Name)
	}
	return rb, nil
}

func implRingbufReserve(e *Env, a [5]uint64) (uint64, error) {
	rb, err := ringOf(e, a[0])
	if err != nil {
		return 0, err
	}
	e.Charge(30)
	return rb.Reserve(int(a[1])), nil
}

func implRingbufSubmit(e *Env, a [5]uint64) (uint64, error) {
	rb, err := ringOf(e, a[0])
	if err != nil {
		return 0, err
	}
	if !rb.Submit(a[1]) && !e.Bugs.RingbufDoubleSubmit {
		// Submitting an address that was never reserved corrupts the ring
		// accounting in a real kernel; the hardened simulator treats it as
		// a kernel bug. With the bug flag set it is silently accepted.
		e.K.Oops(kernel.OopsBug, e.Ctx.CPUID, "ringbuf: submit of unreserved record %#x", a[1])
		return 0, ErrKernelCrash
	}
	return 0, nil
}

func implRingbufDiscard(e *Env, a [5]uint64) (uint64, error) {
	rb, err := ringOf(e, a[0])
	if err != nil {
		return 0, err
	}
	rb.Discard(a[1])
	return 0, nil
}

func implRingbufOutput(e *Env, a [5]uint64) (uint64, error) {
	rb, err := ringOf(e, a[0])
	if err != nil {
		return 0, err
	}
	data, err := e.ReadMem(a[1], a[2])
	if err != nil {
		return 0, err
	}
	addr := rb.Reserve(len(data))
	if addr == 0 {
		return errno(ENOSPC), nil
	}
	if err := e.WriteMem(addr, data); err != nil {
		return 0, err
	}
	rb.Submit(addr)
	e.Charge(uint64(len(data)) / 4)
	return 0, nil
}

func implPerfEventOutput(e *Env, a [5]uint64) (uint64, error) {
	// Modelled as ringbuf output: (ctx, map, flags, data, size).
	return implRingbufOutput(e, [5]uint64{a[1], a[3], a[4]})
}

// ---- skb helpers -----------------------------------------------------------

// The skb context layout used by networking programs: data u64 @0,
// data_end u64 @8, len u32 @16, protocol u16 @20, ifindex u32 @24.
const (
	SkbOffData     = 0
	SkbOffDataEnd  = 8
	SkbOffLen      = 16
	SkbOffProtocol = 20
	SkbOffIfIndex  = 24
	SkbCtxSize     = 32
)

func implSkbLoadBytes(e *Env, a [5]uint64) (uint64, error) {
	ctxAddr, off, to, ln := a[0], a[1], a[2], a[3]
	data, err := e.LoadUint(ctxAddr+SkbOffData, 8)
	if err != nil {
		return 0, err
	}
	dataEnd, err := e.LoadUint(ctxAddr+SkbOffDataEnd, 8)
	if err != nil {
		return 0, err
	}
	if data+off+ln > dataEnd {
		return errno(EFAULT), nil
	}
	payload, err := e.ReadMem(data+off, ln)
	if err != nil {
		return 0, err
	}
	if err := e.WriteMem(to, payload); err != nil {
		return 0, err
	}
	e.Charge(ln / 8)
	return 0, nil
}

func implSkbStoreBytes(e *Env, a [5]uint64) (uint64, error) {
	ctxAddr, off, from, ln := a[0], a[1], a[2], a[3]
	data, err := e.LoadUint(ctxAddr+SkbOffData, 8)
	if err != nil {
		return 0, err
	}
	dataEnd, err := e.LoadUint(ctxAddr+SkbOffDataEnd, 8)
	if err != nil {
		return 0, err
	}
	if data+off+ln > dataEnd {
		return errno(EFAULT), nil
	}
	payload, err := e.ReadMem(from, ln)
	if err != nil {
		return 0, err
	}
	if err := e.WriteMem(data+off, payload); err != nil {
		return 0, err
	}
	e.Charge(ln / 8)
	return 0, nil
}

func implCsumDiff(e *Env, a [5]uint64) (uint64, error) {
	from, fromSize, to, toSize, seed := a[0], a[1], a[2], a[3], a[4]
	sum := uint32(seed)
	if fromSize > 0 {
		b, err := e.ReadMem(from, fromSize)
		if err != nil {
			return 0, err
		}
		for _, c := range b {
			sum -= uint32(c)
		}
	}
	if toSize > 0 {
		b, err := e.ReadMem(to, toSize)
		if err != nil {
			return 0, err
		}
		for _, c := range b {
			sum += uint32(c)
		}
	}
	return uint64(sum), nil
}

// ---- bpf_sys_bpf -----------------------------------------------------------

// Commands accepted by the simulated bpf(2)-in-a-helper. The union layout
// (attrUnion) mirrors the kernel's union bpf_attr: different commands
// interpret the same bytes differently, and only some variants hold
// pointers — which is why shallow verification cannot vet them.
const (
	SysBpfMapCreate = 0 // attr: {map_type u32, key_size u32, value_size u32, max_entries u32}
	SysBpfProgLoad  = 1 // attr: {insns_ptr u64, insn_cnt u32, pad u32, license_ptr u64}
	SysBpfMapLookup = 2 // attr: {map_handle u64, key_ptr u64, value_ptr u64}
	sysBpfAttrSize  = 24
)

func implSysBpf(e *Env, a [5]uint64) (uint64, error) {
	cmd, attrPtr, attrSize := a[0], a[1], a[2]
	if attrSize < sysBpfAttrSize {
		return errno(EINVAL), nil
	}
	attr, err := e.ReadMem(attrPtr, sysBpfAttrSize)
	if err != nil {
		return 0, err
	}
	// bpf_sys_bpf reaches enormous amounts of kernel code (4845 call-graph
	// nodes); charge accordingly.
	e.Charge(2000)
	u64 := func(off int) uint64 {
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(attr[off+i])
		}
		return v
	}
	u32 := func(off int) uint32 { return uint32(u64(off)) }

	switch cmd {
	case SysBpfMapCreate:
		spec := maps.Spec{
			Name:       fmt.Sprintf("sys_bpf_map_%d", e.Rand()),
			Type:       maps.MapType(u32(0)),
			KeySize:    int(u32(4)),
			ValueSize:  int(u32(8)),
			MaxEntries: int(u32(12)),
		}
		if _, _, err := e.Maps.Create(e.K, spec); err != nil {
			return errno(EINVAL), nil
		}
		return 0, nil

	case SysBpfProgLoad:
		licensePtr := u64(16)
		if !e.Bugs.SysBpfNullDeref && licensePtr == 0 {
			// Fixed behaviour (post CVE-2022-2785): validate the pointer
			// field before use.
			return errno(EINVAL), nil
		}
		// Buggy behaviour: dereference whatever the union holds. A program
		// that filled the union via a different variant leaves this field
		// NULL — and this read crashes the kernel.
		license, err := e.LoadUint(licensePtr, 8)
		if err != nil {
			return 0, err
		}
		_ = license
		return 0, nil

	case SysBpfMapLookup:
		m, err := e.MapByHandle(u64(0))
		if err != nil {
			return errno(EINVAL), nil
		}
		key, err := e.ReadMem(u64(8), uint64(m.Spec().KeySize))
		if err != nil {
			return 0, err
		}
		addr, ok := m.Lookup(e.Ctx.CPUID, key)
		if !ok {
			return errno(ENOENT), nil
		}
		val, err := e.ReadMem(addr, uint64(m.Spec().ValueSize))
		if err != nil {
			return 0, err
		}
		if err := e.WriteMem(u64(16), val); err != nil {
			return 0, err
		}
		return 0, nil
	}
	return errno(EINVAL), nil
}

// implSendSignal delivers a (recorded) signal to the current task.
func implSendSignal(e *Env, a [5]uint64) (uint64, error) {
	t := e.K.Current(e.Ctx.CPUID)
	if t == nil {
		return errno(ESRCH), nil
	}
	e.Trace = append(e.Trace, fmt.Sprintf("signal %d -> pid %d", a[0], t.PID))
	return 0, nil
}
