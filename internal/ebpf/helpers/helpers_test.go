package helpers

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
	"kex/internal/kernel/callgraph"
	"kex/internal/safext/lang"
)

func newEnv(t *testing.T) (*kernel.Kernel, *Env) {
	t.Helper()
	k := kernel.NewDefault()
	ctx := k.NewContext(0)
	return k, NewEnv(k, ctx, maps.NewRegistry())
}

func call(t *testing.T, name string, e *Env, args ...uint64) (uint64, error) {
	t.Helper()
	spec, ok := NewRegistry().ByName(name)
	if !ok {
		t.Fatalf("helper %q not registered", name)
	}
	if spec.Impl == nil {
		t.Fatalf("helper %q has no implementation", name)
	}
	var a [5]uint64
	copy(a[:], args)
	return spec.Impl(e, a)
}

// ---- registry calibration -------------------------------------------------

func TestRegistryFigure4Calibration(t *testing.T) {
	r := NewRegistry()
	for version, want := range eraTargets {
		if got := r.CountAt(version); got != want {
			t.Errorf("helpers at %s = %d, want %d", version, got, want)
		}
	}
	if got := r.CountAt("v5.18"); got != 249 {
		t.Fatalf("v5.18 universe = %d, want 249 (the paper's count)", got)
	}
}

func TestRegistryFigure3Calibration(t *testing.T) {
	r := NewRegistry()
	specs := r.CallGraphSpecs()
	if len(specs) != 249 {
		t.Fatalf("figure-3 population = %d, want 249", len(specs))
	}
	counts := make([]int, len(specs))
	for i, s := range specs {
		counts[i] = s.Size
	}
	d := callgraph.Summarize(counts)
	if d.Min != 1 || d.Max != 4845 {
		t.Errorf("extremes = %d..%d, want 1..4845", d.Min, d.Max)
	}
	// Paper: 52.2% >= 30, 34.5% >= 500.
	if d.FracAtLeast30 < 0.515 || d.FracAtLeast30 > 0.53 {
		t.Errorf("frac >= 30 = %.3f, want ~0.522", d.FracAtLeast30)
	}
	if d.FracAtLeast500 < 0.34 || d.FracAtLeast500 > 0.35 {
		t.Errorf("frac >= 500 = %.3f, want ~0.345", d.FracAtLeast500)
	}
	// Anchors.
	byName := map[string]int{}
	for _, s := range specs {
		byName[s.Name] = s.Size
	}
	if byName["bpf_get_current_pid_tgid"] != 1 {
		t.Error("pid_tgid anchor lost")
	}
	if byName["bpf_sys_bpf"] != 4845 {
		t.Error("sys_bpf anchor lost")
	}
}

func TestRegistryLookupAndIDs(t *testing.T) {
	r := NewRegistry()
	s, ok := r.ByName("bpf_map_lookup_elem")
	if !ok || s.Impl == nil {
		t.Fatal("map_lookup_elem missing or unimplemented")
	}
	back, ok := r.ByID(s.ID)
	if !ok || back != s {
		t.Fatal("ByID round trip failed")
	}
	// IDs are dense and 1-based.
	all := r.All()
	for i, spec := range all {
		if spec.ID != ID(i+1) {
			t.Fatalf("ID %d at position %d", spec.ID, i)
		}
	}
	// Names unique.
	seen := map[string]bool{}
	for _, spec := range all {
		if seen[spec.Name] {
			t.Fatalf("duplicate helper name %q", spec.Name)
		}
		seen[spec.Name] = true
	}
	// Growth series is monotonically nondecreasing.
	series := r.GrowthSeries()
	for i := 1; i < len(series); i++ {
		if series[i].Count < series[i-1].Count {
			t.Fatalf("growth series not monotone at %s", series[i].Version)
		}
	}
}

// TestRegistryByIDEdges pins the indexed helper table at its edges, laid
// out as the safext runtime lays it out: the sequential helpers from ID 1,
// then the kernel crate from lang.CrateIDBase. Every ID outside both
// ranges resolves to nothing, and RegisterAt over an occupied ID panics.
func TestRegistryByIDEdges(t *testing.T) {
	r := NewRegistry()
	last := ID(len(r.All()))
	names := lang.CrateNames()
	for i, name := range names {
		r.RegisterAt(ID(lang.CrateIDBase+i), Spec{Name: "slx_" + name})
	}
	lastCrate := ID(lang.CrateIDBase + len(names) - 1)
	for _, id := range []ID{1, last, lang.CrateIDBase, lastCrate} {
		if s, ok := r.ByID(id); !ok || s.ID != id {
			t.Errorf("ByID(%d) = %v, %v; want the helper at %d", id, s, ok, id)
		}
	}
	for _, id := range []ID{-1, -1 << 31, 0, last + 1, lang.CrateIDBase - 1, lastCrate + 1, 1 << 30} {
		if s, ok := r.ByID(id); ok || s != nil {
			t.Errorf("ByID(%d) = %v, %v; want not found", id, s, ok)
		}
	}
	for _, id := range []ID{1, lang.CrateIDBase} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterAt(%d) over an occupied ID did not panic", id)
				}
			}()
			r.RegisterAt(id, Spec{Name: "intruder"})
		}()
	}
	if _, ok := r.ByName("intruder"); ok {
		t.Error("a refused RegisterAt left its name behind")
	}
}

// ---- map helpers ------------------------------------------------------------

func TestMapHelpersRoundTrip(t *testing.T) {
	k, e := newEnv(t)
	_, h, err := e.Maps.Create(k, maps.Spec{Name: "m", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	buf := k.Mem.Map(64, kernel.ProtRW, "scratch")
	keyAddr, valAddr := buf.Base, buf.Base+16
	k.Mem.StoreUint(keyAddr, 4, 7)
	k.Mem.StoreUint(valAddr, 8, 0xabcd)

	// Lookup on empty map returns NULL.
	ret, err := call(t, "bpf_map_lookup_elem", e, h, keyAddr)
	if err != nil || ret != 0 {
		t.Fatalf("empty lookup = %#x, %v", ret, err)
	}
	// Update, then lookup hits.
	ret, err = call(t, "bpf_map_update_elem", e, h, keyAddr, valAddr, maps.UpdateAny)
	if err != nil || ret != 0 {
		t.Fatalf("update = %#x, %v", ret, err)
	}
	ret, err = call(t, "bpf_map_lookup_elem", e, h, keyAddr)
	if err != nil || ret == 0 {
		t.Fatalf("lookup = %#x, %v", ret, err)
	}
	v, _ := k.Mem.LoadUint(ret, 8)
	if v != 0xabcd {
		t.Fatalf("value through pointer = %#x", v)
	}
	// Delete.
	ret, err = call(t, "bpf_map_delete_elem", e, h, keyAddr)
	if err != nil || ret != 0 {
		t.Fatalf("delete = %#x, %v", ret, err)
	}
	ret, _ = call(t, "bpf_map_delete_elem", e, h, keyAddr)
	if int64(ret) != -ENOENT {
		t.Fatalf("double delete = %d, want -ENOENT", int64(ret))
	}
	// Bad handle aborts.
	if _, err := call(t, "bpf_map_lookup_elem", e, 0x1234, keyAddr); !errors.Is(err, ErrAbort) {
		t.Fatalf("bad handle err = %v", err)
	}
}

// ---- identity helpers ---------------------------------------------------------

func TestIdentityHelpers(t *testing.T) {
	k, e := newEnv(t)
	task := k.NewTask("nginx")
	task.SetUID(1000)
	k.SetCurrent(0, task)

	pidtgid, _ := call(t, "bpf_get_current_pid_tgid", e)
	if int(pidtgid>>32) != task.TGID || int(uint32(pidtgid)) != task.PID {
		t.Fatalf("pid_tgid = %#x", pidtgid)
	}
	uidgid, _ := call(t, "bpf_get_current_uid_gid", e)
	if uint32(uidgid>>32) != 1000 {
		t.Fatalf("uid = %d", uidgid>>32)
	}
	taskPtr, _ := call(t, "bpf_get_current_task", e)
	if taskPtr != task.Struct.Base {
		t.Fatalf("task ptr = %#x", taskPtr)
	}
	// Reading the struct through the pointer sees the pid.
	pid, _ := k.Mem.LoadUint(taskPtr+kernel.TaskOffPID, 4)
	if int(pid) != task.PID {
		t.Fatalf("pid through ptr = %d", pid)
	}
	buf := k.Mem.Map(16, kernel.ProtRW, "comm")
	if ret, err := call(t, "bpf_get_current_comm", e, buf.Base, 16); err != nil || ret != 0 {
		t.Fatalf("get_current_comm = %d, %v", ret, err)
	}
	s, _ := k.Mem.CString(buf.Base, 16)
	if s != "nginx" {
		t.Fatalf("comm = %q", s)
	}
	cpu, _ := call(t, "bpf_get_smp_processor_id", e)
	if cpu != 0 {
		t.Fatalf("cpu = %d", cpu)
	}
	k.Clock.Advance(12345)
	ns, _ := call(t, "bpf_ktime_get_ns", e)
	if ns != 12345 {
		t.Fatalf("ktime = %d", ns)
	}
}

// ---- probe_read is fault-tolerant ---------------------------------------------

func TestProbeReadGraceful(t *testing.T) {
	k, e := newEnv(t)
	dst := k.Mem.Map(16, kernel.ProtRW, "dst")
	src := k.Mem.Map(16, kernel.ProtRW, "src")
	k.Mem.StoreUint(src.Base, 8, 0x42)

	ret, err := call(t, "bpf_probe_read", e, dst.Base, 8, src.Base)
	if err != nil || ret != 0 {
		t.Fatalf("good read = %d, %v", int64(ret), err)
	}
	v, _ := k.Mem.LoadUint(dst.Base, 8)
	if v != 0x42 {
		t.Fatalf("copied = %#x", v)
	}
	// Bad source: -EFAULT, dest zeroed, and crucially NO kernel oops.
	ret, err = call(t, "bpf_probe_read", e, dst.Base, 8, 0)
	if err != nil || int64(ret) != -EFAULT {
		t.Fatalf("bad read = %d, %v", int64(ret), err)
	}
	v, _ = k.Mem.LoadUint(dst.Base, 8)
	if v != 0 {
		t.Fatalf("dest not zeroed: %#x", v)
	}
	if !k.Healthy() {
		t.Fatalf("probe_read oopsed: %v", k.LastOops())
	}
}

// ---- the §2.2 safety exploit: bpf_sys_bpf union NULL deref --------------------

func TestSysBpfNullDerefCrashesKernel(t *testing.T) {
	k, e := newEnv(t)
	e.Bugs.SysBpfNullDeref = true
	attr := k.Mem.Map(sysBpfAttrSize, kernel.ProtRW, "attr")
	// The union's PROG_LOAD variant has license_ptr at offset 16; a program
	// that filled a different variant leaves it zero.
	ret, err := call(t, "bpf_sys_bpf", e, SysBpfProgLoad, attr.Base, sysBpfAttrSize)
	if !errors.Is(err, ErrKernelCrash) {
		t.Fatalf("ret=%d err=%v, want kernel crash", int64(ret), err)
	}
	o := k.LastOops()
	if o == nil || o.Kind != kernel.OopsNullDeref {
		t.Fatalf("oops = %v, want null deref", o)
	}
}

func TestSysBpfFixedRejectsNull(t *testing.T) {
	k, e := newEnv(t)
	attr := k.Mem.Map(sysBpfAttrSize, kernel.ProtRW, "attr")
	ret, err := call(t, "bpf_sys_bpf", e, SysBpfProgLoad, attr.Base, sysBpfAttrSize)
	if err != nil || int64(ret) != -EINVAL {
		t.Fatalf("ret=%d err=%v, want -EINVAL", int64(ret), err)
	}
	if !k.Healthy() {
		t.Fatalf("fixed helper oopsed: %v", k.LastOops())
	}
}

func TestSysBpfMapCreateAndLookup(t *testing.T) {
	k, e := newEnv(t)
	attr := k.Mem.Map(sysBpfAttrSize, kernel.ProtRW, "attr")
	// map_type=hash(1), key=4, value=8, max=16
	k.Mem.StoreUint(attr.Base+0, 4, uint64(maps.Hash))
	k.Mem.StoreUint(attr.Base+4, 4, 4)
	k.Mem.StoreUint(attr.Base+8, 4, 8)
	k.Mem.StoreUint(attr.Base+12, 4, 16)
	ret, err := call(t, "bpf_sys_bpf", e, SysBpfMapCreate, attr.Base, sysBpfAttrSize)
	if err != nil || ret != 0 {
		t.Fatalf("map create = %d, %v", int64(ret), err)
	}
}

// ---- task storage NULL owner bug ----------------------------------------------

func TestTaskStorageNullOwner(t *testing.T) {
	k, e := newEnv(t)
	_, h, _ := e.Maps.Create(k, maps.Spec{Name: "storage", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 8})

	// Fixed: NULL owner yields NULL, no crash.
	ret, err := call(t, "bpf_task_storage_get", e, h, 0, 0, 1)
	if err != nil || ret != 0 {
		t.Fatalf("fixed = %#x, %v", ret, err)
	}
	if !k.Healthy() {
		t.Fatal("fixed helper oopsed")
	}
	// Buggy: NULL owner dereferenced.
	e.Bugs.TaskStorageNullDeref = true
	_, err = call(t, "bpf_task_storage_get", e, h, 0, 0, 1)
	if !errors.Is(err, ErrKernelCrash) {
		t.Fatalf("buggy err = %v, want crash", err)
	}
	if o := k.LastOops(); o == nil || o.Kind != kernel.OopsNullDeref {
		t.Fatalf("oops = %v", o)
	}
}

func TestTaskStorageCreatesPerTask(t *testing.T) {
	k, e := newEnv(t)
	_, h, _ := e.Maps.Create(k, maps.Spec{Name: "storage", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	t1, t2 := k.NewTask("a"), k.NewTask("b")
	a1, err := call(t, "bpf_task_storage_get", e, h, t1.Struct.Base, 0, 1)
	if err != nil || a1 == 0 {
		t.Fatalf("storage a = %#x, %v", a1, err)
	}
	a2, _ := call(t, "bpf_task_storage_get", e, h, t2.Struct.Base, 0, 1)
	if a2 == 0 || a2 == a1 {
		t.Fatalf("storage not per-task: %#x vs %#x", a1, a2)
	}
	// Without the create flag, an absent entry is NULL.
	t3 := k.NewTask("c")
	a3, _ := call(t, "bpf_task_storage_get", e, h, t3.Struct.Base, 0, 0)
	if a3 != 0 {
		t.Fatal("absent entry returned non-NULL without create flag")
	}
}

// ---- socket helpers -------------------------------------------------------------

func tupleAddr(t *testing.T, k *kernel.Kernel, srcIP, dstIP uint32, srcPort, dstPort uint16) uint64 {
	t.Helper()
	buf := k.Mem.Map(16, kernel.ProtRW, "tuple")
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b[0:], srcIP)
	binary.LittleEndian.PutUint32(b[4:], dstIP)
	binary.LittleEndian.PutUint16(b[8:], srcPort)
	binary.LittleEndian.PutUint16(b[10:], dstPort)
	k.Mem.Write(buf.Base, b)
	return buf.Base
}

func TestSkLookupAndRelease(t *testing.T) {
	k, e := newEnv(t)
	s := k.Sockets().Add("tcp", 1, 80, 2, 4000)
	tp := tupleAddr(t, k, 1, 2, 80, 4000)

	ptr, err := call(t, "bpf_sk_lookup_tcp", e, tp, 12)
	if err != nil || ptr != s.Struct.Base {
		t.Fatalf("lookup = %#x, %v", ptr, err)
	}
	if s.Ref().Count() != 2 {
		t.Fatalf("refcount = %d, want 2", s.Ref().Count())
	}
	if got := e.Ctx.AcquiredRefs(); len(got) != 1 {
		t.Fatalf("tracked refs = %d", len(got))
	}
	if _, err := call(t, "bpf_sk_release", e, ptr); err != nil {
		t.Fatal(err)
	}
	if s.Ref().Count() != 1 || len(e.Ctx.AcquiredRefs()) != 0 {
		t.Fatal("release did not drop reference/tracking")
	}
	// Miss returns NULL without reference.
	miss, err := call(t, "bpf_sk_lookup_tcp", e, tupleAddr(t, k, 9, 9, 9, 9), 12)
	if err != nil || miss != 0 {
		t.Fatalf("miss = %#x, %v", miss, err)
	}
}

func TestSkLookupRefLeakBug(t *testing.T) {
	k, e := newEnv(t)
	e.Bugs.SkLookupRefLeak = true
	s := k.Sockets().Add("tcp", 1, 80, 2, 4000)
	tp := tupleAddr(t, k, 1, 2, 80, 4000)
	ptr, _ := call(t, "bpf_sk_lookup_tcp", e, tp, 12)
	call(t, "bpf_sk_release", e, ptr)
	// Program behaved correctly, yet a count is leaked by the helper.
	if s.Ref().Count() != 2 {
		t.Fatalf("refcount = %d, want 2 (leak)", s.Ref().Count())
	}
}

// ---- get_task_stack: fixed vs buggy ------------------------------------------------

func TestGetTaskStack(t *testing.T) {
	k, e := newEnv(t)
	task := k.NewTask("victim")
	buf := k.Mem.Map(512, kernel.ProtRW, "stackbuf")

	n, err := call(t, "bpf_get_task_stack", e, task.Struct.Base, buf.Base, 64, 0)
	if err != nil || n != 64 {
		t.Fatalf("live stack = %d, %v", n, err)
	}
	// Fixed helper refuses a dead task.
	task.Exit()
	ret, err := call(t, "bpf_get_task_stack", e, task.Struct.Base, buf.Base, 64, 0)
	if err != nil || int64(ret) != -ESRCH {
		t.Fatalf("dead task = %d, %v; want -ESRCH", int64(ret), err)
	}
	if !k.Healthy() {
		t.Fatal("fixed helper oopsed")
	}
	// Buggy helper walks the freed stack: use-after-free crash.
	e.Bugs.GetTaskStackRefLeak = true
	_, err = call(t, "bpf_get_task_stack", e, task.Struct.Base, buf.Base, 64, 0)
	if !errors.Is(err, ErrKernelCrash) {
		t.Fatalf("buggy err = %v, want crash", err)
	}
	if o := k.LastOops(); o == nil || o.Kind != kernel.OopsUseAfterFree {
		t.Fatalf("oops = %v", o)
	}
}

// ---- string helpers ------------------------------------------------------------------

func putString(k *kernel.Kernel, s string) uint64 {
	r := k.Mem.Map(len(s)+1, kernel.ProtRW, "str")
	copy(r.Data, s)
	return r.Base
}

func TestStrtol(t *testing.T) {
	k, e := newEnv(t)
	res := k.Mem.Map(8, kernel.ProtRW, "res")
	s := putString(k, "-1234xyz")
	n, err := call(t, "bpf_strtol", e, s, 9, 10, res.Base)
	if err != nil || n != 5 {
		t.Fatalf("consumed = %d, %v", n, err)
	}
	v, _ := k.Mem.LoadUint(res.Base, 8)
	if int64(v) != -1234 {
		t.Fatalf("value = %d", int64(v))
	}
	// Non-numeric input.
	bad := putString(k, "xyz")
	n, _ = call(t, "bpf_strtol", e, bad, 4, 10, res.Base)
	if int64(n) != -EINVAL {
		t.Fatalf("bad input = %d", int64(n))
	}
	// Overflow: fixed saturates with -ERANGE.
	big := putString(k, "99999999999999999999")
	n, _ = call(t, "bpf_strtol", e, big, 21, 10, res.Base)
	if int64(n) != -ERANGE {
		t.Fatalf("overflow = %d, want -ERANGE", int64(n))
	}
	// Buggy: wraps silently.
	e.Bugs.StrtolOverflow = true
	n, err = call(t, "bpf_strtol", e, big, 21, 10, res.Base)
	if err != nil || int64(n) != 20 {
		t.Fatalf("buggy overflow = %d, %v", int64(n), err)
	}
}

func TestStrncmp(t *testing.T) {
	k, e := newEnv(t)
	a, b := putString(k, "hello"), putString(k, "help")
	ret, err := call(t, "bpf_strncmp", e, a, 6, b)
	if err != nil || int64(ret) >= 0 {
		t.Fatalf("cmp = %d, %v ('hello' < 'help')", int64(ret), err)
	}
	c := putString(k, "hello")
	ret, _ = call(t, "bpf_strncmp", e, a, 6, c)
	if ret != 0 {
		t.Fatalf("equal cmp = %d", int64(ret))
	}
}

// ---- bpf_loop -------------------------------------------------------------------------

func TestLoopHelper(t *testing.T) {
	_, e := newEnv(t)
	var calls []uint64
	e.CallFunc = func(pc int32, r1, r2, r3 uint64) (uint64, error) {
		if pc != 42 {
			t.Fatalf("callback pc = %d", pc)
		}
		calls = append(calls, r1)
		if r1 == 2 {
			return 1, nil // early stop
		}
		return 0, nil
	}
	n, err := call(t, "bpf_loop", e, 10, 42, 0, 0)
	if err != nil || n != 3 {
		t.Fatalf("loops = %d, %v", n, err)
	}
	if len(calls) != 3 || calls[2] != 2 {
		t.Fatalf("calls = %v", calls)
	}
	// Loop bound enforced.
	big, _ := call(t, "bpf_loop", e, maxLoops+1, 42, 0, 0)
	if int64(big) != -E2BIG {
		t.Fatalf("over-limit = %d", int64(big))
	}
}

// ---- ring buffer ------------------------------------------------------------------------

func TestRingbufHelpers(t *testing.T) {
	k, e := newEnv(t)
	m, h, _ := e.Maps.Create(k, maps.Spec{Name: "rb", Type: maps.RingBuf, MaxEntries: 256})
	rb := m.(maps.RingMap)

	addr, err := call(t, "bpf_ringbuf_reserve", e, h, 16, 0)
	if err != nil || addr == 0 {
		t.Fatalf("reserve = %#x, %v", addr, err)
	}
	k.Mem.StoreUint(addr, 8, 0x1111)
	if _, err := call(t, "bpf_ringbuf_submit", e, h, addr); err != nil {
		t.Fatal(err)
	}
	rec := rb.Consume()
	if len(rec) != 16 || binary.LittleEndian.Uint64(rec) != 0x1111 {
		t.Fatalf("record = %v", rec)
	}
	// Submitting garbage is a kernel bug (hardened path).
	if _, err := call(t, "bpf_ringbuf_submit", e, h, 0xdeadbeef); !errors.Is(err, ErrKernelCrash) {
		t.Fatalf("bogus submit err = %v", err)
	}
	// ringbuf_output convenience.
	data := k.Mem.Map(8, kernel.ProtRW, "payload")
	k.Mem.StoreUint(data.Base, 8, 0x2222)
	if ret, err := call(t, "bpf_ringbuf_output", e, h, data.Base, 8, 0); err != nil || ret != 0 {
		t.Fatalf("output = %d, %v", int64(ret), err)
	}
	rec = rb.Consume()
	if len(rec) != 8 || binary.LittleEndian.Uint64(rec) != 0x2222 {
		t.Fatalf("output record = %v", rec)
	}
}

// ---- spin locks through helpers --------------------------------------------------------

func TestSpinLockHelpers(t *testing.T) {
	k, e := newEnv(t)
	lockAddr := uint64(0xffff_8800_1234_0000)
	if _, err := call(t, "bpf_spin_lock", e, lockAddr); err != nil {
		t.Fatal(err)
	}
	if held := k.LockDep().Held(e.Ctx); len(held) != 1 {
		t.Fatalf("held = %d", len(held))
	}
	// Recursive lock is a deadlock abort.
	if _, err := call(t, "bpf_spin_lock", e, lockAddr); !errors.Is(err, ErrAbort) {
		t.Fatalf("recursive lock err = %v", err)
	}
	if _, err := call(t, "bpf_spin_unlock", e, lockAddr); err != nil {
		t.Fatal(err)
	}
	if held := k.LockDep().Held(e.Ctx); len(held) != 0 {
		t.Fatal("lock not released")
	}
	// Same address resolves to the same lock object.
	l1, l2 := e.LockAt(lockAddr), e.LockAt(lockAddr)
	if l1 != l2 {
		t.Fatal("LockAt not stable")
	}
}

// ---- trace_printk -------------------------------------------------------------------------

func TestTracePrintk(t *testing.T) {
	k, e := newEnv(t)
	f := putString(k, "count=%d cpu=%u")
	ret, err := call(t, "bpf_trace_printk", e, f, 15, 42, 3, 0)
	if err != nil || ret == 0 {
		t.Fatalf("printk = %d, %v", int64(ret), err)
	}
	if len(e.Trace) != 1 || !strings.Contains(e.Trace[0], "count=42 cpu=3") {
		t.Fatalf("trace = %q", e.Trace)
	}
}

// ---- skb helpers ----------------------------------------------------------------------------

func makeSkbCtx(k *kernel.Kernel, payload []byte) (uint64, *kernel.SKB) {
	skb := k.NewSKB(payload)
	ctx := k.Mem.Map(SkbCtxSize, kernel.ProtRW, "skb_ctx")
	k.Mem.StoreUint(ctx.Base+SkbOffData, 8, skb.DataStart())
	k.Mem.StoreUint(ctx.Base+SkbOffDataEnd, 8, skb.DataEnd())
	k.Mem.StoreUint(ctx.Base+SkbOffLen, 4, uint64(skb.Len))
	return ctx.Base, skb
}

func TestSkbLoadStoreBytes(t *testing.T) {
	k, e := newEnv(t)
	ctx, _ := makeSkbCtx(k, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	buf := k.Mem.Map(8, kernel.ProtRW, "buf")

	if ret, err := call(t, "bpf_skb_load_bytes", e, ctx, 2, buf.Base, 4); err != nil || ret != 0 {
		t.Fatalf("load = %d, %v", int64(ret), err)
	}
	got, _ := k.Mem.Read(buf.Base, 4)
	if got[0] != 3 || got[3] != 6 {
		t.Fatalf("loaded = %v", got)
	}
	// Out-of-bounds is -EFAULT, not a crash: the helper checks bounds.
	if ret, _ := call(t, "bpf_skb_load_bytes", e, ctx, 6, buf.Base, 4); int64(ret) != -EFAULT {
		t.Fatalf("oob load = %d", int64(ret))
	}
	if !k.Healthy() {
		t.Fatal("skb helper oopsed on bounds miss")
	}
	// Store.
	k.Mem.StoreUint(buf.Base, 4, 0xaabbccdd)
	if ret, err := call(t, "bpf_skb_store_bytes", e, ctx, 0, buf.Base, 4, 0); err != nil || ret != 0 {
		t.Fatalf("store = %d, %v", int64(ret), err)
	}
	data, _ := e.LoadUint(ctx+SkbOffData, 8)
	v, _ := k.Mem.LoadUint(data, 4)
	if uint32(v) != 0xaabbccdd {
		t.Fatalf("stored = %#x", v)
	}
}

// ---- for_each_map_elem -------------------------------------------------------------------------

func TestForEachMapElem(t *testing.T) {
	k, e := newEnv(t)
	m, h, _ := e.Maps.Create(k, maps.Spec{Name: "iter", Type: maps.Hash, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	for i := uint32(0); i < 3; i++ {
		key := make([]byte, 4)
		binary.LittleEndian.PutUint32(key, i)
		m.Update(0, key, []byte{byte(i), 0, 0, 0, 0, 0, 0, 0}, maps.UpdateAny)
	}
	var visited int
	e.CallFunc = func(pc int32, valAddr, cbCtx, _ uint64) (uint64, error) {
		visited++
		return 0, nil
	}
	n, err := call(t, "bpf_for_each_map_elem", e, h, 7, 0, 0)
	if err != nil || n != 3 || visited != 3 {
		t.Fatalf("n=%d visited=%d err=%v", n, visited, err)
	}
}
