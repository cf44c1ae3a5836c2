package maps

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"kex/internal/kernel"
)

func key32(v uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, v)
	return b
}

func newTestRegistry(t *testing.T) (*kernel.Kernel, *Registry) {
	t.Helper()
	return kernel.NewDefault(), NewRegistry()
}

// TestCreateRefusesOversizedSpecs: a spec past a size cap fails with
// ErrTooBig before anything is allocated, including one whose byte size
// overflows int (it used to panic the simulated kernel) and one that fits
// in int but would preallocate terabytes.
func TestCreateRefusesOversizedSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"value size overflows int", Spec{Type: Array, KeySize: 4, ValueSize: 1 << 33, MaxEntries: 1 << 30}},
		{"value past KMALLOC_MAX_SIZE", Spec{Type: Hash, KeySize: 4, ValueSize: maxValueSize + 1, MaxEntries: 1}},
		{"key past MAX_BPF_STACK", Spec{Type: Hash, KeySize: maxKeySize + 1, ValueSize: 8, MaxEntries: 1}},
		{"array product overflows int", Spec{Type: Array, KeySize: 4, ValueSize: maxValueSize, MaxEntries: 1 << 62}},
		{"array of a terabyte", Spec{Type: Array, KeySize: 4, ValueSize: 8, MaxEntries: 1 << 37}},
		{"per-CPU copies past the cap", Spec{Type: PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: maxMapBytes/16 + 1}},
		{"ring buffer of a terabyte", Spec{Type: RingBuf, MaxEntries: 1 << 40}},
		{"queue value past the cap", Spec{Type: Queue, ValueSize: maxValueSize + 1, MaxEntries: 1}},
	}
	k, reg := newTestRegistry(t)
	if len(k.CPUs()) < 2 {
		t.Fatalf("the per-CPU case needs two CPUs, kernel has %d", len(k.CPUs()))
	}
	for _, c := range cases {
		c.spec.Name = c.name
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, _, err := reg.Create(k, c.spec)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTooBig) || m != nil {
			t.Errorf("%s: Create = %v, %v; want ErrTooBig", c.name, m, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
			t.Errorf("%s: refused creation allocated %d bytes", c.name, got)
		}
		if _, ok := reg.ByName(c.name); ok {
			t.Errorf("%s: refused map was registered", c.name)
		}
	}
}

func TestRegistryCreateAndResolve(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, h, err := reg.Create(k, Spec{Name: "counts", Type: Array, KeySize: 4, ValueSize: 8, MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !IsHandle(h) {
		t.Fatalf("handle %#x not in carve-out", h)
	}
	if got, ok := reg.ByHandle(h); !ok || got != m {
		t.Fatal("ByHandle failed")
	}
	if got, ok := reg.ByName("counts"); !ok || got != m {
		t.Fatal("ByName failed")
	}
	if got, ok := reg.Handle(m); !ok || got != h {
		t.Fatal("Handle failed")
	}
	// Handles are not real memory: dereferencing one faults.
	if _, f := k.Mem.Read(h, 8); f == nil {
		t.Fatal("map handle dereference did not fault")
	}
}

func TestRegistryRejectsBadSpecs(t *testing.T) {
	k, reg := newTestRegistry(t)
	bad := []Spec{
		{Name: "a", Type: Hash, KeySize: 0, ValueSize: 8, MaxEntries: 4},
		{Name: "b", Type: Hash, KeySize: 4, ValueSize: 0, MaxEntries: 4},
		{Name: "c", Type: Hash, KeySize: 4, ValueSize: 8, MaxEntries: 0},
	}
	for _, spec := range bad {
		if _, _, err := reg.Create(k, spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

func TestArrayMap(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, _, err := reg.Create(k, Spec{Name: "a", Type: Array, ValueSize: 8, MaxEntries: 4, KeySize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Entries() != 4 {
		t.Fatalf("entries = %d, want 4 (pre-allocated)", m.Entries())
	}
	val := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := m.Update(0, key32(2), val, UpdateAny); err != nil {
		t.Fatal(err)
	}
	addr, ok := m.Lookup(0, key32(2))
	if !ok {
		t.Fatal("lookup miss on array")
	}
	got, f := k.Mem.Read(addr, 8)
	if f != nil || !bytes.Equal(got, val) {
		t.Fatalf("value = %v, %v", got, f)
	}
	// In-place writes through the pointer are the eBPF contract.
	k.Mem.StoreUint(addr, 8, 0xff)
	addr2, _ := m.Lookup(0, key32(2))
	v, _ := k.Mem.LoadUint(addr2, 8)
	if v != 0xff {
		t.Fatalf("in-place write lost: %#x", v)
	}
	// Out-of-range index misses.
	if _, ok := m.Lookup(0, key32(4)); ok {
		t.Fatal("OOB index hit")
	}
	// Array semantics: NOEXIST fails, Delete unsupported.
	if err := m.Update(0, key32(0), val, UpdateNoExist); err != ErrExists {
		t.Fatalf("NOEXIST err = %v", err)
	}
	if err := m.Delete(key32(0)); err != ErrBadOp {
		t.Fatalf("delete err = %v", err)
	}
}

func TestBuggyArrayIndexOverflow(t *testing.T) {
	k, reg := newTestRegistry(t)
	// value_size * idx overflows 32 bits: 0x10000 * 0x10000 = 2^32 -> 0.
	m, _ := NewBuggyArray(k, reg, Spec{Name: "buggy", ValueSize: 0x10000, MaxEntries: 0x10001, KeySize: 4})
	a0, _ := m.Lookup(0, key32(0))
	aBig, ok := m.Lookup(0, key32(0x10000))
	if !ok {
		t.Fatal("in-range lookup missed")
	}
	if aBig != a0 {
		t.Fatalf("buggy map did not wrap: %#x vs %#x", aBig, a0)
	}
	// The correct map must not alias.
	good, _, _ := reg.Create(k, Spec{Name: "good", Type: Array, ValueSize: 0x10000, MaxEntries: 0x10001, KeySize: 4})
	g0, _ := good.Lookup(0, key32(0))
	gBig, _ := good.Lookup(0, key32(0x10000))
	if gBig == g0 {
		t.Fatal("correct map aliased")
	}
}

func TestHashMapLifecycle(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, _, err := reg.Create(k, Spec{Name: "h", Type: Hash, KeySize: 8, ValueSize: 4, MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("12345678")
	if _, ok := m.Lookup(0, key); ok {
		t.Fatal("hit on empty map")
	}
	if err := m.Update(0, key, []byte{9, 9, 9, 9}, UpdateExist); err != ErrNotFound {
		t.Fatalf("EXIST on absent = %v", err)
	}
	if err := m.Update(0, key, []byte{1, 1, 1, 1}, UpdateNoExist); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(0, key, []byte{2, 2, 2, 2}, UpdateNoExist); err != ErrExists {
		t.Fatalf("NOEXIST on present = %v", err)
	}
	addr, ok := m.Lookup(0, key)
	if !ok {
		t.Fatal("miss after insert")
	}
	v, _ := k.Mem.LoadUint(addr, 4)
	if v != 0x01010101 {
		t.Fatalf("value = %#x", v)
	}
	// Capacity enforced.
	m.Update(0, []byte("aaaaaaaa"), []byte{0, 0, 0, 0}, UpdateAny)
	if err := m.Update(0, []byte("bbbbbbbb"), []byte{0, 0, 0, 0}, UpdateAny); err != ErrNoSpace {
		t.Fatalf("over-capacity err = %v", err)
	}
	// Delete frees the value region: stale pointers fault (UAF).
	if err := m.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, f := k.Mem.Read(addr, 4); f == nil {
		t.Fatal("deleted value still mapped")
	}
	if err := m.Delete(key); err != ErrNotFound {
		t.Fatalf("double delete err = %v", err)
	}
	if m.Entries() != 1 {
		t.Fatalf("entries = %d", m.Entries())
	}
}

func TestHashMapKeySizeChecked(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, _, _ := reg.Create(k, Spec{Name: "h", Type: Hash, KeySize: 4, ValueSize: 4, MaxEntries: 4})
	if err := m.Update(0, []byte{1}, []byte{1, 2, 3, 4}, UpdateAny); err != ErrKeySize {
		t.Fatalf("err = %v", err)
	}
	if err := m.Update(0, key32(1), []byte{1}, UpdateAny); err != ErrValueSize {
		t.Fatalf("err = %v", err)
	}
	if err := m.Update(0, key32(1), key32(1), 99); err != ErrBadFlags {
		t.Fatalf("err = %v", err)
	}
}

func TestLRUHashEvicts(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, _, _ := reg.Create(k, Spec{Name: "lru", Type: LRUHash, KeySize: 4, ValueSize: 4, MaxEntries: 2})
	v := []byte{0, 0, 0, 0}
	m.Update(0, key32(1), v, UpdateAny)
	m.Update(0, key32(2), v, UpdateAny)
	// Touch key 1 so key 2 is the LRU victim.
	m.Lookup(0, key32(1))
	if err := m.Update(0, key32(3), v, UpdateAny); err != nil {
		t.Fatalf("LRU insert failed: %v", err)
	}
	if _, ok := m.Lookup(0, key32(2)); ok {
		t.Fatal("LRU victim survived")
	}
	if _, ok := m.Lookup(0, key32(1)); !ok {
		t.Fatal("recently-used key evicted")
	}
	if m.Entries() != 2 {
		t.Fatalf("entries = %d", m.Entries())
	}
}

func TestPerCPUArrayIsolation(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, _, _ := reg.Create(k, Spec{Name: "pc", Type: PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 2})
	m.Update(0, key32(0), []byte{1, 0, 0, 0, 0, 0, 0, 0}, UpdateAny)
	m.Update(1, key32(0), []byte{2, 0, 0, 0, 0, 0, 0, 0}, UpdateAny)
	a0, _ := m.Lookup(0, key32(0))
	a1, _ := m.Lookup(1, key32(0))
	if a0 == a1 {
		t.Fatal("per-CPU copies share an address")
	}
	v0, _ := k.Mem.LoadUint(a0, 8)
	v1, _ := k.Mem.LoadUint(a1, 8)
	if v0 != 1 || v1 != 2 {
		t.Fatalf("values = %d, %d", v0, v1)
	}
	if _, ok := m.Lookup(99, key32(0)); ok {
		t.Fatal("bogus CPU hit")
	}
}

func TestRingBuf(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, _, _ := reg.Create(k, Spec{Name: "rb", Type: RingBuf, MaxEntries: 64})
	rb := m.(RingMap)

	if got := rb.Consume(); got != nil {
		t.Fatal("consume from empty ring")
	}
	addr := rb.Reserve(8)
	if addr == 0 {
		t.Fatal("reserve failed")
	}
	// Reserved but not submitted: invisible.
	if got := rb.Consume(); got != nil {
		t.Fatal("consumed unsubmitted record")
	}
	k.Mem.StoreUint(addr, 8, 0xdead)
	if !rb.Submit(addr) {
		t.Fatal("submit failed")
	}
	rec := rb.Consume()
	if len(rec) != 8 || binary.LittleEndian.Uint64(rec) != 0xdead {
		t.Fatalf("record = %v", rec)
	}
	// Unknown reservation rejected.
	if rb.Submit(0x1234) {
		t.Fatal("bogus submit accepted")
	}
	// Fill until drop.
	drops := rb.Dropped()
	for i := 0; i < 20; i++ {
		if a := rb.Reserve(8); a != 0 {
			rb.Submit(a)
		}
	}
	if rb.Dropped() == drops {
		t.Fatal("ring never dropped despite overflow")
	}
}

func TestQueue(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, _, _ := reg.Create(k, Spec{Name: "q", Type: Queue, ValueSize: 4, MaxEntries: 2})
	q := m.(QueueMap)
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue")
	}
	q.Update(0, nil, []byte{1, 0, 0, 0}, UpdateAny)
	q.Update(0, nil, []byte{2, 0, 0, 0}, UpdateAny)
	if err := q.Update(0, nil, []byte{3, 0, 0, 0}, UpdateAny); err != ErrNoSpace {
		t.Fatalf("overflow err = %v", err)
	}
	v, ok := q.Pop()
	if !ok || v[0] != 1 {
		t.Fatalf("FIFO violated: %v", v)
	}
	if m.Entries() != 1 {
		t.Fatalf("entries = %d", m.Entries())
	}
}

// Property: hash map agrees with a reference Go map under arbitrary
// update/delete/lookup sequences.
func TestHashMapAgainstModel(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, _, _ := reg.Create(k, Spec{Name: "model", Type: Hash, KeySize: 1, ValueSize: 1, MaxEntries: 64})
	model := map[byte]byte{}
	step := func(op, kb, vb byte) bool {
		key, val := []byte{kb % 16}, []byte{vb}
		switch op % 3 {
		case 0:
			err := m.Update(0, key, val, UpdateAny)
			if err != nil {
				return false
			}
			model[key[0]] = vb
		case 1:
			err := m.Delete(key)
			_, had := model[key[0]]
			if had != (err == nil) {
				return false
			}
			delete(model, key[0])
		case 2:
			addr, ok := m.Lookup(0, key)
			want, had := model[key[0]]
			if ok != had {
				return false
			}
			if ok {
				got, f := k.Mem.LoadUint(addr, 1)
				if f != nil || byte(got) != want {
					return false
				}
			}
		}
		return m.Entries() == len(model)
	}
	if err := quick.Check(step, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
