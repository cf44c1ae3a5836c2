package maps

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
)

func TestPerCPUHashDisjointCells(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, _, err := reg.Create(k, Spec{Name: "pc", Type: PerCPUHash, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	key := key32(7)
	ncpu := len(k.CPUs())
	for cpu := 0; cpu < ncpu; cpu++ {
		val := make([]byte, 8)
		binary.LittleEndian.PutUint64(val, uint64(100+cpu))
		if err := m.Update(cpu, key, val, UpdateAny); err != nil {
			t.Fatalf("cpu %d update: %v", cpu, err)
		}
	}
	// Each CPU sees its own cell.
	for cpu := 0; cpu < ncpu; cpu++ {
		addr, ok := m.Lookup(cpu, key)
		if !ok {
			t.Fatalf("cpu %d lookup miss", cpu)
		}
		v, f := k.Mem.LoadUint(addr, 8)
		if f != nil || v != uint64(100+cpu) {
			t.Fatalf("cpu %d cell = %d (%v), want %d", cpu, v, f, 100+cpu)
		}
	}
	pm, ok := m.(PerCPUMap)
	if !ok {
		t.Fatal("percpu_hash does not implement PerCPUMap")
	}
	vals, ok := pm.PerCPUValues(key)
	if !ok || len(vals) != ncpu {
		t.Fatalf("PerCPUValues = %v, %v", vals, ok)
	}
	var sum uint64
	for _, v := range vals {
		sum += v
	}
	want := uint64(ncpu*100 + ncpu*(ncpu-1)/2)
	if sum != want {
		t.Fatalf("aggregated sum = %d, want %d", sum, want)
	}
	// One entry despite ncpu cells.
	if m.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", m.Entries())
	}
	if err := m.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Lookup(0, key); ok {
		t.Fatal("lookup hit after delete")
	}
}

func TestPerCPUHashFlagSemantics(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, _, err := reg.Create(k, Spec{Name: "pc", Type: PerCPUHash, KeySize: 4, ValueSize: 8, MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 8)
	if err := m.Update(0, key32(1), val, UpdateExist); !errors.Is(err, ErrNotFound) {
		t.Fatalf("UpdateExist on absent key = %v", err)
	}
	if err := m.Update(0, key32(1), val, UpdateNoExist); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(0, key32(1), val, UpdateNoExist); !errors.Is(err, ErrExists) {
		t.Fatalf("UpdateNoExist on present key = %v", err)
	}
	if err := m.Update(0, key32(2), val, UpdateAny); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("insert past max_entries = %v", err)
	}
}

func TestPerCPUArrayAggregation(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, _, err := reg.Create(k, Spec{Name: "pa", Type: PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	for cpu := range k.CPUs() {
		val := make([]byte, 8)
		binary.LittleEndian.PutUint64(val, uint64(cpu+1))
		if err := m.Update(cpu, key32(2), val, UpdateAny); err != nil {
			t.Fatal(err)
		}
	}
	pm := m.(PerCPUMap)
	vals, ok := pm.PerCPUValues(key32(2))
	if !ok {
		t.Fatal("PerCPUValues miss")
	}
	for cpu, v := range vals {
		if v != uint64(cpu+1) {
			t.Fatalf("cpu %d = %d, want %d", cpu, v, cpu+1)
		}
	}
}

// TestPerCPUHashConcurrentAggregation is the documented userspace pattern
// under load: shard workers overwrite their own cells of one key while a
// reader aggregates with PerCPUValues. Cell writes and reads must be
// synchronized per CPU (as perCPUArray does), so the reader never observes
// a torn multi-byte cell. Run under -race.
func TestPerCPUHashConcurrentAggregation(t *testing.T) {
	k, reg := newTestRegistry(t)
	m, _, err := reg.Create(k, Spec{Name: "pc", Type: PerCPUHash, KeySize: 4, ValueSize: 8, MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	key := key32(1)
	if err := m.Update(0, key, make([]byte, 8), UpdateAny); err != nil {
		t.Fatal(err)
	}
	pm := m.(PerCPUMap)
	zeros := make([]byte, 8)
	ones := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			vals, ok := pm.PerCPUValues(key)
			if !ok {
				t.Error("key vanished during aggregation")
				return
			}
			for cpu, v := range vals {
				// Writers only ever store all-zeros or all-ones: anything
				// else is a torn read across a concurrent cell write.
				if v != 0 && v != ^uint64(0) {
					t.Errorf("cpu %d: torn cell read %#x", cpu, v)
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for cpu := range k.CPUs() {
		writers.Add(1)
		go func(cpu int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				val := zeros
				if i%2 == 1 {
					val = ones
				}
				if err := m.Update(cpu, key, val, UpdateAny); err != nil {
					t.Errorf("cpu %d update: %v", cpu, err)
					return
				}
			}
		}(cpu)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// countingHook counts consultations and injects fail, to prove updates
// through the wrapper pass the fault seam.
type countingHook struct {
	mu      sync.Mutex
	allocs  int
	updates int
	fail    error
}

func (h *countingHook) MapAlloc(string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.allocs++
	return nil
}

func (h *countingHook) MapUpdate(string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.updates++
	return h.fail
}

// TestFaultWrapPreservesPerCPUInterfaces is the regression test for the
// X3-on-sharded-cores scenario: arming a fault campaign must not strip the
// per-CPU surface from registered maps.
func TestFaultWrapPreservesPerCPUInterfaces(t *testing.T) {
	k, reg := newTestRegistry(t)
	for _, spec := range []Spec{
		{Name: "pa", Type: PerCPUArray, KeySize: 4, ValueSize: 8, MaxEntries: 4},
		{Name: "ph", Type: PerCPUHash, KeySize: 4, ValueSize: 8, MaxEntries: 4},
	} {
		if _, _, err := reg.Create(k, spec); err != nil {
			t.Fatal(err)
		}
	}
	hook := &countingHook{}
	reg.SetFaultHook(hook)
	for _, name := range []string{"pa", "ph"} {
		m, ok := reg.ByName(name)
		if !ok {
			t.Fatalf("%s missing after SetFaultHook", name)
		}
		if _, ok := m.(*faultMap); !ok {
			t.Fatalf("%s not wrapped", name)
		}
		pm, ok := m.(PerCPUMap)
		if !ok {
			t.Fatalf("%s: wrapper dropped PerCPUMap", name)
		}
		val := make([]byte, 8)
		binary.LittleEndian.PutUint64(val, 42)
		if err := m.Update(0, key32(1), val, UpdateAny); err != nil {
			t.Fatalf("%s: Update = %v", name, err)
		}
		if vals, ok := pm.PerCPUValues(key32(1)); !ok || vals[0] != 42 {
			t.Fatalf("%s: PerCPUValues through wrapper = %v, %v", name, vals, ok)
		}
	}
	if hook.updates != 2 {
		t.Fatalf("hook consulted %d times, want 2", hook.updates)
	}

	// An injected error surfaces through the wrapper.
	hook.fail = ErrNoSpace
	m, _ := reg.ByName("ph")
	if err := m.Update(0, key32(9), make([]byte, 8), UpdateAny); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("injected update failure = %v", err)
	}

	// Detaching restores the bare maps; Unwrap strips even nested wrappers.
	reg.SetFaultHook(nil)
	m, _ = reg.ByName("ph")
	if _, ok := m.(*faultMap); ok {
		t.Fatal("wrapper left behind after detach")
	}
	double := &faultMap{inner: &faultMap{inner: m, hook: hook}, hook: hook}
	if got := Unwrap(double); got != m {
		t.Fatal("Unwrap did not strip nested wrappers")
	}
}

// TestRegistryConcurrentResolution exercises the lock-free registry view:
// concurrent ByHandle/ByName resolution against Create and SetFaultHook
// churn must be race-free (validated under -race).
func TestRegistryConcurrentResolution(t *testing.T) {
	k, reg := newTestRegistry(t)
	_, h, err := reg.Create(k, Spec{Name: "hot", Type: Array, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := reg.ByHandle(h); !ok {
					t.Error("hot handle vanished")
					return
				}
				if _, ok := reg.ByName("hot"); !ok {
					t.Error("hot name vanished")
					return
				}
			}
		}()
	}
	hook := &countingHook{}
	for i := 0; i < 50; i++ {
		if _, _, err := reg.Create(k, Spec{Type: Hash, KeySize: 4, ValueSize: 8, MaxEntries: 4}); err != nil {
			t.Fatal(err)
		}
		reg.SetFaultHook(hook)
		reg.SetFaultHook(nil)
	}
	close(stop)
	wg.Wait()
}
