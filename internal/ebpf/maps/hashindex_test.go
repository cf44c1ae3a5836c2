package maps

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"kex/internal/kernel"
)

// indexKey builds a key of the given size holding v, so the tests cover
// both the packed-word index (size <= 8) and the hashed one.
func indexKey(size int, v uint64) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b[:8:8], v) // size >= 8 in these tests
	return b
}

// indexKinds are the map kinds whose keys live in a hashIndex.
var indexKinds = []MapType{Hash, PerCPUHash}

// mapMutex returns the writer mutex of a hash or per-CPU hash map.
func mapMutex(t *testing.T, m Map) *sync.Mutex {
	t.Helper()
	switch m := Unwrap(m).(type) {
	case *hashMap:
		return &m.mu
	case *perCPUHash:
		return &m.mu
	}
	t.Fatalf("%T has no hash index", m)
	return nil
}

// TestHashIndexConcurrent runs lock-free readers against a writer that
// inserts, deletes and (on an LRU map) evicts, and checks every lookup:
// keys that are always present always hit and read their own value, keys
// that are never inserted always miss, and a key that churns either misses
// or yields its own value or an unmapped fault.
func TestHashIndexConcurrent(t *testing.T) {
	const (
		stable  = 64
		churn   = 16
		rounds  = 300
		readers = 4
	)
	for _, typ := range []MapType{Hash, PerCPUHash, LRUHash} {
		for _, ks := range []int{8, 16} {
			t.Run(fmt.Sprintf("%v/key%d", typ, ks), func(t *testing.T) {
				k, reg := newTestRegistry(t)
				max := stable + churn
				if typ == LRUHash {
					max = stable // every churn insert evicts
				}
				m, _, err := reg.Create(k, Spec{Name: "ix", Type: typ, KeySize: ks, ValueSize: 8, MaxEntries: max})
				if err != nil {
					t.Fatal(err)
				}
				val := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
				if typ != LRUHash {
					for v := uint64(0); v < stable; v++ {
						if err := m.Update(0, indexKey(ks, v), val(v), UpdateNoExist); err != nil {
							t.Fatal(err)
						}
					}
				}
				var stop atomic.Bool
				var wg sync.WaitGroup
				type tally struct{ lookups, hits, misses, faults int }
				tallies := make([]tally, readers)
				errs := make(chan error, readers)
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						cpu := r % len(k.CPUs())
						tl := &tallies[r]
						for i := uint64(0); !stop.Load() || i < 1000; i++ {
							var v uint64
							switch i % 3 {
							case 0:
								v = i % stable
							case 1:
								v = 1000 + i%churn
							case 2:
								v = 1<<40 + i // never inserted
							}
							tl.lookups++
							addr, ok := m.Lookup(cpu, indexKey(ks, v))
							if !ok {
								tl.misses++
								if typ != LRUHash && v < stable {
									errs <- fmt.Errorf("stable key %d missed", v)
									return
								}
								continue
							}
							tl.hits++
							if v >= 1<<40 {
								errs <- fmt.Errorf("absent key %#x hit", v)
								return
							}
							got, f := k.Mem.LoadUint(addr, 8)
							if f != nil {
								if f.Cause != "unmapped" || (typ != LRUHash && v < stable) {
									errs <- fmt.Errorf("key %d: %v", v, f)
									return
								}
								tl.faults++
								continue
							}
							want := v
							if typ == PerCPUHash && cpu != 0 {
								want = 0 // only the inserting CPU's cell holds v
							}
							if got != want {
								errs <- fmt.Errorf("key %d read %d", v, got)
								return
							}
						}
					}(r)
				}
				// The writer: churn keys in and out, and on the LRU map
				// insert keys that evict the oldest. It never overwrites a
				// live value: readers load values with no lock, as programs
				// do, so an in-place overwrite would race them by design.
				insert := func(v uint64) error {
					if err := m.Update(0, indexKey(ks, v), val(v), UpdateNoExist); err != nil && err != ErrExists {
						return err
					}
					return nil
				}
				write := func() error {
					for round := uint64(0); round < rounds; round++ {
						c := 1000 + round%churn
						if err := insert(c); err != nil {
							return err
						}
						if typ == LRUHash {
							if err := insert(round % stable); err != nil {
								return err
							}
							continue
						}
						if err := m.Delete(indexKey(ks, c)); err != nil {
							return err
						}
					}
					return nil
				}
				werr := write()
				stop.Store(true)
				wg.Wait()
				close(errs)
				if werr != nil {
					t.Fatal(werr)
				}
				for err := range errs {
					t.Fatal(err)
				}
				for r, tl := range tallies {
					if tl.hits+tl.misses != tl.lookups || tl.lookups < 1000 {
						t.Fatalf("reader %d: %d hits + %d misses of %d lookups", r, tl.hits, tl.misses, tl.lookups)
					}
				}
				want := stable
				if typ == LRUHash {
					want = max
				}
				if n := m.Entries(); n != want {
					t.Fatalf("entries = %d, want %d", n, want)
				}
				if n := len(Unwrap(m).(KeyedMap).Keys()); n != want {
					t.Fatalf("keys = %d, want %d", n, want)
				}
			})
		}
	}
}

// TestHashIndexLRUAgainstModel checks an LRU map's hits, misses and
// eviction order against a recency-ordered slice, under random updates,
// deletes and lookups.
func TestHashIndexLRUAgainstModel(t *testing.T) {
	const max = 4
	k, reg := newTestRegistry(t)
	m, _, _ := reg.Create(k, Spec{Name: "lrumodel", Type: LRUHash, KeySize: 1, ValueSize: 1, MaxEntries: max})
	var order []byte // least recent first
	find := func(kb byte) int {
		for i, x := range order {
			if x == kb {
				return i
			}
		}
		return -1
	}
	use := func(i int) { // move order[i] to the most recent end
		kb := order[i]
		order = append(append(order[:i:i], order[i+1:]...), kb)
	}
	step := func(op, kb byte) bool {
		kb %= 8
		key := []byte{kb}
		i := find(kb)
		switch op % 3 {
		case 0:
			if err := m.Update(0, key, []byte{kb}, UpdateAny); err != nil {
				return false
			}
			switch {
			case i >= 0:
				use(i)
			case len(order) == max:
				order = append(order[1:], kb)
			default:
				order = append(order, kb)
			}
		case 1:
			if err := m.Delete(key); (err == nil) != (i >= 0) {
				return false
			}
			if i >= 0 {
				order = append(order[:i:i], order[i+1:]...)
			}
		case 2:
			addr, ok := m.Lookup(0, key)
			if ok != (i >= 0) {
				return false
			}
			if ok {
				use(i)
				if v, f := k.Mem.LoadUint(addr, 1); f != nil || byte(v) != kb {
					return false
				}
			}
		}
		return m.Entries() == len(order)
	}
	if err := quick.Check(step, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestHashIndexLookupTakesNoLock holds the writer mutex and looks up: a
// lookup that took the map's lock would block.
func TestHashIndexLookupTakesNoLock(t *testing.T) {
	for _, typ := range indexKinds {
		t.Run(typ.String(), func(t *testing.T) {
			k, reg := newTestRegistry(t)
			m, _, _ := reg.Create(k, Spec{Name: "nolock", Type: typ, KeySize: 4, ValueSize: 8, MaxEntries: 8})
			if err := m.Update(0, key32(7), make([]byte, 8), UpdateAny); err != nil {
				t.Fatal(err)
			}
			mu := mapMutex(t, m)
			mu.Lock()
			defer mu.Unlock()
			done := make(chan bool)
			go func() {
				_, ok := m.Lookup(0, key32(7))
				_, miss := m.Lookup(0, key32(8))
				done <- ok && !miss
			}()
			select {
			case ok := <-done:
				if !ok {
					t.Fatal("lookup under the writer mutex got the wrong answer")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Lookup blocked on the writer mutex")
			}
		})
	}
}

// TestHashIndexDeleteFaults keeps a value address past Delete: the value
// region is unmapped, so the stale address faults, as a use-after-free.
func TestHashIndexDeleteFaults(t *testing.T) {
	for _, typ := range indexKinds {
		for _, ks := range []int{4, 16} {
			t.Run(fmt.Sprintf("%v/key%d", typ, ks), func(t *testing.T) {
				k, reg := newTestRegistry(t)
				m, _, _ := reg.Create(k, Spec{Name: "uaf", Type: typ, KeySize: ks, ValueSize: 8, MaxEntries: 4})
				key := make([]byte, ks)
				key[0] = 3
				if err := m.Update(0, key, make([]byte, 8), UpdateAny); err != nil {
					t.Fatal(err)
				}
				addr, ok := m.Lookup(0, key)
				if !ok {
					t.Fatal("miss after insert")
				}
				if err := m.Delete(key); err != nil {
					t.Fatal(err)
				}
				if _, ok := m.Lookup(0, key); ok {
					t.Fatal("hit after delete")
				}
				_, f := k.Mem.LoadUint(addr, 8)
				if f == nil || f.Cause != "unmapped" {
					t.Fatalf("stale address after delete: fault %v, want unmapped", f)
				}
			})
		}
	}
}

// TestHashIndexHugeMaxEntries creates maps whose declared size would ask
// for a terabyte-scale index: the bucket array is capped at maxBuckets, so
// each creation allocates under 256 KiB (maxBuckets pointers are 128 KiB).
func TestHashIndexHugeMaxEntries(t *testing.T) {
	const bound = 256 << 10
	for _, typ := range []MapType{Hash, LRUHash, PerCPUHash} {
		k, reg := newTestRegistry(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, _, err := reg.Create(k, Spec{Name: "huge", Type: typ, KeySize: 4, ValueSize: 8, MaxEntries: 1 << 40})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("%v: creating the map allocated %d bytes, bound %d", typ, got, bound)
		}
		var ix *hashIndex
		switch m := Unwrap(m).(type) {
		case *hashMap:
			ix = &m.index
		case *perCPUHash:
			ix = &m.index
		}
		if len(ix.buckets) != maxBuckets {
			t.Errorf("%v: %d buckets, want the cap %d", typ, len(ix.buckets), maxBuckets)
		}
		// Still a working map.
		if err := m.Update(0, key32(1), make([]byte, 8), UpdateAny); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Lookup(0, key32(1)); !ok {
			t.Fatalf("%v: miss after insert", typ)
		}
	}
}

// TestHashIndexBucketCount pins the bucket count: the power of two at or
// above MaxEntries.
func TestHashIndexBucketCount(t *testing.T) {
	for _, c := range []struct{ max, want int }{{1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {4096, 4096}, {4097, 8192}} {
		if got := len(newHashIndex(4, c.max).buckets); got != c.want {
			t.Errorf("MaxEntries %d: %d buckets, want %d", c.max, got, c.want)
		}
	}
}

// TestHashIndexLookupAllocs pins Lookup, hit and miss, at zero
// allocations on both map kinds and both key layouts.
func TestHashIndexLookupAllocs(t *testing.T) {
	for _, typ := range indexKinds {
		for _, ks := range []int{4, 16} {
			k, reg := newTestRegistry(t)
			m, _, _ := reg.Create(k, Spec{Name: "allocs", Type: typ, KeySize: ks, ValueSize: 8, MaxEntries: 64})
			hit, miss := make([]byte, ks), make([]byte, ks)
			hit[0], miss[0] = 1, 2
			if err := m.Update(0, hit, make([]byte, 8), UpdateAny); err != nil {
				t.Fatal(err)
			}
			if a := testing.AllocsPerRun(100, func() {
				m.Lookup(0, hit)
				m.Lookup(0, miss)
			}); a != 0 {
				t.Errorf("%v/key%d: Lookup allocates %.1f times", typ, ks, a)
			}
		}
	}
}

// BenchmarkHashLookupParallel looks up a shared 1000-key table from every
// goroutine of the parallel benchmark, the shape of shards probing one
// cache table.
func BenchmarkHashLookupParallel(b *testing.B) {
	for _, typ := range indexKinds {
		b.Run(typ.String(), func(b *testing.B) {
			k := kernel.NewDefault()
			m, _, _ := NewRegistry().Create(k, Spec{Name: "bench", Type: typ, KeySize: 4, ValueSize: 8, MaxEntries: 1024})
			for v := uint32(0); v < 1000; v++ {
				if err := m.Update(0, key32(v), make([]byte, 8), UpdateAny); err != nil {
					b.Fatal(err)
				}
			}
			b.RunParallel(func(pb *testing.PB) {
				key := key32(0)
				for i := uint32(0); pb.Next(); i++ {
					binary.LittleEndian.PutUint32(key, i%1000)
					m.Lookup(0, key)
				}
			})
		})
	}
}
