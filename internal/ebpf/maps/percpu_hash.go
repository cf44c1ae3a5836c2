package maps

import (
	"sync"

	"kex/internal/kernel"
)

// perCPUHash is the BPF_MAP_TYPE_PERCPU_HASH analogue: one shared keyset,
// but every entry carries a value cell per CPU, laid out contiguously in
// one region (cell i at offset i*ValueSize). Lookup returns the calling
// CPU's cell, so hot-path increments from different shards touch disjoint
// memory; userspace aggregates with PerCPUValues. The keyset is a hash
// index that Lookup, the overwrite path and PerCPUValues walk without a
// lock; inserts and deletes, rare control-plane events, serialize on mu.
// Value cells are guarded by one mutex per CPU (as perCPUArray does):
// shard cpu's writes and PerCPUValues' aggregation-on-read of that cell
// serialize on mus[cpu], so a concurrent snapshot never tears a multi-byte
// cell mid-write.
type perCPUHash struct {
	k     *kernel.Kernel
	ncpu  int
	spec  Spec
	mus   []sync.Mutex // one per CPU cell; shard workers never share one
	index hashIndex    // one region of ncpu*ValueSize per key

	mu sync.Mutex
}

func newPerCPUHash(k *kernel.Kernel, spec Spec) *perCPUHash {
	ncpu := len(k.CPUs())
	if ncpu < 1 {
		ncpu = 1
	}
	return &perCPUHash{
		k: k, ncpu: ncpu, spec: spec,
		index: newHashIndex(spec.KeySize, spec.MaxEntries),
		mus:   make([]sync.Mutex, ncpu),
	}
}

func (m *perCPUHash) Spec() Spec { return m.spec }

func (m *perCPUHash) Lookup(cpu int, key []byte) (uint64, bool) {
	if len(key) != m.spec.KeySize || cpu < 0 || cpu >= m.ncpu {
		return 0, false
	}
	n := m.index.find(key)
	if n == nil {
		return 0, false
	}
	return n.region.Base + uint64(cpu)*uint64(m.spec.ValueSize), true
}

// setCell writes the CPU's cell of r under the cell's lock, so a
// concurrent PerCPUValues cannot observe a torn write.
func (m *perCPUHash) setCell(r *kernel.Region, cpu int, value []byte) {
	m.mus[cpu].Lock()
	copy(r.Data[cpu*m.spec.ValueSize:(cpu+1)*m.spec.ValueSize], value)
	m.mus[cpu].Unlock()
}

func (m *perCPUHash) Update(cpu int, key, value []byte, flags uint64) error {
	if err := checkSizes(m.spec, key, value, true); err != nil {
		return err
	}
	if flags > UpdateExist {
		return ErrBadFlags
	}
	if cpu < 0 || cpu >= m.ncpu {
		return ErrNotFound
	}

	// Overwrite path: per-CPU cells are disjoint, so concurrent shards
	// writing their own cells of the same key do not conflict, and the
	// keyset is read without a lock.
	if n := m.index.find(key); n != nil {
		if flags == UpdateNoExist {
			return ErrExists
		}
		m.setCell(n.region, cpu, value)
		return nil
	}
	if flags == UpdateExist {
		return ErrNotFound
	}

	// Insert path: take the mutex and re-check, since another shard may
	// have inserted the key since the lookup.
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.index.find(key); n != nil {
		if flags == UpdateNoExist {
			return ErrExists
		}
		m.setCell(n.region, cpu, value)
		return nil
	}
	if m.index.n >= m.spec.MaxEntries {
		return ErrNoSpace
	}
	r := m.k.Mem.Map(m.ncpu*m.spec.ValueSize, kernel.ProtRW, "map_percpu_hash_val:"+m.spec.Name)
	copy(r.Data[cpu*m.spec.ValueSize:(cpu+1)*m.spec.ValueSize], value)
	m.index.insert(key, r)
	return nil
}

func (m *perCPUHash) Delete(key []byte) error {
	if len(key) != m.spec.KeySize {
		return ErrKeySize
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.index.find(key)
	if n == nil {
		return ErrNotFound
	}
	m.k.Mem.Unmap(n.region)
	m.index.remove(n)
	return nil
}

func (m *perCPUHash) Entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.index.n
}

// Keys returns a snapshot of the current keys.
func (m *perCPUHash) Keys() [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.index.keys()
}

// PerCPUValues decodes the key's cell on every CPU as a little-endian
// integer, for aggregation-on-read.
func (m *perCPUHash) PerCPUValues(key []byte) ([]uint64, bool) {
	if len(key) != m.spec.KeySize {
		return nil, false
	}
	n := m.index.find(key)
	if n == nil {
		return nil, false
	}
	r := n.region
	out := make([]uint64, m.ncpu)
	for cpu := 0; cpu < m.ncpu; cpu++ {
		m.mus[cpu].Lock()
		out[cpu] = decodeCell(r.Data[cpu*m.spec.ValueSize:], m.spec.ValueSize)
		m.mus[cpu].Unlock()
	}
	return out, true
}
