package maps

import (
	"encoding/binary"
	"sync"

	"kex/internal/kernel"
)

// arrayMap is the BPF_MAP_TYPE_ARRAY analogue: max_entries pre-allocated
// values indexed by a u32 key, stored contiguously in one kernel region.
// All entries always exist; Update overwrites in place and Delete is
// rejected, as in the kernel.
type arrayMap struct {
	spec   Spec
	region *kernel.Region
	mu     sync.Mutex

	// buggyIndexMath reproduces the 32-bit overflow fixed by commit
	// 87ac0d600943 ("bpf: fix potential 32-bit overflow when accessing
	// ARRAY map element"): the element offset is computed in 32 bits, so a
	// large index*value_size wraps and the returned pointer aliases the
	// wrong element (or the map header area). The bug corpus flips this on.
	buggyIndexMath bool
}

func newArray(k *kernel.Kernel, spec Spec, buggy bool) *arrayMap {
	spec.KeySize = 4 // array keys are always u32, as in the kernel
	return &arrayMap{
		spec:           spec,
		region:         k.Mem.Map(spec.ValueSize*spec.MaxEntries, kernel.ProtRW, "map_array:"+spec.Name),
		buggyIndexMath: buggy,
	}
}

// NewBuggyArray creates an array map with the 32-bit index overflow bug,
// for the Table 1 bug corpus. It is registered like any other map.
func NewBuggyArray(k *kernel.Kernel, r *Registry, spec Spec) (Map, uint64) {
	spec.Type = Array
	m := newArray(k, spec, true)
	return m, r.register(spec.Name, m)
}

func (m *arrayMap) Spec() Spec { return m.spec }

func (m *arrayMap) index(key []byte) (uint32, bool) {
	idx := binary.LittleEndian.Uint32(key)
	return idx, int(idx) < m.spec.MaxEntries
}

func (m *arrayMap) Lookup(_ int, key []byte) (uint64, bool) {
	if len(key) != 4 {
		return 0, false
	}
	idx, ok := m.index(key)
	if !ok {
		return 0, false
	}
	if m.buggyIndexMath {
		// 32-bit truncated offset: wraps for idx*value_size >= 2^32.
		off := uint32(idx) * uint32(m.spec.ValueSize)
		return m.region.Base + uint64(off), true
	}
	return m.region.Base + uint64(idx)*uint64(m.spec.ValueSize), true
}

func (m *arrayMap) Update(_ int, key, value []byte, flags uint64) error {
	if err := checkSizes(m.spec, key, value, true); err != nil {
		return err
	}
	if flags == UpdateNoExist {
		return ErrExists // array entries always exist
	}
	if flags != UpdateAny && flags != UpdateExist {
		return ErrBadFlags
	}
	idx, ok := m.index(key)
	if !ok {
		return ErrNotFound
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	copy(m.region.Data[int(idx)*m.spec.ValueSize:], value)
	return nil
}

func (m *arrayMap) Delete([]byte) error { return ErrBadOp }

func (m *arrayMap) Entries() int { return m.spec.MaxEntries }

// perCPUArray gives each simulated CPU its own copy of every element, so
// concurrent extensions never contend: each CPU's slots live in their own
// region and updates take only that CPU's lock.
type perCPUArray struct {
	spec    Spec
	regions []*kernel.Region
	mus     []sync.Mutex // one per CPU; shard workers never share one
}

func newPerCPUArray(k *kernel.Kernel, spec Spec) *perCPUArray {
	spec.KeySize = 4
	m := &perCPUArray{spec: spec}
	for range k.CPUs() {
		m.regions = append(m.regions,
			k.Mem.Map(spec.ValueSize*spec.MaxEntries, kernel.ProtRW, "map_percpu:"+spec.Name))
	}
	m.mus = make([]sync.Mutex, len(m.regions))
	return m
}

func (m *perCPUArray) Spec() Spec { return m.spec }

func (m *perCPUArray) Lookup(cpu int, key []byte) (uint64, bool) {
	if len(key) != 4 || cpu < 0 || cpu >= len(m.regions) {
		return 0, false
	}
	idx := binary.LittleEndian.Uint32(key)
	if int(idx) >= m.spec.MaxEntries {
		return 0, false
	}
	return m.regions[cpu].Base + uint64(idx)*uint64(m.spec.ValueSize), true
}

func (m *perCPUArray) Update(cpu int, key, value []byte, flags uint64) error {
	if err := checkSizes(m.spec, key, value, true); err != nil {
		return err
	}
	if flags == UpdateNoExist {
		return ErrExists
	}
	addr, ok := m.Lookup(cpu, key)
	if !ok {
		return ErrNotFound
	}
	m.mus[cpu].Lock()
	defer m.mus[cpu].Unlock()
	r := m.regions[cpu]
	copy(r.Data[addr-r.Base:], value)
	return nil
}

func (m *perCPUArray) Delete([]byte) error { return ErrBadOp }

func (m *perCPUArray) Entries() int { return m.spec.MaxEntries }

// PerCPUValues decodes the key's slot on every CPU as a little-endian
// integer, for aggregation-on-read.
func (m *perCPUArray) PerCPUValues(key []byte) ([]uint64, bool) {
	if len(key) != 4 {
		return nil, false
	}
	idx := binary.LittleEndian.Uint32(key)
	if int(idx) >= m.spec.MaxEntries {
		return nil, false
	}
	out := make([]uint64, len(m.regions))
	for cpu, r := range m.regions {
		m.mus[cpu].Lock()
		out[cpu] = decodeCell(r.Data[int(idx)*m.spec.ValueSize:], m.spec.ValueSize)
		m.mus[cpu].Unlock()
	}
	return out, true
}

// decodeCell reads a value cell as a little-endian unsigned integer. Cells
// wider than 8 bytes decode their first 8 bytes.
func decodeCell(b []byte, size int) uint64 {
	switch {
	case size >= 8:
		return binary.LittleEndian.Uint64(b)
	case size >= 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case size >= 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case size >= 1:
		return uint64(b[0])
	}
	return 0
}
