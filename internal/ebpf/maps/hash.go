package maps

import (
	"sync"

	"kex/internal/kernel"
)

// hashMap is the BPF_MAP_TYPE_HASH / BPF_MAP_TYPE_LRU_HASH analogue. Each
// entry's value lives in its own kernel region, allocated on insert and
// unmapped on delete — so a program holding a pointer to a deleted value
// faults on its next access, the simulator's use-after-free. Lookups of a
// plain hash map walk the index without a lock; an LRU lookup reorders the
// recency list, so it takes the mutex like every writer.
type hashMap struct {
	k     *kernel.Kernel
	spec  Spec
	lru   bool
	index hashIndex

	mu sync.Mutex
	// oldest and newest end the recency list of an LRU map, under mu.
	oldest, newest *hashNode
}

func newHash(k *kernel.Kernel, spec Spec, lru bool) *hashMap {
	return &hashMap{k: k, spec: spec, lru: lru, index: newHashIndex(spec.KeySize, spec.MaxEntries)}
}

func (m *hashMap) Spec() Spec { return m.spec }

// unlinkLRU takes n out of the recency list.
func (m *hashMap) unlinkLRU(n *hashNode) {
	if n.older != nil {
		n.older.newer = n.newer
	} else {
		m.oldest = n.newer
	}
	if n.newer != nil {
		n.newer.older = n.older
	} else {
		m.newest = n.older
	}
	n.older, n.newer = nil, nil
}

// pushLRU makes n the most recently used entry.
func (m *hashMap) pushLRU(n *hashNode) {
	n.older = m.newest
	if m.newest != nil {
		m.newest.newer = n
	} else {
		m.oldest = n
	}
	m.newest = n
}

func (m *hashMap) touch(n *hashNode) {
	if !m.lru || n == m.newest {
		return
	}
	m.unlinkLRU(n)
	m.pushLRU(n)
}

// remove unmaps n's value and drops n from the map. Caller holds mu.
func (m *hashMap) remove(n *hashNode) {
	m.k.Mem.Unmap(n.region)
	m.index.remove(n)
	if m.lru {
		m.unlinkLRU(n)
	}
}

func (m *hashMap) Lookup(_ int, key []byte) (uint64, bool) {
	if len(key) != m.spec.KeySize {
		return 0, false
	}
	if !m.lru {
		n := m.index.find(key)
		if n == nil {
			return 0, false
		}
		return n.region.Base, true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.index.find(key)
	if n == nil {
		return 0, false
	}
	m.touch(n)
	return n.region.Base, true
}

func (m *hashMap) Update(_ int, key, value []byte, flags uint64) error {
	if err := checkSizes(m.spec, key, value, true); err != nil {
		return err
	}
	if flags > UpdateExist {
		return ErrBadFlags
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := m.index.find(key); n != nil {
		if flags == UpdateNoExist {
			return ErrExists
		}
		copy(n.region.Data, value)
		m.touch(n)
		return nil
	}
	if flags == UpdateExist {
		return ErrNotFound
	}
	if m.index.n >= m.spec.MaxEntries {
		if !m.lru {
			return ErrNoSpace
		}
		// LRU eviction: drop the least recently used entry.
		m.remove(m.oldest)
	}
	r := m.k.Mem.Map(m.spec.ValueSize, kernel.ProtRW, "map_hash_val:"+m.spec.Name)
	copy(r.Data, value)
	n := m.index.insert(key, r)
	if m.lru {
		m.pushLRU(n)
	}
	return nil
}

func (m *hashMap) Delete(key []byte) error {
	if len(key) != m.spec.KeySize {
		return ErrKeySize
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.index.find(key)
	if n == nil {
		return ErrNotFound
	}
	m.remove(n)
	return nil
}

func (m *hashMap) Entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.index.n
}

// Keys returns a snapshot of the current keys, for iteration helpers and
// userspace-style inspection in examples.
func (m *hashMap) Keys() [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.index.keys()
}

// KeyedMap is implemented by map types whose keys can be enumerated.
type KeyedMap interface {
	Map
	Keys() [][]byte
}
