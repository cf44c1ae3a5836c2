// Package maps implements the eBPF map types the extension programs and
// helper functions operate on: array, hash, per-CPU array, per-CPU hash,
// LRU hash, and a ring buffer. Map value storage lives in the simulated
// kernel address space, so programs hold real (simulated) kernel pointers
// into map values — which is exactly what makes stale map pointers
// dangerous and gives the verifier something to track.
package maps

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kex/internal/kernel"
)

// MapType enumerates the supported map types.
type MapType int

const (
	Array MapType = iota
	Hash
	PerCPUArray
	LRUHash
	RingBuf
	Queue
	PerCPUHash
)

func (t MapType) String() string {
	switch t {
	case Array:
		return "array"
	case Hash:
		return "hash"
	case PerCPUArray:
		return "percpu_array"
	case LRUHash:
		return "lru_hash"
	case RingBuf:
		return "ringbuf"
	case Queue:
		return "queue"
	case PerCPUHash:
		return "percpu_hash"
	}
	return fmt.Sprintf("maptype(%d)", int(t))
}

// Update flags, matching the kernel's BPF_ANY/BPF_NOEXIST/BPF_EXIST.
const (
	UpdateAny     uint64 = 0
	UpdateNoExist uint64 = 1
	UpdateExist   uint64 = 2
)

// Errors returned by map operations.
var (
	ErrKeySize   = errors.New("maps: key size mismatch")
	ErrValueSize = errors.New("maps: value size mismatch")
	ErrNoSpace   = errors.New("maps: map is full")
	ErrNotFound  = errors.New("maps: key not found")
	ErrExists    = errors.New("maps: key already exists")
	ErrBadFlags  = errors.New("maps: invalid update flags")
	ErrBadOp     = errors.New("maps: operation not supported by map type")
	// ErrTooBig is Linux's E2BIG at map creation: a key, a value or the
	// storage the map preallocates is larger than the kernel admits.
	ErrTooBig = errors.New("maps: map too big")
)

// Size caps at map creation, after Linux's E2BIG checks. A key is at most
// MAX_BPF_STACK bytes and a value at most KMALLOC_MAX_SIZE
// (htab_map_alloc_check, array_map_alloc_check). A map that preallocates
// its storage (array, per-CPU array with one copy per CPU, ring buffer)
// asks for at most maxMapBytes in all; the largest the repo creates, the
// 4 GiB array of the array-index overflow reproduction, fits. Hash maps
// allocate per entry, so their entry count is not capped.
const (
	maxKeySize   = 512
	maxValueSize = 1 << 22
	maxMapBytes  = 1 << 33
)

// Spec declares a map to be created.
type Spec struct {
	Name       string
	Type       MapType
	KeySize    int
	ValueSize  int
	MaxEntries int

	// HasLock marks value layouts whose first 8 bytes hold a bpf_spin_lock
	// header. The verifier fences direct access to that region and
	// bpf_spin_lock requires it.
	HasLock bool
}

// Map is the interface all map types implement. Lookup returns the
// simulated kernel address of the value so programs can read and write it
// in place, per the eBPF contract.
type Map interface {
	Spec() Spec
	// Lookup returns the address of the value for key on the given CPU
	// (the CPU only matters for per-CPU maps). ok is false on miss.
	Lookup(cpu int, key []byte) (addr uint64, ok bool)
	// Update inserts or replaces the value for key.
	Update(cpu int, key, value []byte, flags uint64) error
	// Delete removes key.
	Delete(key []byte) error
	// Entries returns the number of live entries.
	Entries() int
}

// BatchMap is implemented by map types that support batched lookup and
// update, the simulator's analogue of BPF_MAP_LOOKUP_BATCH /
// BPF_MAP_UPDATE_BATCH. Batching amortizes per-op overhead (lock
// round-trips, fault-hook consultation) across a whole submission ring's
// worth of keys. Unlike the enumeration interfaces (KeyedMap, RingMap,
// QueueMap), BatchMap IS forwarded by the fault-injection wrapper, so
// campaigns see every batched element.
type BatchMap interface {
	Map
	// LookupBatch resolves many keys at once. addrs[i] is the value
	// address for keys[i]; hits[i] is false on miss (addrs[i] is then 0).
	LookupBatch(cpu int, keys [][]byte) (addrs []uint64, hits []bool)
	// UpdateBatch applies Update for each key/value pair, stopping at the
	// first error. It returns how many updates were applied.
	UpdateBatch(cpu int, keys, values [][]byte, flags uint64) (int, error)
}

// PerCPUMap is implemented by the per-CPU map variants. PerCPUValues
// returns the value cell of every CPU for a key, decoded as little-endian
// integers of the map's value size, for aggregation-on-read — the
// userspace-side sum a real bpf_map_lookup_elem performs on per-CPU maps.
// The fault-injection wrapper forwards this interface, so per-CPU maps
// stay fully usable during X3-style fault campaigns without unwrapping.
type PerCPUMap interface {
	Map
	PerCPUValues(key []byte) ([]uint64, bool)
}

// registryView is the immutable lookup state of a Registry. Every mutation
// builds a fresh view and publishes it atomically, so the hot resolution
// path — ByHandle on every map helper call — is a lock-free pointer load
// instead of a mutex round-trip serialising all shard workers.
type registryView struct {
	byID   map[uint64]Map
	byName map[string]Map
	fault  FaultHook
}

// Registry hands out map handles: opaque 64-bit values that LDDW
// instructions carry after relocation and helpers resolve back to maps.
// Handles point into an unmapped carve-out of the address space, so a
// program that dereferences a map handle directly faults rather than reads
// kernel memory.
type Registry struct {
	view atomic.Pointer[registryView]
	wmu  sync.Mutex // serialises Create/register/SetFaultHook
	next uint64     // next handle, under wmu
}

// FaultHook is the fault-injection seam of the map layer. MapAlloc is
// consulted before a map is created; a non-nil error fails the creation.
// MapUpdate is consulted before every Update on a registered map; a non-nil
// error is returned in place of performing the update. Injected update
// errors must be the package's own sentinels (typically ErrNoSpace) so the
// helper layer's errno translation recognises them.
type FaultHook interface {
	MapAlloc(name string) error
	MapUpdate(name string) error
}

// SetFaultHook installs (or, with nil, removes) the registry's fault hook.
// Already-registered maps are re-wrapped in place, so a campaign can attach
// to a stack whose maps exist and detach without leaving wrappers behind.
func (r *Registry) SetFaultHook(h FaultHook) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	old := r.view.Load()
	fresh := &registryView{
		byID:   make(map[uint64]Map, len(old.byID)),
		byName: make(map[string]Map, len(old.byName)),
		fault:  h,
	}
	for handle, m := range old.byID {
		fresh.byID[handle] = wrap(Unwrap(m), h)
	}
	for name, m := range old.byName {
		fresh.byName[name] = wrap(Unwrap(m), h)
	}
	r.view.Store(fresh)
}

func wrap(m Map, hook FaultHook) Map {
	if hook == nil {
		return m
	}
	return &faultMap{inner: m, hook: hook}
}

// faultMap intercepts Update (and the batched ops) with the registry's
// fault hook and forwards everything else. It forwards the BatchMap and
// PerCPUMap interfaces so the per-CPU variants keep their extended surface
// under a fault campaign; the enumeration interfaces (RingMap, KeyedMap,
// QueueMap) must still go through Unwrap.
type faultMap struct {
	inner Map
	hook  FaultHook
}

func (f *faultMap) Spec() Spec { return f.inner.Spec() }
func (f *faultMap) Lookup(cpu int, key []byte) (uint64, bool) {
	return f.inner.Lookup(cpu, key)
}
func (f *faultMap) Update(cpu int, key, value []byte, flags uint64) error {
	if err := f.hook.MapUpdate(f.inner.Spec().Name); err != nil {
		return err
	}
	return f.inner.Update(cpu, key, value, flags)
}
func (f *faultMap) Delete(key []byte) error { return f.inner.Delete(key) }
func (f *faultMap) Entries() int            { return f.inner.Entries() }

// LookupBatch forwards to the inner map's batched lookup, or falls back to
// element-wise lookups when the inner type has no batch support.
func (f *faultMap) LookupBatch(cpu int, keys [][]byte) ([]uint64, []bool) {
	if bm, ok := f.inner.(BatchMap); ok {
		return bm.LookupBatch(cpu, keys)
	}
	return lookupBatchSlow(f.inner, cpu, keys)
}

// UpdateBatch consults the fault hook once per element — a campaign sees
// batched updates exactly as it would see the equivalent single ops — then
// delegates the admitted prefix to the inner map's batched path, so the
// single-lock-acquisition semantics of a native BatchMap (e.g.
// perCPUArray's whole-batch lock) survive the wrapper.
func (f *faultMap) UpdateBatch(cpu int, keys, values [][]byte, flags uint64) (int, error) {
	name := f.inner.Spec().Name
	n, hookErr := len(keys), error(nil)
	for i := range keys {
		if err := f.hook.MapUpdate(name); err != nil {
			n, hookErr = i, err
			break
		}
	}
	var applied int
	var err error
	if bm, ok := f.inner.(BatchMap); ok {
		applied, err = bm.UpdateBatch(cpu, keys[:n], values[:n], flags)
	} else {
		applied, err = updateBatchSlow(f.inner, cpu, keys[:n], values[:n], flags)
	}
	if err != nil {
		return applied, err
	}
	return applied, hookErr
}

// PerCPUValues forwards to the inner per-CPU map; ok is false when the
// wrapped map is not per-CPU.
func (f *faultMap) PerCPUValues(key []byte) ([]uint64, bool) {
	if pm, ok := f.inner.(PerCPUMap); ok {
		return pm.PerCPUValues(key)
	}
	return nil, false
}

// lookupBatchSlow is the element-wise fallback shared by map types without
// a native batched path.
func lookupBatchSlow(m Map, cpu int, keys [][]byte) ([]uint64, []bool) {
	addrs := make([]uint64, len(keys))
	hits := make([]bool, len(keys))
	for i, k := range keys {
		addrs[i], hits[i] = m.Lookup(cpu, k)
	}
	return addrs, hits
}

// updateBatchSlow is the element-wise fallback for UpdateBatch.
func updateBatchSlow(m Map, cpu int, keys, values [][]byte, flags uint64) (int, error) {
	for i := range keys {
		if err := m.Update(cpu, keys[i], values[i], flags); err != nil {
			return i, err
		}
	}
	return len(keys), nil
}

// Unwrap strips fault-injection wrappers, however nested. Callers that
// assert a map to one of the enumeration interfaces (RingMap, KeyedMap,
// QueueMap) must unwrap first — the wrapper only carries the base Map,
// BatchMap and PerCPUMap surfaces.
func Unwrap(m Map) Map {
	for {
		f, ok := m.(*faultMap)
		if !ok {
			return m
		}
		m = f.inner
	}
}

// HandleBase is the start of the map-handle carve-out.
const HandleBase uint64 = 0xffff_c000_0000_0000

// NewRegistry returns an empty map registry.
func NewRegistry() *Registry {
	r := &Registry{next: HandleBase}
	r.view.Store(&registryView{byID: make(map[uint64]Map), byName: make(map[string]Map)})
	return r
}

// Create builds a map from its spec and registers it.
func (r *Registry) Create(k *kernel.Kernel, spec Spec) (Map, uint64, error) {
	if hook := r.view.Load().fault; hook != nil {
		if err := hook.MapAlloc(spec.Name); err != nil {
			return nil, 0, fmt.Errorf("maps: %q: allocation failed: %w", spec.Name, err)
		}
	}
	if spec.KeySize <= 0 && spec.Type != RingBuf && spec.Type != Queue {
		return nil, 0, fmt.Errorf("maps: %q: key size %d invalid", spec.Name, spec.KeySize)
	}
	if spec.ValueSize <= 0 && spec.Type != RingBuf {
		return nil, 0, fmt.Errorf("maps: %q: value size %d invalid", spec.Name, spec.ValueSize)
	}
	if spec.MaxEntries <= 0 {
		return nil, 0, fmt.Errorf("maps: %q: max entries %d invalid", spec.Name, spec.MaxEntries)
	}
	if err := checkSize(k, spec); err != nil {
		return nil, 0, err
	}
	var m Map
	switch spec.Type {
	case Array:
		m = newArray(k, spec, false)
	case Hash:
		m = newHash(k, spec, false)
	case PerCPUArray:
		m = newPerCPUArray(k, spec)
	case LRUHash:
		m = newHash(k, spec, true)
	case RingBuf:
		m = newRingBuf(k, spec)
	case Queue:
		m = newQueue(k, spec)
	case PerCPUHash:
		m = newPerCPUHash(k, spec)
	default:
		return nil, 0, fmt.Errorf("maps: unknown map type %v", spec.Type)
	}
	handle := r.register(spec.Name, m)
	return m, handle, nil
}

// checkSize refuses a spec past the size caps before anything is
// allocated. The preallocation bound divides instead of multiplying, so a
// product that would overflow int is refused too.
func checkSize(k *kernel.Kernel, spec Spec) error {
	if spec.KeySize > maxKeySize {
		return fmt.Errorf("maps: %q: key size %d exceeds %d: %w", spec.Name, spec.KeySize, maxKeySize, ErrTooBig)
	}
	if spec.ValueSize > maxValueSize {
		return fmt.Errorf("maps: %q: value size %d exceeds %d: %w", spec.Name, spec.ValueSize, maxValueSize, ErrTooBig)
	}
	elem := spec.ValueSize
	switch spec.Type {
	case Array:
	case PerCPUArray:
		elem *= max(len(k.CPUs()), 1)
	case RingBuf:
		elem = 1
	default:
		return nil
	}
	if spec.MaxEntries > maxMapBytes/elem {
		return fmt.Errorf("maps: %q: %d entries of %d bytes exceed %d bytes: %w", spec.Name, spec.MaxEntries, elem, maxMapBytes, ErrTooBig)
	}
	return nil
}

func (r *Registry) register(name string, m Map) uint64 {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	old := r.view.Load()
	m = wrap(m, old.fault)
	h := r.next
	r.next += 8
	fresh := &registryView{
		byID:   make(map[uint64]Map, len(old.byID)+1),
		byName: make(map[string]Map, len(old.byName)+1),
		fault:  old.fault,
	}
	for k, v := range old.byID {
		fresh.byID[k] = v
	}
	for k, v := range old.byName {
		fresh.byName[k] = v
	}
	fresh.byID[h] = m
	if name != "" {
		fresh.byName[name] = m
	}
	r.view.Store(fresh)
	return h
}

// ByHandle resolves a handle to its map. This is the hot path of every
// map helper call; it reads the current registry view without locking.
func (r *Registry) ByHandle(h uint64) (Map, bool) {
	m, ok := r.view.Load().byID[h]
	return m, ok
}

// ByName resolves a map name, for loader relocation.
func (r *Registry) ByName(name string) (Map, bool) {
	m, ok := r.view.Load().byName[name]
	return m, ok
}

// Handle returns the handle of a registered map. The comparison sees
// through fault-injection wrappers on either side, so handles stay stable
// across SetFaultHook.
func (r *Registry) Handle(m Map) (uint64, bool) {
	want := Unwrap(m)
	for h, got := range r.view.Load().byID {
		if Unwrap(got) == want {
			return h, true
		}
	}
	return 0, false
}

// IsHandle reports whether an address lies in the handle carve-out —
// useful to diagnose programs dereferencing map handles.
func IsHandle(addr uint64) bool { return addr >= HandleBase }

func checkSizes(spec Spec, key, value []byte, wantValue bool) error {
	if len(key) != spec.KeySize {
		return ErrKeySize
	}
	if wantValue && len(value) != spec.ValueSize {
		return ErrValueSize
	}
	return nil
}
