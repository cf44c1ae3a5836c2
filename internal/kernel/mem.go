package kernel

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Prot describes the access permissions of a mapped region.
type Prot uint8

const (
	ProtRead  Prot = 1 << iota // region may be read
	ProtWrite                  // region may be written
	ProtExec                   // region may be executed (metadata only)
)

// ProtRW is the common read-write permission set.
const ProtRW = ProtRead | ProtWrite

func (p Prot) String() string {
	s := [3]byte{'-', '-', '-'}
	if p&ProtRead != 0 {
		s[0] = 'r'
	}
	if p&ProtWrite != 0 {
		s[1] = 'w'
	}
	if p&ProtExec != 0 {
		s[2] = 'x'
	}
	return string(s[:])
}

// Well-known carve-outs of the simulated address space. The layout mimics a
// 64-bit kernel: the low canonical region is deliberately left unmapped so
// that NULL-page and small-offset dereferences fault, and kernel objects
// live in the high half.
const (
	// KernelBase is the lowest address handed out for kernel allocations.
	KernelBase uint64 = 0xffff_8800_0000_0000
	// NullGuardSize is the size of the permanently-unmapped low region.
	NullGuardSize uint64 = 1 << 20
)

// Region is a contiguous mapped range of the simulated address space.
type Region struct {
	Base uint64
	Data []byte
	Prot Prot
	Name string // diagnostic label, e.g. "stack:pid=12" or "map_value:3"

	// Key is the protection-domain key the region belongs to; 0 means the
	// default kernel domain. See mm.DomainSet for the MPK-style analogue.
	Key uint8
}

// End returns one past the last mapped byte of the region.
func (r *Region) End() uint64 { return r.Base + uint64(len(r.Data)) }

// Contains reports whether [addr, addr+size) lies inside the region.
func (r *Region) Contains(addr, size uint64) bool {
	return addr >= r.Base && size <= uint64(len(r.Data)) && addr-r.Base <= uint64(len(r.Data))-size
}

// Fault describes an invalid access to the simulated address space. It is
// the simulator's page-fault analogue; the kernel turns unhandled faults
// into an Oops.
type Fault struct {
	Addr  uint64
	Size  uint64
	Write bool
	Cause string // "unmapped", "null-deref", "prot", "oob"
}

func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("page fault: invalid %s of %d bytes at %#x (%s)", kind, f.Size, f.Addr, f.Cause)
}

// AddressSpace is the simulated kernel virtual address space: a sparse set
// of mapped regions ordered by base address. Mapping operations are
// serialised on an internal lock (the simulator's mmap_lock), while the
// access paths — locate, check, the Load/Store family — read an immutable
// snapshot of the region list and take no lock at all. That is what lets
// per-CPU shard workers translate addresses concurrently without the
// address space becoming the data plane's serialization point.
type AddressSpace struct {
	// regions points at the current snapshot. Mutators publish a new
	// snapshot here under wmu; readers load whatever snapshot is current,
	// exactly like RCU-protected VMA walks against a held-off unmap.
	regions atomic.Pointer[regionSet]
	wmu     sync.Mutex // serialises Map/MapAt/Unmap and guards next
	next    uint64     // next allocation cursor

	// ActiveKeys is the set of protection-domain keys the current execution
	// context may touch. Bit i set means key i is accessible. The default
	// (all bits set) models a kernel without protection keys.
	ActiveKeys uint64
}

// regionSet is one snapshot of the mapped regions, sorted by base address
// and non-overlapping. ends[i] is regs[i].End(), kept in its own array so
// that a lookup binary-searches contiguous integers. A snapshot's own
// elements never change once published: Map appends past the end of the
// shared backing arrays, which older snapshots cannot see, and Unmap and
// MapAt build fresh arrays.
type regionSet struct {
	regs []*Region
	ends []uint64
}

// NewAddressSpace returns an empty address space whose allocator starts at
// KernelBase and which permits every protection key.
func NewAddressSpace() *AddressSpace {
	as := &AddressSpace{next: KernelBase, ActiveKeys: ^uint64(0)}
	as.regions.Store(&regionSet{})
	return as
}

// locate returns the region containing addr, or nil.
func (as *AddressSpace) locate(addr uint64) *Region { return as.regions.Load().locate(addr) }

// locate returns the snapshot's region containing addr, or nil.
func (set *regionSet) locate(addr uint64) *Region {
	ends := set.ends
	// Binary search for the first region ending past addr.
	lo, hi := 0, len(ends)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ends[mid] <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ends) {
		if r := set.regs[lo]; r.Base <= addr {
			return r
		}
	}
	return nil
}

// Map inserts a region of the given size at an allocator-chosen address and
// returns it. Size must be positive.
func (as *AddressSpace) Map(size int, prot Prot, name string) *Region {
	if size <= 0 {
		panic(fmt.Sprintf("kernel: Map with non-positive size %d", size))
	}
	as.wmu.Lock()
	defer as.wmu.Unlock()
	r := &Region{Base: as.next, Data: make([]byte, size), Prot: prot, Name: name}
	// Leave an unmapped guard gap between regions so adjacent overruns fault.
	as.next += uint64(size) + 4096
	// next is monotonic, so appending keeps the sort. Appending in place
	// is amortised O(1): the published snapshot's length does not cover
	// the new slot, so no reader can observe the write.
	old := as.regions.Load()
	as.regions.Store(&regionSet{regs: append(old.regs, r), ends: append(old.ends, r.End())})
	return r
}

// MapAt inserts a region at a caller-chosen base address. It returns an
// error if the range overlaps an existing mapping or the NULL guard.
func (as *AddressSpace) MapAt(base uint64, size int, prot Prot, name string) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("kernel: MapAt with non-positive size %d", size)
	}
	if base < NullGuardSize {
		return nil, fmt.Errorf("kernel: MapAt %#x overlaps NULL guard", base)
	}
	as.wmu.Lock()
	defer as.wmu.Unlock()
	end := base + uint64(size)
	old := as.regions.Load()
	for _, r := range old.regs {
		if base < r.End() && r.Base < end {
			return nil, fmt.Errorf("kernel: MapAt [%#x,%#x) overlaps %s", base, end, r.Name)
		}
	}
	r := &Region{Base: base, Data: make([]byte, size), Prot: prot, Name: name}
	i := sort.Search(len(old.regs), func(i int) bool { return old.regs[i].Base > base })
	fresh := make([]*Region, 0, len(old.regs)+1)
	fresh = append(fresh, old.regs[:i]...)
	fresh = append(fresh, r)
	fresh = append(fresh, old.regs[i:]...)
	if end+4096 > as.next {
		as.next = end + 4096
	}
	as.regions.Store(newRegionSet(fresh))
	return r, nil
}

// Unmap removes a region. Subsequent accesses to its range fault, which is
// how use-after-free bugs manifest in the simulator. An access racing the
// unmap may still see the old snapshot and succeed — the same grace-period
// window a real kernel's RCU-delayed teardown leaves open.
func (as *AddressSpace) Unmap(r *Region) {
	as.wmu.Lock()
	defer as.wmu.Unlock()
	old := as.regions.Load()
	for i, got := range old.regs {
		if got == r {
			fresh := make([]*Region, 0, len(old.regs)-1)
			fresh = append(fresh, old.regs[:i]...)
			fresh = append(fresh, old.regs[i+1:]...)
			as.regions.Store(newRegionSet(fresh))
			return
		}
	}
	panic(fmt.Sprintf("kernel: Unmap of unknown region %q", r.Name))
}

// newRegionSet builds a snapshot over freshly allocated sorted regions.
func newRegionSet(regs []*Region) *regionSet {
	ends := make([]uint64, len(regs))
	for i, r := range regs {
		ends[i] = r.End()
	}
	return &regionSet{regs: regs, ends: ends}
}

// keyOK reports whether the region's protection key is currently active.
func (as *AddressSpace) keyOK(r *Region) bool {
	return as.ActiveKeys&(1<<r.Key) != 0
}

// check validates an access and returns the region and intra-region offset.
func (as *AddressSpace) check(addr, size uint64, write bool) (*Region, uint64, *Fault) {
	if addr < NullGuardSize {
		return nil, 0, &Fault{Addr: addr, Size: size, Write: write, Cause: "null-deref"}
	}
	r := as.locate(addr)
	if r == nil {
		return nil, 0, &Fault{Addr: addr, Size: size, Write: write, Cause: "unmapped"}
	}
	if !r.Contains(addr, size) {
		return nil, 0, &Fault{Addr: addr, Size: size, Write: write, Cause: "oob"}
	}
	if write && r.Prot&ProtWrite == 0 || !write && r.Prot&ProtRead == 0 || !as.keyOK(r) {
		return nil, 0, &Fault{Addr: addr, Size: size, Write: write, Cause: "prot"}
	}
	return r, addr - r.Base, nil
}

// Read copies size bytes at addr into a fresh slice, or returns a Fault.
func (as *AddressSpace) Read(addr, size uint64) ([]byte, *Fault) {
	out := make([]byte, size)
	if f := as.ReadInto(addr, out); f != nil {
		return nil, f
	}
	return out, nil
}

// ReadInto copies len(dst) bytes at addr into dst, or returns a Fault.
func (as *AddressSpace) ReadInto(addr uint64, dst []byte) *Fault {
	size := uint64(len(dst))
	r, off, f := as.check(addr, size, false)
	if f != nil {
		return f
	}
	copy(dst, r.Data[off:off+size])
	return nil
}

// Write stores the given bytes at addr, or returns a Fault.
func (as *AddressSpace) Write(addr uint64, data []byte) *Fault {
	r, off, f := as.check(addr, uint64(len(data)), true)
	if f != nil {
		return f
	}
	copy(r.Data[off:], data)
	return nil
}

// LoadUint reads a little-endian unsigned integer of 1, 2, 4 or 8 bytes.
func (as *AddressSpace) LoadUint(addr uint64, size int) (uint64, *Fault) {
	r, off, f := as.check(addr, uint64(size), false)
	if f != nil {
		return 0, f
	}
	b := r.Data[off:]
	switch size {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), nil
	case 8:
		return binary.LittleEndian.Uint64(b), nil
	}
	panic(fmt.Sprintf("kernel: LoadUint with invalid size %d", size))
}

// StoreUint writes a little-endian unsigned integer of 1, 2, 4 or 8 bytes.
func (as *AddressSpace) StoreUint(addr uint64, size int, v uint64) *Fault {
	r, off, f := as.check(addr, uint64(size), true)
	if f != nil {
		return f
	}
	b := r.Data[off:]
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		panic(fmt.Sprintf("kernel: StoreUint with invalid size %d", size))
	}
	return nil
}

// CString reads a NUL-terminated string of at most max bytes starting at
// addr. It faults if the string runs off the end of its region unterminated.
func (as *AddressSpace) CString(addr uint64, max int) (string, *Fault) {
	for n := 0; n < max; n++ {
		v, f := as.LoadUint(addr+uint64(n), 1)
		if f != nil {
			return "", f
		}
		if v == 0 {
			b, f := as.Read(addr, uint64(n))
			if f != nil {
				return "", f
			}
			return string(b), nil
		}
	}
	b, f := as.Read(addr, uint64(max))
	if f != nil {
		return "", f
	}
	return string(b), nil
}

// Regions returns the current mappings in address order. The returned slice
// is an immutable snapshot; callers must not mutate it. Its capacity is
// clipped to its length, so appending to it copies instead of writing into
// the backing array later mappings share.
func (as *AddressSpace) Regions() []*Region {
	regs := as.regions.Load().regs
	return regs[:len(regs):len(regs)]
}
