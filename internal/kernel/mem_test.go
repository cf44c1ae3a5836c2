package kernel

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"
)

func TestMapAndReadWrite(t *testing.T) {
	as := NewAddressSpace()
	r := as.Map(4096, ProtRW, "test")
	if r.Base < KernelBase {
		t.Fatalf("region base %#x below KernelBase %#x", r.Base, KernelBase)
	}
	want := []byte{1, 2, 3, 4}
	if f := as.Write(r.Base+100, want); f != nil {
		t.Fatalf("write: %v", f)
	}
	got, f := as.Read(r.Base+100, 4)
	if f != nil {
		t.Fatalf("read: %v", f)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %v, want %v", got, want)
	}
}

func TestNullDerefFaults(t *testing.T) {
	as := NewAddressSpace()
	for _, addr := range []uint64{0, 1, 8, 4095, NullGuardSize - 1} {
		if _, f := as.Read(addr, 1); f == nil || f.Cause != "null-deref" {
			t.Errorf("read at %#x: fault = %v, want null-deref", addr, f)
		}
		if f := as.Write(addr, []byte{0}); f == nil || f.Cause != "null-deref" {
			t.Errorf("write at %#x: fault = %v, want null-deref", addr, f)
		}
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	as := NewAddressSpace()
	r := as.Map(128, ProtRW, "a")
	if _, f := as.Read(r.End()+1000, 8); f == nil || f.Cause != "unmapped" {
		t.Fatalf("fault = %v, want unmapped", f)
	}
}

func TestOutOfBoundsStraddleFaults(t *testing.T) {
	as := NewAddressSpace()
	r := as.Map(128, ProtRW, "a")
	// Read starting in-bounds but running past the end must fault.
	if _, f := as.Read(r.Base+120, 16); f == nil || f.Cause != "oob" {
		t.Fatalf("straddling read: fault = %v, want oob", f)
	}
	// The guard gap means the adjacent bytes are unmapped, not silently
	// another region.
	if _, f := as.Read(r.End(), 1); f == nil {
		t.Fatal("read just past end did not fault")
	}
}

func TestProtectionEnforced(t *testing.T) {
	as := NewAddressSpace()
	ro := as.Map(64, ProtRead, "ro")
	if f := as.Write(ro.Base, []byte{1}); f == nil || f.Cause != "prot" {
		t.Fatalf("write to read-only: fault = %v, want prot", f)
	}
	wo := as.Map(64, ProtWrite, "wo")
	if _, f := as.Read(wo.Base, 1); f == nil || f.Cause != "prot" {
		t.Fatalf("read of write-only: fault = %v, want prot", f)
	}
}

func TestProtectionKeys(t *testing.T) {
	as := NewAddressSpace()
	r := as.Map(64, ProtRW, "domain1")
	r.Key = 3
	// All keys active: access works.
	if f := as.Write(r.Base, []byte{1}); f != nil {
		t.Fatalf("write with all keys: %v", f)
	}
	// Only key 0 active: access faults.
	as.ActiveKeys = 1
	if f := as.Write(r.Base, []byte{1}); f == nil || f.Cause != "prot" {
		t.Fatalf("write with key inactive: fault = %v, want prot", f)
	}
	as.ActiveKeys = 1 | 1<<3
	if f := as.Write(r.Base, []byte{1}); f != nil {
		t.Fatalf("write with key 3 active: %v", f)
	}
}

func TestMapAtOverlapRejected(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.MapAt(KernelBase, 4096, ProtRW, "a"); err != nil {
		t.Fatalf("MapAt: %v", err)
	}
	if _, err := as.MapAt(KernelBase+100, 4096, ProtRW, "b"); err == nil {
		t.Fatal("overlapping MapAt succeeded")
	}
	if _, err := as.MapAt(100, 64, ProtRW, "null"); err == nil {
		t.Fatal("MapAt inside NULL guard succeeded")
	}
}

func TestMapAtKeepsLookupWorking(t *testing.T) {
	as := NewAddressSpace()
	hi := as.Map(64, ProtRW, "hi")
	lo, err := as.MapAt(KernelBase-1<<20, 64, ProtRW, "lo")
	if err != nil {
		t.Fatalf("MapAt: %v", err)
	}
	for _, r := range []*Region{hi, lo} {
		if f := as.Write(r.Base, []byte{42}); f != nil {
			t.Errorf("write to %s: %v", r.Name, f)
		}
	}
	// A later Map must not overlap the explicit mapping.
	r2 := as.Map(64, ProtRW, "later")
	if r2.Base < hi.End() {
		t.Fatalf("later Map at %#x overlaps hi ending %#x", r2.Base, hi.End())
	}
}

func TestUnmapMakesAccessFault(t *testing.T) {
	as := NewAddressSpace()
	r := as.Map(64, ProtRW, "uaf")
	addr := r.Base
	as.Unmap(r)
	if _, f := as.Read(addr, 1); f == nil || f.Cause != "unmapped" {
		t.Fatalf("use-after-unmap: fault = %v, want unmapped", f)
	}
}

func TestLoadStoreUintSizes(t *testing.T) {
	as := NewAddressSpace()
	r := as.Map(64, ProtRW, "ints")
	for _, size := range []int{1, 2, 4, 8} {
		want := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		if size == 8 {
			want = 0x1122334455667788
		}
		if f := as.StoreUint(r.Base, size, 0x1122334455667788); f != nil {
			t.Fatalf("store size %d: %v", size, f)
		}
		got, f := as.LoadUint(r.Base, size)
		if f != nil {
			t.Fatalf("load size %d: %v", size, f)
		}
		if got != want {
			t.Errorf("size %d: got %#x, want %#x", size, got, want)
		}
	}
}

func TestCString(t *testing.T) {
	as := NewAddressSpace()
	r := as.Map(64, ProtRW, "str")
	copy(r.Data, "hello\x00world")
	s, f := as.CString(r.Base, 64)
	if f != nil || s != "hello" {
		t.Fatalf("CString = %q, %v; want hello", s, f)
	}
	// Unterminated string capped at max.
	copy(r.Data, bytes.Repeat([]byte{'x'}, 64))
	s, f = as.CString(r.Base, 8)
	if f != nil || s != "xxxxxxxx" {
		t.Fatalf("capped CString = %q, %v", s, f)
	}
}

// Property: for any region and any in-bounds offset/length, a write
// followed by a read returns the written bytes; any access crossing the end
// faults.
func TestReadWriteRoundTripProperty(t *testing.T) {
	as := NewAddressSpace()
	r := as.Map(1024, ProtRW, "prop")
	f := func(off uint16, data []byte) bool {
		o := uint64(off) % 1024
		if len(data) > 64 {
			data = data[:64]
		}
		fault := as.Write(r.Base+o, data)
		inBounds := o+uint64(len(data)) <= 1024
		if inBounds != (fault == nil) {
			return false
		}
		if !inBounds {
			return true
		}
		got, rf := as.Read(r.Base+o, uint64(len(data)))
		return rf == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSurvivesInPlaceMap checks that Map's in-place append never
// shows a new region to a snapshot taken before it.
func TestSnapshotSurvivesInPlaceMap(t *testing.T) {
	as := NewAddressSpace()
	var old []*Region
	for i := 0; i < 10; i++ {
		old = append(old, as.Map(16, ProtRW, "old"))
	}
	snap := as.regions.Load()
	var added []*Region
	for i := 0; i < 1000; i++ {
		added = append(added, as.Map(16, ProtRW, "new"))
	}
	for _, r := range old {
		if got := snap.locate(r.Base + 3); got != r {
			t.Fatalf("old snapshot locates %v for its own region %q", got, r.Name)
		}
	}
	for _, r := range added {
		if got := snap.locate(r.Base); got != nil {
			t.Fatalf("old snapshot sees region %#x mapped after it", r.Base)
		}
		if got := as.locate(r.Base + 15); got != r {
			t.Fatalf("current snapshot misses region %#x", r.Base)
		}
	}
}

// TestRegionsIsCapacityClipped checks that appending to Regions' result
// cannot write into the backing array later mappings share.
func TestRegionsIsCapacityClipped(t *testing.T) {
	as := NewAddressSpace()
	for i := 0; i < 5; i++ {
		as.Map(8, ProtRW, "r")
	}
	regs := as.Regions()
	if cap(regs) != len(regs) {
		t.Fatalf("Regions cap = %d, len = %d", cap(regs), len(regs))
	}
	bogus := &Region{Base: KernelBase - 1<<20, Data: make([]byte, 8), Name: "bogus"}
	_ = append(regs, bogus)
	next := as.Map(8, ProtRW, "next")
	now := as.Regions()
	if now[len(now)-1] != next || as.locate(next.Base) != next {
		t.Fatalf("a caller's append leaked into the address space: %v", now[len(now)-1].Name)
	}
}

// TestUnmapStillFaults keeps use-after-free detection: an access to an
// unmapped region faults as unmapped.
func TestUnmapStillFaults(t *testing.T) {
	as := NewAddressSpace()
	a := as.Map(8, ProtRW, "a")
	b := as.Map(8, ProtRW, "b")
	as.Unmap(a)
	if _, f := as.LoadUint(a.Base, 8); f == nil || f.Cause != "unmapped" {
		t.Fatalf("access after Unmap = %v, want an unmapped fault", f)
	}
	if _, f := as.LoadUint(b.Base, 8); f != nil {
		t.Fatalf("neighbour faulted after Unmap: %v", f)
	}
	c := as.Map(8, ProtRW, "c")
	if _, f := as.LoadUint(c.Base, 8); f != nil {
		t.Fatalf("Map after Unmap faulted: %v", f)
	}
}

// TestMapIsLinear bounds what filling the address space allocates: 20k
// small mappings stay under 64 MB in total, where copying the region list
// on every Map allocates gigabytes.
func TestMapIsLinear(t *testing.T) {
	as := NewAddressSpace()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20_000; i++ {
		as.Map(8, ProtRW, "small")
	}
	runtime.ReadMemStats(&after)
	if total := after.TotalAlloc - before.TotalAlloc; total >= 64<<20 {
		t.Fatalf("20k Maps allocated %d MB, want < 64 MB", total>>20)
	}
}
