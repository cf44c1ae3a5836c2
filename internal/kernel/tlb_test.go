package kernel

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"kex/internal/rng"
)

// tlbChecker runs every access of one seeded history twice, through a TLB
// and through the path without one, and fails on any difference.
type tlbChecker struct {
	t    *testing.T
	seed uint64
	as   *AddressSpace
	tlb  *tlb
	rng  rng.Star

	live  []*Region
	freed []*Region // unmapped regions, whose addresses must fault

	// Coverage of the cases the history must reach.
	hits, stale, unmapped, oob, nullDeref, sharedPage, aliased int
}

func (c *tlbChecker) intn(n int) int { return int(c.rng.Next() % uint64(n)) }

func (c *tlbChecker) fail(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("seed %d: %s", c.seed, fmt.Sprintf(format, args...))
}

// mapAt maps size bytes at base, if free, keeping count of pages shared
// with a neighbour. It reports whether it mapped.
func (c *tlbChecker) mapAt(base uint64, size int, name string) bool {
	r, err := c.as.MapAt(base, size, ProtRW, name)
	if err != nil {
		return false
	}
	for _, o := range c.live {
		if o.End() <= r.Base && (o.End()-1)>>pageShift == r.Base>>pageShift ||
			r.End() <= o.Base && (r.End()-1)>>pageShift == o.Base>>pageShift {
			c.sharedPage++
			break
		}
	}
	c.live = append(c.live, r)
	return true
}

// mutate changes the address space, a region's protection or the active
// keys.
func (c *tlbChecker) mutate() {
	switch c.intn(6) {
	case 0:
		c.live = append(c.live, c.as.Map(1+c.intn(9000), ProtRW, "map"))
	case 1:
		// A small region a few bytes past a neighbour's end, on the page
		// the neighbour ends on.
		if len(c.live) > 0 {
			o := c.live[c.intn(len(c.live))]
			c.mapAt(o.End()+uint64(1+c.intn(64)), 1+c.intn(256), "shared-page")
		}
	case 2:
		// A region whose pages index the same TLB entries as a
		// neighbour's.
		if len(c.live) > 0 {
			o := c.live[c.intn(len(c.live))]
			if c.mapAt(o.Base+uint64(1+c.intn(3))*tlbEntries<<pageShift, 1+c.intn(512), "alias") {
				c.aliased++
			}
		}
	case 3:
		if len(c.live) > 1 {
			i := c.intn(len(c.live))
			r := c.live[i]
			c.as.Unmap(r)
			c.live = append(c.live[:i], c.live[i+1:]...)
			c.freed = append(c.freed, r)
		}
	case 4:
		if len(c.live) > 0 {
			c.live[c.intn(len(c.live))].Prot = Prot(c.intn(4))
		}
	case 5:
		if len(c.live) > 0 {
			c.live[c.intn(len(c.live))].Key = uint8(c.intn(3))
		}
		c.as.ActiveKeys = ^uint64(0)
		if c.intn(2) == 0 {
			c.as.ActiveKeys = 1 | uint64(c.intn(2))<<1
		}
	}
}

// addr picks an address: mostly inside live regions, where the TLB hits,
// and sometimes across a region's end, in a freed region, in a guard gap
// or in the NULL guard.
func (c *tlbChecker) addr() uint64 {
	if len(c.live) == 0 || c.intn(10) == 0 {
		return uint64(c.intn(int(NullGuardSize)))
	}
	r := c.live[c.intn(len(c.live))]
	switch c.intn(8) {
	case 0:
		return r.End() - uint64(c.intn(8)) // crosses the end for most sizes
	case 1:
		if len(c.freed) > 0 {
			f := c.freed[c.intn(len(c.freed))]
			return f.Base + uint64(c.intn(len(f.Data)))
		}
	case 2:
		return r.End() + uint64(c.intn(4096))
	}
	return r.Base + uint64(c.intn(len(r.Data)))
}

// note counts what the access at addr exercises: an entry that will hit,
// or a stale one, tagged with a replaced snapshot, whose region contains
// the address.
func (c *tlbChecker) note(addr uint64) {
	e := &c.tlb[(addr>>pageShift)%tlbEntries]
	if e.r == nil || addr < e.r.Base || addr >= e.r.End() {
		return
	}
	if e.seq != c.as.regions.Load().seq {
		c.stale++
	} else {
		c.hits++
	}
}

func regionName(r *Region) string {
	if r == nil {
		return "nil"
	}
	return fmt.Sprintf("%s@%#x", r.Name, r.Base)
}

func sameFault(a, b *Fault) bool { return a == nil && b == nil || a != nil && b != nil && *a == *b }

// access runs one load, store or ReadInto on both paths.
func (c *tlbChecker) access() {
	addr := c.addr()
	size := 1 << c.intn(4)
	c.note(addr)

	write := c.intn(3) == 0
	r1, off1, f1 := c.as.check(c.tlb, addr, uint64(size), write)
	r2, off2, f2 := c.as.check(nil, addr, uint64(size), write)
	if r1 != r2 || off1 != off2 || !sameFault(f1, f2) {
		c.fail("check(%#x, %d, write=%v): TLB %s+%d %v, no TLB %s+%d %v", addr, size, write, regionName(r1), off1, f1, regionName(r2), off2, f2)
	}
	if f1 != nil {
		switch f1.Cause {
		case "unmapped":
			c.unmapped++
		case "oob":
			c.oob++
		case "null-deref":
			c.nullDeref++
		}
	}

	switch c.intn(3) {
	case 0:
		v1, f1 := c.as.loadUint(c.tlb, addr, size)
		v2, f2 := c.as.LoadUint(addr, size)
		if v1 != v2 || !sameFault(f1, f2) {
			c.fail("LoadUint(%#x, %d): TLB %#x %v, no TLB %#x %v", addr, size, v1, f1, v2, f2)
		}
	case 1:
		v := c.rng.Next()
		f1 := c.as.storeUint(c.tlb, addr, size, v)
		back, bf := c.as.LoadUint(addr, size)
		f2 := c.as.StoreUint(addr, size, v)
		if !sameFault(f1, f2) || f1 == nil && bf == nil && back != v&(^uint64(0)>>(64-8*size)) {
			c.fail("StoreUint(%#x, %d): TLB %v, no TLB %v, read back %#x", addr, size, f1, f2, back)
		}
	case 2:
		n := 1 + c.intn(24)
		b1, b2 := make([]byte, n), make([]byte, n)
		f1 := c.as.readInto(c.tlb, addr, b1)
		f2 := c.as.ReadInto(addr, b2)
		if !bytes.Equal(b1, b2) || !sameFault(f1, f2) {
			c.fail("ReadInto(%#x, %d): TLB %x %v, no TLB %x %v", addr, n, b1, f1, b2, f2)
		}
	}
}

// TestTLBMatchesLocate is the software TLB's equivalence property: over
// seeded histories that interleave Map, MapAt, Unmap, protection and
// protection-key changes with 1/2/4/8-byte loads and stores and ReadInto,
// every access through a TLB returns the region, offset, value and fault
// the path without one returns. The histories reach accesses after Unmap,
// accesses across a region's end, regions sharing a page, regions whose
// pages share TLB entries, the NULL guard, TLB hits, and stale entries
// whose snapshot was replaced.
func TestTLBMatchesLocate(t *testing.T) {
	var total tlbChecker
	for seed := uint64(1); seed <= 40; seed++ {
		c := &tlbChecker{t: t, seed: seed, as: NewAddressSpace(), tlb: new(tlb), rng: rng.Star(seed)}
		for i := 0; i < 4; i++ {
			c.live = append(c.live, c.as.Map(1+c.intn(9000), ProtRW, "seed"))
		}
		for step := 0; step < 3000; step++ {
			if c.intn(8) == 0 {
				c.mutate()
			} else {
				c.access()
			}
		}
		total.hits += c.hits
		total.stale += c.stale
		total.unmapped += c.unmapped
		total.oob += c.oob
		total.nullDeref += c.nullDeref
		total.sharedPage += c.sharedPage
		total.aliased += c.aliased
	}
	for name, n := range map[string]int{
		"TLB hits": total.hits, "stale entries": total.stale, "unmapped": total.unmapped,
		"oob": total.oob, "null-deref": total.nullDeref, "shared pages": total.sharedPage,
		"aliased regions": total.aliased,
	} {
		if n == 0 {
			t.Errorf("no %s in any history", name)
		}
	}
	t.Logf("hits %d, stale %d, unmapped %d, oob %d, null-deref %d, shared pages %d, aliased %d",
		total.hits, total.stale, total.unmapped, total.oob, total.nullDeref, total.sharedPage, total.aliased)
}

// TestTLBKeepsNoSnapshotAlive checks that a TLB's stale entries keep no
// old snapshot reachable: a context touches 1024 pages, each right after
// an Unmap and a Map of a 4000-region address space, so every entry names
// a different snapshot. Entries that pointed at their snapshots would keep
// about 64 MB of region arrays alive.
func TestTLBKeepsNoSnapshotAlive(t *testing.T) {
	k := NewDefault()
	var regs []*Region
	for i := 0; i < 4000; i++ {
		regs = append(regs, k.Mem.Map(64, ProtRW, "r"))
	}
	ctx := k.NewContext(0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < tlbEntries; i++ {
		k.Mem.Unmap(regs[i])
		regs[i] = k.Mem.Map(64, ProtRW, "r")
		if _, f := ctx.LoadUint(regs[2000+i%2000].Base, 8); f != nil {
			t.Fatal(f)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew > 8<<20 {
		t.Fatalf("heap grew %d MB over %d snapshots, want < 8 MB", grew>>20, tlbEntries)
	}
	runtime.KeepAlive(ctx)
}

// BenchmarkAddressSpaceLoad measures one 8-byte load from an address space
// of 1000 mapped regions, 500 pairs whose pages index the same TLB entry:
// without a TLB (a binary search of the region set), through a context's
// TLB that hits (loads from one region of each pair), and through one that
// misses on every load (loads from both regions of each pair in turn, so
// each evicts the other). None of them allocates.
func BenchmarkAddressSpaceLoad(b *testing.B) {
	k := NewDefault()
	var hit, miss []uint64
	for i := 0; i < 500; i++ {
		r := k.Mem.Map(64, ProtRW, "bench")
		alias, err := k.Mem.MapAt(r.Base-1<<40, 64, ProtRW, "alias")
		if err != nil {
			b.Fatal(err)
		}
		hit = append(hit, r.Base+8)
		miss = append(miss, r.Base+8, alias.Base+8)
	}
	ctx := k.NewContext(0)
	load := func(b *testing.B, load func(addr uint64) *Fault, addrs []uint64) {
		for _, a := range addrs {
			if f := load(a); f != nil {
				b.Fatal(f)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if f := load(addrs[i%len(addrs)]); f != nil {
				b.Fatal(f)
			}
		}
	}
	b.Run("no-tlb", func(b *testing.B) {
		load(b, func(a uint64) *Fault { _, f := k.Mem.LoadUint(a, 8); return f }, hit)
	})
	b.Run("tlb-hit", func(b *testing.B) {
		load(b, func(a uint64) *Fault { _, f := ctx.LoadUint(a, 8); return f }, hit)
	})
	b.Run("tlb-miss", func(b *testing.B) {
		load(b, func(a uint64) *Fault { _, f := ctx.LoadUint(a, 8); return f }, miss)
	})
}
