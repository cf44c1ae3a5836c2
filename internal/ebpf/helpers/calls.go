package helpers

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Calls counts one run's helper invocations by count slot: entry i counts
// calls to the helper whose slot is i, and the slice ends at the highest
// slot the run called. Slots are dense, process-wide and keyed by helper
// name (see slotOf), so counting a call is an index increment instead of a
// map update, and a Calls value resolves names without a registry.
// Ranging over it yields the counts, so summing them totals the run.
type Calls []uint64

// Get returns the number of calls to the named helper.
func (c Calls) Get(name string) uint64 {
	s, ok := lookupSlot(name)
	if !ok || s >= len(c) {
		return 0
	}
	return c[s]
}

// Add returns c with n more calls counted to the named helper. Like
// append, it may grow c in place.
func (c Calls) Add(name string, n uint64) Calls { return c.add(slotOf(name), n) }

func (c Calls) add(slot int, n uint64) Calls {
	if slot >= len(c) {
		if slot < cap(c) {
			// Past len, the backing array is zero: Env.Reset clears what
			// a run used.
			c = c[:slot+1]
		} else {
			grown := make(Calls, slot+1, 2*slot+2)
			copy(grown, c)
			c = grown
		}
	}
	c[slot] += n
	return c
}

// Total returns the number of helper calls across all helpers.
func (c Calls) Total() uint64 {
	var t uint64
	for _, n := range c {
		t += n
	}
	return t
}

// String renders the counts as "name×n" pairs sorted by name.
func (c Calls) String() string {
	var parts []string
	for s, n := range c {
		if n != 0 {
			parts = append(parts, fmt.Sprintf("%s×%d", SlotName(s), n))
		}
	}
	sort.Strings(parts)
	return "[" + strings.Join(parts, " ") + "]"
}

// slots is the process-wide helper-name to count-slot table. Slots are
// handed out in first-call order, so the helpers a workload actually calls
// get the low slots whichever registry they came from.
var slots struct {
	mu     sync.Mutex
	byName map[string]int
	names  atomic.Pointer[[]string]
}

// slotOf returns the count slot of the named helper, assigning the next
// free slot on first use.
func slotOf(name string) int {
	slots.mu.Lock()
	defer slots.mu.Unlock()
	if s, ok := slots.byName[name]; ok {
		return s
	}
	if slots.byName == nil {
		slots.byName = make(map[string]int)
	}
	var names []string
	if p := slots.names.Load(); p != nil {
		names = *p
	}
	s := len(names)
	slots.byName[name] = s
	// Copy on write: readers of SlotName hold the previous slice.
	grown := append(names[:s:s], name)
	slots.names.Store(&grown)
	return s
}

// lookupSlot returns the slot of an already-called helper.
func lookupSlot(name string) (int, bool) {
	slots.mu.Lock()
	defer slots.mu.Unlock()
	s, ok := slots.byName[name]
	return s, ok
}

// SlotName returns the helper name behind a count slot.
func SlotName(s int) string {
	if p := slots.names.Load(); p != nil && s < len(*p) {
		return (*p)[s]
	}
	return ""
}

// callSlot caches a Spec's count slot once resolved: slot+1, 0 until the
// helper's first call.
type callSlot struct{ v atomic.Int32 }

// countSlot returns the helper's count slot, resolving it on first use.
func (s *Spec) countSlot() int {
	if s.slot == nil {
		return slotOf(s.Name)
	}
	if v := s.slot.v.Load(); v != 0 {
		return int(v - 1)
	}
	n := slotOf(s.Name)
	s.slot.v.Store(int32(n + 1))
	return n
}
