package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The latency metrics are reported in reference units. The shared machines
// this benchmark runs on change speed by a fifth and more, for seconds to
// minutes at a time, under load from their other tenants, and every
// wall-clock figure moves with them. So before each round the benchmark
// times a fixed computation that runs no code of this repository, on as
// many processors at once as the data plane has shards, and divides a
// window's latencies by the median reference time of its rounds. A change
// in the machine's speed then moves numerator and denominator alike; a
// change in the system under test moves only the numerator.

const (
	// refLen is the length of the reference sort's input.
	refLen = 4096
	// refReps is how many times each goroutine sorts per measurement; the
	// fastest sort counts, so that a preemption does not.
	refReps = 5
)

// refInput is the reference sort's input: a fixed xorshift stream.
var refInput = func() []int {
	in := make([]int, refLen)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range in {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		in[i] = int(x >> 1)
	}
	return in
}()

// refTime returns the reference computation's current duration in ns:
// shards goroutines each sort a copy of refInput refReps times, and the
// result is the mean of each one's fastest sort.
func refTime() float64 {
	best := make([]int64, shards)
	var wg sync.WaitGroup
	for g := range best {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]int, refLen)
			best[g] = math.MaxInt64
			for r := 0; r < refReps; r++ {
				start := time.Now()
				copy(buf, refInput)
				sort.Ints(buf)
				best[g] = min(best[g], int64(time.Since(start)))
			}
		}(g)
	}
	wg.Wait()
	var sum int64
	for _, b := range best {
		sum += b
	}
	return float64(sum) / float64(len(best))
}
