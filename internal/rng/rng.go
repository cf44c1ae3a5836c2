// Package rng holds the two deterministic generators the replayable
// packages share. Both are pure functions of their state: the same seed
// gives the same stream on every host, which is what lets fault campaigns,
// jitter and oracle schedules replay from a seed. The state must be
// nonzero; zero is a fixed point of both.
package rng

// Star is an xorshift64* generator (shifts 12/25/27, then a multiply).
type Star uint64

// Next steps the state and returns the next output.
func (s *Star) Next() uint64 {
	x := uint64(*s)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*s = Star(x)
	return x * 0x2545F4914F6CDD1D
}

// XorShift is Marsaglia's xorshift64 generator (shifts 13/7/17); its output
// is its state.
type XorShift uint64

// Next steps the state and returns it.
func (s *XorShift) Next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = XorShift(x)
	return x
}
