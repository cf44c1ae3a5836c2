package rng

import "testing"

// The expected streams were produced by the inline generators this package
// replaced. Fault campaigns, supervisor and fleet jitter, bpf_get_prandom_u32
// and the concheck/statecheck oracles replay from seeds, so any change
// here breaks every recorded replay.
func TestStarStream(t *testing.T) {
	cases := map[uint64][]uint64{
		1:                  {0x47e4ce4b896cdd1d, 0xabcfa6a8e079651d, 0xb9d10d8feb731f57, 0x4db418a0bb1b019d},
		0x2545f4914f6cdd1d: {0xad5db60b4c5d45d4, 0xbedaf65d8707906e, 0xa1fe02d6c6dd3d0, 0x9706f44d6f0b43b4},
		0x9e3779b97f4a7c15: {0xd83b3e29a21487a, 0x54c44c79f1fe9d67, 0xa845f342007a0e78, 0x7d6e0b878a794779},
	}
	for seed, want := range cases {
		s := Star(seed)
		for i, w := range want {
			if got := s.Next(); got != w {
				t.Errorf("Star(%#x) output %d = %#x, want %#x", seed, i, got, w)
			}
		}
	}
}

func TestXorShiftStream(t *testing.T) {
	cases := map[uint64][]uint64{
		1:                  {0x40822041, 0x100041060c011441, 0x9b1e842f6e862629, 0xf554f503555d8025},
		0x9e3779b97f4a7c15: {0xdc1b77ae0bf34dad, 0x64f0eeb9026e6076, 0x7b07ce91e5906136, 0x305f050c368dcc74},
		0x4538453d9:        {0x16c0ebf92a308d3e, 0x69ec3ae282a863a4, 0xfba8c9e055075a63, 0x36dd94a96719ac17},
	}
	for seed, want := range cases {
		s := XorShift(seed)
		for i, w := range want {
			if got := s.Next(); got != w {
				t.Errorf("XorShift(%#x) output %d = %#x, want %#x", seed, i, got, w)
			}
		}
	}
}
