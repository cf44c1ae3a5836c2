package mirrun

// The engine's ALU and compare tables, the crate result shapes, and the
// deterministic hashing every model value is drawn from.

// Bin evaluates MIR binary operator op with the engine's semantics:
// 64-bit wraparound, shift amounts masked mod 64, x/0 = 0 and x%0 = x.
// False means op is not a MIR operator.
func Bin(op string, a, b uint64) (uint64, bool) {
	switch op {
	case "+":
		return a + b, true
	case "-":
		return a - b, true
	case "*":
		return a * b, true
	case "/":
		if b == 0 {
			return 0, true
		}
		return a / b, true
	case "%":
		if b == 0 {
			return a, true
		}
		return a % b, true
	case "&":
		return a & b, true
	case "|":
		return a | b, true
	case "^":
		return a ^ b, true
	case "<<":
		return a << (b & 63), true
	case ">>":
		return a >> (b & 63), true
	}
	return 0, false
}

// Cmp evaluates MIR relation rel (== != < <= > >=), signed or unsigned.
// An unknown relation is false.
func Cmp(rel string, signed bool, a, b uint64) bool {
	if signed {
		sa, sb := int64(a), int64(b)
		switch rel {
		case "<":
			return sa < sb
		case "<=":
			return sa <= sb
		case ">":
			return sa > sb
		case ">=":
			return sa >= sb
		}
	} else {
		switch rel {
		case "<":
			return a < b
		case "<=":
			return a <= b
		case ">":
			return a > b
		case ">=":
			return a >= b
		}
	}
	switch rel {
	case "==":
		return a == b
	case "!=":
		return a != b
	}
	return false
}

// Shape narrows a raw model value to the natural width of crate call
// name's result, so model values stay in the range the real helper
// produces; otherwise every array index derived from one would trap and
// coverage would collapse.
func Shape(name string, v uint64) uint64 {
	switch name {
	case "pkt_read_u8":
		return v & 0xff
	case "pkt_read_u16":
		return v & 0xffff
	case "pkt_read_u32", "rand":
		return v & 0xffffffff
	case "pkt_len":
		return v%1486 + 14
	case "cpu":
		return v & 7
	case "uid":
		return v & 0xffff
	case "sk_lookup_tcp", "sk_lookup_udp", "mem_alloc":
		return v | 1 // nonzero handle
	case "sk_ok", "str_eq":
		return v & 1
	}
	return v
}

// PerCPU reports whether a map kind has one instance per CPU.
func PerCPU(kind string) bool {
	return kind == "percpu" || kind == "percpu_hash"
}

// Mix is splitmix64 over an FNV-style accumulation of vals: the
// deterministic entropy source of every model value.
func Mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v
		h *= 0x100000001b3
		z := h + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	}
	return h
}

// Hash is 64-bit FNV-1a over a string or a byte slice.
func Hash[S ~string | ~[]byte](s S) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
