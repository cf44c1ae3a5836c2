package concheck_test

import (
	"encoding/binary"
	"testing"

	"kex/internal/analysis/concheck"
	"kex/internal/kernel"
	"kex/internal/safext/compile"
	"kex/internal/safext/lang"
	"kex/internal/safext/runtime"
	"kex/internal/safext/toolchain"
)

// TestOracleDivisionTrapsLikeEngine: the oracle's serial aggregates must be
// what the safext runtime leaves after the same invocations. Here every
// invocation divides by an absent map value at a check the naive build
// emits, so the engine traps before the increment and acc stays empty; an
// oracle that evaluated x/0 as 0 would count every increment.
func TestOracleDivisionTrapsLikeEngine(t *testing.T) {
	const src = `
map acc: hash<u64, u64>(8);

fn main() -> i64 {
	let z = kernel::map_get(acc, 99);
	let q = 10 / z;
	kernel::map_inc(acc, 0, 1);
	return q;
}
`
	const invocations = 4

	k := kernel.NewDefault()
	rt := runtime.New(k, runtime.DefaultConfig())
	signer, err := toolchain.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	rt.AddKey(signer.PublicKey())
	so, err := signer.BuildAndSign("divzero", src)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := rt.Load(so)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < invocations; i++ {
		v, err := ext.Run(runtime.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !v.Terminated || v.Reason != "trap" || v.TrapCode != compile.TrapDivByZero {
			t.Fatalf("engine run %d: %+v, want a division trap", i, v)
		}
	}
	var engineSum uint64
	key := make([]byte, 8)
	binary.LittleEndian.PutUint64(key, 0)
	if addr, ok := ext.Map("acc").Lookup(0, key); ok {
		if engineSum, err = k.Mem.LoadUint(addr, 8); err != nil {
			t.Fatal(err)
		}
	}

	f, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := lang.Check(f)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := concheck.RunOracle(checked, 2, invocations, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Maps["acc"].SerialSum; got != engineSum || got != 0 {
		t.Fatalf("oracle serial acc sum = %d, engine left %d; both must be 0", got, engineSum)
	}
}
