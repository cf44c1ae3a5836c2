package runtime

import (
	"encoding/binary"
	"strings"
	"testing"

	"kex/internal/ebpf/maps"
	"kex/internal/kernel"
	"kex/internal/safext/toolchain"
)

type fixture struct {
	k      *kernel.Kernel
	rt     *Runtime
	signer *toolchain.Signer
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	k := kernel.NewDefault()
	rt := New(k, cfg)
	signer, err := toolchain.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	rt.AddKey(signer.PublicKey())
	return &fixture{k: k, rt: rt, signer: signer}
}

func (f *fixture) load(t *testing.T, name, src string) *Extension {
	t.Helper()
	so, err := f.signer.BuildAndSign(name, src)
	if err != nil {
		t.Fatalf("build/sign: %v", err)
	}
	ext, err := f.rt.Load(so)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return ext
}

func (f *fixture) run(t *testing.T, ext *Extension) *Verdict {
	t.Helper()
	v, err := ext.Run(RunOptions{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestQuickstartPipeline(t *testing.T) {
	for _, useJIT := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.UseJIT = useJIT
		f := newFixture(t, cfg)
		ext := f.load(t, "quickstart", `
map hits: hash<u32, u64>(64);

fn main() -> i64 {
	let n = kernel::map_inc(hits, 1, 1);
	kernel::trace("hit %d", n);
	return 0;
}
`)
		for i := 1; i <= 3; i++ {
			v := f.run(t, ext)
			if !v.Completed || v.R0 != 0 {
				t.Fatalf("jit=%v run %d: %+v", useJIT, i, v)
			}
			if len(v.Trace) != 1 || !strings.Contains(v.Trace[0], "hit") {
				t.Fatalf("trace = %v", v.Trace)
			}
		}
		// Host-side readback of the map.
		m := ext.Map("hits")
		key := make([]byte, 8)
		binary.LittleEndian.PutUint64(key, 1)
		addr, ok := m.Lookup(0, key)
		if !ok {
			t.Fatal("map entry missing")
		}
		got, _ := f.k.Mem.LoadUint(addr, 8)
		if got != 3 {
			t.Fatalf("counter = %d, want 3", got)
		}
		if !f.k.Healthy() {
			t.Fatalf("kernel unhealthy: %v", f.k.LastOops())
		}
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "arith", `
fn collatz_steps(start: i64) -> i64 {
	let mut n = start;
	let mut steps: i64 = 0;
	while n != 1 {
		if n % 2 == 0 {
			n = n / 2;
		} else {
			n = 3 * n + 1;
		}
		steps += 1;
	}
	return steps;
}

fn main() -> i64 {
	let mut sum: i64 = 0;
	for i in 2..10 {
		sum += collatz_steps(i);
	}
	return sum;
}
`)
	v := f.run(t, ext)
	// Collatz steps for 2..9: 1,7,2,5,8,16,3,19 = 61.
	if !v.Completed || v.R0 != 61 {
		t.Fatalf("verdict = %+v, want 61", v)
	}
}

func TestUnboundedLoopExpressiveness(t *testing.T) {
	// The expressiveness claim: big, data-dependent loops just work — no
	// verifier budget, no bound annotations.
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "bigloop", `
fn main() -> i64 {
	let mut acc: u64 = 0;
	for i in 0..100000 {
		acc += i;
	}
	return 0;
}
`)
	v := f.run(t, ext)
	if !v.Completed {
		t.Fatalf("big loop terminated: %+v", v)
	}
	if v.Instructions < 100_000 {
		t.Fatalf("instructions = %d", v.Instructions)
	}
}

func TestSignatureEnforced(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	src := `fn main() -> i64 { return 7; }`

	// A signer whose key is not enrolled.
	rogue, _ := toolchain.NewSigner()
	so, err := rogue.BuildAndSign("rogue", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.rt.Load(so); err != ErrBadSignature {
		t.Fatalf("rogue load err = %v", err)
	}
	// Tampered payload.
	good, _ := f.signer.BuildAndSign("good", src)
	good.Payload[len(good.Payload)-1] ^= 0xff
	if _, err := f.rt.Load(good); err != ErrBadSignature {
		t.Fatalf("tampered load err = %v", err)
	}
	if f.rt.Stats().SignatureFails != 2 {
		t.Fatalf("signature fails = %d", f.rt.Stats().SignatureFails)
	}
	// Untampered loads fine.
	good2, _ := f.signer.BuildAndSign("good2", src)
	if _, err := f.rt.Load(good2); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyDeniesCapabilities(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.signer.Policy.DeniedCaps = []string{"pkt_write_u8"}
	_, err := f.signer.BuildAndSign("writer", `
fn main() -> i64 {
	kernel::pkt_write_u8(0, 0);
	return 0;
}
`)
	if err == nil || !strings.Contains(err.Error(), "policy denies") {
		t.Fatalf("err = %v", err)
	}
}

func TestBoundsCheckTraps(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "oob", `
fn main() -> i64 {
	let mut buf: [u8; 8];
	let idx = kernel::rand() % 4 + 8; // always out of bounds
	buf[idx] = 1;
	return 0;
}
`)
	v := f.run(t, ext)
	if !v.Terminated || v.Reason != "trap" || v.TrapCode != 2 {
		t.Fatalf("verdict = %+v, want OOB trap", v)
	}
	// The kernel took no damage: the trap fired before the bad store.
	if !f.k.Healthy() {
		t.Fatalf("kernel unhealthy: %v", f.k.LastOops())
	}
}

func TestInBoundsIndexWorks(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "inbounds", `
fn main() -> i64 {
	let mut buf: [u8; 8];
	for i in 0..8 {
		buf[i] = i * 3;
	}
	return buf[7] + buf[0];
}
`)
	v := f.run(t, ext)
	if !v.Completed || v.R0 != 21 {
		t.Fatalf("verdict = %+v, want 21", v)
	}
}

func TestDivByZeroTraps(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "div0", `
fn main() -> i64 {
	let zero = kernel::rand() % 1;
	return 10 / zero;
}
`)
	v := f.run(t, ext)
	if !v.Terminated || v.Reason != "trap" || v.TrapCode != 3 {
		t.Fatalf("verdict = %+v, want div-by-zero trap", v)
	}
}

func TestExplicitTrap(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "trapper", `
fn main() -> i64 {
	if kernel::cpu() == 0 {
		trap;
	}
	return 0;
}
`)
	v := f.run(t, ext)
	if !v.Terminated || v.TrapCode != 1 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestWatchdogTerminatesInfiniteLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fuel = 0               // watchdog only
	cfg.WatchdogNs = 1_000_000 // 1ms
	f := newFixture(t, cfg)
	ext := f.load(t, "spin", `
fn main() -> i64 {
	let mut x: u64 = 1;
	while x != 0 {
		x += 2;
	}
	return 0;
}
`)
	v := f.run(t, ext)
	if !v.Terminated || v.Reason != "watchdog" {
		t.Fatalf("verdict = %+v, want watchdog", v)
	}
	// Terminated long before the RCU stall threshold: no stall, no oops.
	if f.k.Stats.RCUStalls != 0 || !f.k.Healthy() {
		t.Fatalf("kernel state: stalls=%d healthy=%v", f.k.Stats.RCUStalls, f.k.Healthy())
	}
	if f.rt.Stats().WatchdogKills != 1 {
		t.Fatalf("watchdog kills = %d", f.rt.Stats().WatchdogKills)
	}
}

func TestFuelTerminates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fuel = 10_000
	cfg.WatchdogNs = 0
	f := newFixture(t, cfg)
	ext := f.load(t, "spin", `
fn main() -> i64 {
	let mut x: u64 = 1;
	while x != 0 { x += 2; }
	return 0;
}
`)
	v := f.run(t, ext)
	if !v.Terminated || v.Reason != "fuel" {
		t.Fatalf("verdict = %+v, want fuel", v)
	}
}

func TestSockRAIIScopeExit(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	s := f.k.Sockets().Add("tcp", 10, 80, 20, 9000)
	ext := f.load(t, "raii", `
fn main() -> i64 {
	let s = kernel::sk_lookup_tcp(10, 80, 20, 9000);
	if kernel::sk_ok(s) {
		kernel::sk_mark(s, 42);
		return 1;
	}
	return 0;
}
`)
	v := f.run(t, ext)
	if !v.Completed || v.R0 != 1 {
		t.Fatalf("verdict = %+v", v)
	}
	// The early return path still released the handle (compiler RAII).
	if c := s.Ref().Count(); c != 1 {
		t.Fatalf("refcount = %d, want 1 (released)", c)
	}
	if s.Mark() != 42 {
		t.Fatalf("mark = %d", s.Mark())
	}
	if v.CleanedSocks != 0 {
		t.Fatalf("runtime cleanup ran on the happy path: %+v", v)
	}
}

func TestSockCleanupOnTermination(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogNs = 1_000_000
	cfg.Fuel = 0
	f := newFixture(t, cfg)
	s := f.k.Sockets().Add("tcp", 10, 80, 20, 9000)
	ext := f.load(t, "leaky", `
fn main() -> i64 {
	let s = kernel::sk_lookup_tcp(10, 80, 20, 9000);
	let mut x: u64 = 1;
	while x != 0 { x += 2; } // hang while holding the reference
	return 0;
}
`)
	v := f.run(t, ext)
	if !v.Terminated || v.Reason != "watchdog" {
		t.Fatalf("verdict = %+v", v)
	}
	if v.CleanedSocks != 1 {
		t.Fatalf("cleaned socks = %d, want 1", v.CleanedSocks)
	}
	if c := s.Ref().Count(); c != 1 {
		t.Fatalf("refcount after cleanup = %d, want 1", c)
	}
	if !f.k.Healthy() {
		t.Fatalf("kernel unhealthy after safe termination: %v", f.k.LastOops())
	}
}

func TestSyncLockPairing(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "locked", `
map shared: hash<u32, u64>(16);

fn main() -> i64 {
	sync(shared, 5) {
		let v = kernel::map_get(shared, 5);
		kernel::map_set(shared, 5, v + 1);
		if v > 100 {
			return 2; // early return inside the critical section
		}
	}
	return 1;
}
`)
	for i := 0; i < 3; i++ {
		v := f.run(t, ext)
		if !v.Completed || v.R0 != 1 {
			t.Fatalf("run %d: %+v", i, v)
		}
	}
	if !f.k.Healthy() {
		t.Fatalf("lock discipline broke: %v", f.k.LastOops())
	}
}

func TestLockCleanupOnTermination(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogNs = 1_000_000
	cfg.Fuel = 0
	f := newFixture(t, cfg)
	ext := f.load(t, "lockhang", `
map shared: hash<u32, u64>(16);

fn main() -> i64 {
	sync(shared, 1) {
		let mut x: u64 = 1;
		while x != 0 { x += 2; } // hang inside the critical section
	}
	return 0;
}
`)
	v := f.run(t, ext)
	if !v.Terminated || v.CleanedLocks != 1 {
		t.Fatalf("verdict = %+v, want 1 cleaned lock", v)
	}
	// The lock is free again: a second run acquires it without deadlock.
	v2 := f.run(t, ext)
	if v2.CleanedLocks != 1 {
		t.Fatalf("second run: %+v", v2)
	}
	if !f.k.Healthy() {
		t.Fatalf("kernel unhealthy: %v", f.k.LastOops())
	}
}

func TestPacketCrateFunctions(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	payload := []byte{0x45, 0x00, 0x00, 0x28, 0xaa, 0xbb}
	skb := f.k.NewSKB(payload)
	ctx := f.k.Mem.Map(32, kernel.ProtRW, "skb_ctx")
	f.k.Mem.StoreUint(ctx.Base+0, 8, skb.DataStart())
	f.k.Mem.StoreUint(ctx.Base+8, 8, skb.DataEnd())

	ext := f.load(t, "pkt", `
fn main() -> i64 {
	if kernel::pkt_len() != 6 {
		return -1;
	}
	let b0 = kernel::pkt_read_u8(0);
	if b0 != 69 { // 0x45
		return -2;
	}
	// Out-of-bounds read is a graceful -1, not a crash.
	if kernel::pkt_read_u32(4) != -1 {
		return -3;
	}
	kernel::pkt_write_u8(1, 7);
	return 0;
}
`)
	v, err := ext.Run(RunOptions{CtxAddr: ctx.Base})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Completed || v.R0 != 0 {
		t.Fatalf("verdict = %+v", v)
	}
	b, _ := f.k.Mem.LoadUint(skb.DataStart()+1, 1)
	if b != 7 {
		t.Fatalf("pkt write lost: %d", b)
	}
}

func TestStringCrateFunctions(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "strings", `
fn main() -> i64 {
	let mut buf: [u8; 8];
	buf[0] = 52; // '4'
	buf[1] = 50; // '2'
	let parsed = kernel::str_parse(buf);
	if parsed != 42 {
		return -1;
	}
	let mut name: [u8; 4];
	name[0] = 97; name[1] = 98; // "ab"
	if kernel::str_eq(name, "ab") {
		return parsed;
	}
	return -2;
}
`)
	v := f.run(t, ext)
	if !v.Completed || v.R0 != 42 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestCurrentTaskIdentity(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	task := f.k.NewTask("demo")
	task.SetUID(501)
	f.k.SetCurrent(0, task)
	ext := f.load(t, "ident", `
fn main() -> i64 {
	let mut buf: [u8; 16];
	kernel::comm(buf);
	if !kernel::str_eq(buf, "demo") {
		return -1;
	}
	if kernel::uid() != 501 {
		return -2;
	}
	return kernel::pid_tgid() % 4294967296; // low half = pid
}
`)
	v := f.run(t, ext)
	if !v.Completed || v.R0 != int64(task.PID) {
		t.Fatalf("verdict = %+v, want pid %d", v, task.PID)
	}
}

func TestRingbufEmit(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "events", `
map events: ringbuf(256);

fn main() -> i64 {
	let mut rec: [u8; 8];
	rec[0] = 9;
	return kernel::emit(events, rec);
}
`)
	v := f.run(t, ext)
	if !v.Completed || v.R0 != 0 {
		t.Fatalf("verdict = %+v", v)
	}
	rb := ext.Map("events").(maps.RingMap)
	rec := rb.Consume()
	if len(rec) != 8 || rec[0] != 9 {
		t.Fatalf("record = %v", rec)
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "shortcircuit", `
map side: hash<u32, u64>(4);

fn bump() -> i64 {
	kernel::map_inc(side, 0, 1);
	return 1;
}

fn main() -> i64 {
	if false && bump() == 1 { return -1; }
	if true || bump() == 1 { }
	if true && bump() == 1 { } // only this one evaluates bump
	return kernel::map_get(side, 0) % 256;
}
`)
	v := f.run(t, ext)
	if !v.Completed || v.R0 != 1 {
		t.Fatalf("verdict = %+v, want exactly one bump", v)
	}
}

func TestSignedUnsignedComparison(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "cmp", `
fn main() -> i64 {
	let a: i64 = 0 - 5;
	if a < 0 { } else { return -1; }      // signed comparison
	let b: u64 = 0 - 5;                    // wraps to huge value
	if b > 1000 { } else { return -2; }    // unsigned comparison
	return 0;
}
`)
	v := f.run(t, ext)
	if !v.Completed || v.R0 != 0 {
		t.Fatalf("verdict = %+v", v)
	}
}

// TestLoadPhasesAndExecStats checks the shared core's instrumentation on
// the safext pipeline: the full toolchain+loader phase list and the
// per-program execution counters.
func TestLoadPhasesAndExecStats(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	ext := f.load(t, "phased", `
fn main() -> i64 {
	let t: i64 = kernel::ktime();
	return t - t;
}
`)
	want := []string{"parse", "typecheck", "compile", "concheck", "sign", "validate", "fixup"}
	if len(ext.LoadPhases) != len(want) {
		t.Fatalf("phases = %v, want %v", ext.LoadPhases, want)
	}
	for i, name := range want {
		if ext.LoadPhases[i].Name != name {
			t.Fatalf("phase %d = %q, want %q", i, ext.LoadPhases[i].Name, name)
		}
	}
	v := f.run(t, ext)
	if !v.Completed {
		t.Fatalf("verdict = %+v", v)
	}
	if v.WallNs <= 0 {
		t.Fatalf("wall latency = %d, want > 0", v.WallNs)
	}
	snap := f.rt.Core.Stats.Snapshot()
	ps := snap.Programs["phased"]
	if ps.Invocations != 1 || ps.HelperCalls["slx_ktime"] != 1 {
		t.Fatalf("core stats = %+v", ps)
	}
	if snap.Loads != 1 || len(snap.LoadPhases) != len(want) {
		t.Fatalf("load stats = %d %v", snap.Loads, snap.LoadPhases)
	}
}

// TestExtensionClose checks rodata release: load/close cycles must not grow
// the simulated address space.
func TestExtensionClose(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	src := `
fn main() -> i64 {
	kernel::trace("hello");
	return 0;
}
`
	so, err := f.signer.BuildAndSign("closer", src)
	if err != nil {
		t.Fatal(err)
	}
	first, err := f.rt.Load(so)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	base := len(f.k.Mem.Regions())
	for i := 0; i < 50; i++ {
		ext, err := f.rt.Load(so)
		if err != nil {
			t.Fatal(err)
		}
		ext.Close()
		ext.Close() // idempotent
	}
	if got := len(f.k.Mem.Regions()); got != base {
		t.Fatalf("regions after 50 load/close cycles = %d, want %d (rodata leak)", got, base)
	}
}
