package kernel

import (
	"strings"
	"testing"
)

func TestBootDefaults(t *testing.T) {
	k := NewDefault()
	if got := len(k.CPUs()); got != 4 {
		t.Fatalf("NumCPU = %d, want 4", got)
	}
	if !k.Healthy() {
		t.Fatalf("fresh kernel unhealthy: %v", k.LastOops())
	}
	if cur := k.Current(0); cur == nil || cur.Comm != "swapper/0" {
		t.Fatalf("current on cpu0 = %v, want swapper", cur)
	}
	for _, cpu := range k.CPUs() {
		if cpu.Scratch == nil || len(cpu.Scratch.Data) == 0 {
			t.Fatalf("cpu %d has no scratch region", cpu.ID)
		}
	}
}

func TestOopsLogAndStats(t *testing.T) {
	k := NewDefault()
	k.Oops(OopsNullDeref, 0, "boom %d", 1)
	k.Oops(OopsRCUStall, 1, "stall")
	if k.Healthy() {
		t.Fatal("kernel healthy after oops")
	}
	oopses := k.Oopses()
	if len(oopses) != 2 {
		t.Fatalf("oops count = %d, want 2", len(oopses))
	}
	if oopses[0].Kind != OopsNullDeref || !strings.Contains(oopses[0].Msg, "boom 1") {
		t.Fatalf("first oops = %v", oopses[0])
	}
	if k.Stats.Oopses != 2 || k.Stats.RCUStalls != 1 {
		t.Fatalf("stats = %+v", k.Stats)
	}
	if k.LastOops().Kind != OopsRCUStall {
		t.Fatalf("last oops = %v", k.LastOops())
	}
}

func TestPanicOnOops(t *testing.T) {
	k := New(Config{NumCPU: 1, PanicOnOops: true})
	defer func() {
		r := recover()
		kp, ok := r.(KernelPanic)
		if !ok {
			t.Fatalf("recovered %v, want KernelPanic", r)
		}
		if kp.Oops.Kind != OopsBug {
			t.Fatalf("panic oops kind = %v", kp.Oops.Kind)
		}
	}()
	k.Oops(OopsBug, 0, "fatal")
	t.Fatal("Oops returned with PanicOnOops set")
}

func TestFaultOopsClassification(t *testing.T) {
	k := NewDefault()
	cases := []struct {
		cause string
		want  OopsKind
	}{
		{"null-deref", OopsNullDeref},
		{"unmapped", OopsUseAfterFree},
		{"oob", OopsBadAccess},
		{"prot", OopsBadAccess},
	}
	for _, c := range cases {
		o := k.FaultOops(&Fault{Addr: 0x1000, Size: 8, Cause: c.cause}, 0)
		if o.Kind != c.want {
			t.Errorf("cause %q -> %v, want %v", c.cause, o.Kind, c.want)
		}
	}
	if k.Stats.Faults != len(cases) {
		t.Fatalf("fault count = %d, want %d", k.Stats.Faults, len(cases))
	}
}

func TestTaskLifecycle(t *testing.T) {
	k := NewDefault()
	task := k.NewTask("nginx")
	if k.Task(task.PID) != task {
		t.Fatal("task not registered")
	}
	if task.PID == 0 || task.TGID != task.PID {
		t.Fatalf("task identity PID=%d TGID=%d", task.PID, task.TGID)
	}
	thread := k.NewThread(task, "nginx-worker")
	if thread.TGID != task.TGID || thread.PID == task.PID {
		t.Fatalf("thread identity PID=%d TGID=%d", thread.PID, thread.TGID)
	}
	// Stack is mapped while alive.
	if f := k.Mem.Write(task.Stack.Base, []byte{1}); f != nil {
		t.Fatalf("stack write: %v", f)
	}
	stackAddr := task.Stack.Base
	task.Exit()
	if !task.Dead() || k.Task(task.PID) != nil {
		t.Fatal("task still registered after exit")
	}
	// Stack freed at exit when no extra reference exists.
	if _, f := k.Mem.Read(stackAddr, 1); f == nil {
		t.Fatal("task stack still mapped after exit")
	}
}

func TestTaskStackRefKeepsStackAlive(t *testing.T) {
	k := NewDefault()
	task := k.NewTask("victim")
	ref := task.GetStack()
	addr := task.Stack.Base
	task.Exit()
	// Helper still holds a reference: stack must remain readable.
	if _, f := k.Mem.Read(addr, 1); f != nil {
		t.Fatalf("stack freed while referenced: %v", f)
	}
	ref.Put()
	if _, f := k.Mem.Read(addr, 1); f == nil {
		t.Fatal("stack still mapped after last put")
	}
}

func TestSetCurrent(t *testing.T) {
	k := NewDefault()
	task := k.NewTask("bash")
	prev := k.SetCurrent(2, task)
	if prev != nil {
		t.Fatalf("cpu2 had current %v", prev)
	}
	if k.Current(2) != task {
		t.Fatal("current not installed")
	}
}

func TestRefcountLifecycle(t *testing.T) {
	k := NewDefault()
	released := false
	r := k.Refs().New("obj", func() { released = true })
	base := k.Refs().Snapshot()
	r.Get()
	r.Put()
	if released {
		t.Fatal("released while count > 0")
	}
	r.Put()
	if !released {
		t.Fatal("not released at count 0")
	}
	if leaks := k.Refs().Leaked(base); len(leaks) != 0 {
		t.Fatalf("leaks = %v", leaks)
	}
}

func TestRefcountUnderflowOopses(t *testing.T) {
	k := NewDefault()
	r := k.Refs().New("obj", nil)
	r.Put()
	r.Put() // underflow
	if o := k.LastOops(); o == nil || o.Kind != OopsBug {
		t.Fatalf("underflow oops = %v", o)
	}
}

func TestRefcountGetAfterFreeOopses(t *testing.T) {
	k := NewDefault()
	r := k.Refs().New("obj", nil)
	r.Put()
	r.Get()
	if o := k.LastOops(); o == nil || o.Kind != OopsUseAfterFree {
		t.Fatalf("get-after-free oops = %v", o)
	}
}

func TestRefLeakAudit(t *testing.T) {
	k := NewDefault()
	base := k.Refs().Snapshot()
	k.Refs().New("leaked-sock", nil)
	leaks := k.Refs().AuditLeaks(base)
	if len(leaks) != 1 || leaks[0].Name() != "leaked-sock" {
		t.Fatalf("leaks = %v", leaks)
	}
	if o := k.LastOops(); o == nil || o.Kind != OopsRefLeak {
		t.Fatalf("leak oops = %v", o)
	}
}

func TestSymbolTable(t *testing.T) {
	s := NewSymTable()
	a := s.Define("bpf_map_lookup_elem")
	if b := s.Define("bpf_map_lookup_elem"); b != a {
		t.Fatal("redefinition changed address")
	}
	c := s.Define("bpf_map_update_elem")
	if c == a {
		t.Fatal("two symbols share an address")
	}
	if got, ok := s.Resolve("bpf_map_lookup_elem"); !ok || got != a {
		t.Fatalf("Resolve = %#x, %v", got, ok)
	}
	if name, ok := s.NameAt(c); !ok || name != "bpf_map_update_elem" {
		t.Fatalf("NameAt = %q, %v", name, ok)
	}
	if names := s.Names(); len(names) != 2 || names[0] != "bpf_map_lookup_elem" {
		t.Fatalf("Names = %v", names)
	}
}

func TestClockMonotonic(t *testing.T) {
	c := NewClock(1)
	if c.Now() != 0 {
		t.Fatal("clock not at zero on boot")
	}
	c.Advance(100)
	if c.Now() != 100 {
		t.Fatalf("Now = %d", c.Now())
	}
	mark := c.Now()
	c.Advance(50)
	if c.Since(mark) != 50 {
		t.Fatalf("Since = %d", c.Since(mark))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	c.Advance(-1)
}
