package kernel

import (
	"fmt"
	"sync"
)

// SpinLock is a simulated kernel spin lock. It does not actually spin —
// experiments are deterministic — but it records ownership so the lockdep
// analogue can detect double acquisition, cross-context contention that can
// never resolve (deadlock), and locks still held when an extension exits.
type SpinLock struct {
	Name  string
	mu    sync.Mutex
	owner *Context
}

// Owner returns the context currently holding the lock, or nil.
func (l *SpinLock) Owner() *Context {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.owner
}

// LockDep tracks lock acquisition per execution context. It enforces the
// two disciplines the eBPF verifier enforces statically for bpf_spin_lock —
// at most one extension lock held at a time, and no lock held at program
// exit — but at runtime, which is where the safext framework checks them.
//
// The locks a context holds are listed on the Context itself: a context
// belongs to one goroutine, so acquisition and the exit audit need no
// shared table and no lock beyond the spin lock's own.
type LockDep struct {
	k *Kernel
}

func newLockDep(k *Kernel) *LockDep { return &LockDep{k: k} }

// NewLock creates a named spin lock.
func (ld *LockDep) NewLock(name string) *SpinLock { return &SpinLock{Name: name} }

// Acquire takes the lock for ctx. Self-deadlock (re-acquiring a held lock)
// and cross-context deadlock (lock held by a context that cannot run,
// because the simulator runs one extension at a time) produce an oops and
// report failure.
func (ld *LockDep) Acquire(ctx *Context, l *SpinLock) bool {
	l.mu.Lock()
	owner := l.owner
	if owner == nil {
		l.owner = ctx
	}
	l.mu.Unlock()

	if owner == ctx {
		ld.k.Oops(OopsDeadlock, ctx.CPUID, "lockdep: recursive acquisition of %q", l.Name)
		return false
	}
	if owner != nil {
		ld.k.Oops(OopsDeadlock, ctx.CPUID,
			"lockdep: %q held by another context; spinning forever", l.Name)
		return false
	}
	ctx.held = append(ctx.held, l)
	return true
}

// Release drops the lock. Releasing a lock the context does not hold oopses.
func (ld *LockDep) Release(ctx *Context, l *SpinLock) bool {
	l.mu.Lock()
	if l.owner != ctx {
		l.mu.Unlock()
		ld.k.Oops(OopsBug, ctx.CPUID, "lockdep: release of %q by non-owner", l.Name)
		return false
	}
	l.owner = nil
	l.mu.Unlock()

	for i, got := range ctx.held {
		if got == l {
			n := copy(ctx.held[i:], ctx.held[i+1:])
			ctx.held[i+n] = nil
			ctx.held = ctx.held[:i+n]
			break
		}
	}
	return true
}

// Held returns the locks ctx currently holds.
func (ld *LockDep) Held(ctx *Context) []*SpinLock {
	if len(ctx.held) == 0 {
		return nil
	}
	return append([]*SpinLock(nil), ctx.held...)
}

// AuditExit checks that ctx exits clean: any lock still held is force-
// released (so the kernel survives) and reported as a deadlock oops,
// mirroring the lockup a leaked bpf_spin_lock causes on Linux. A context
// holding nothing returns nil without copying anything.
func (ld *LockDep) AuditExit(ctx *Context) []*SpinLock {
	if len(ctx.held) == 0 {
		return nil
	}
	leaked := ld.Held(ctx)
	for _, l := range leaked {
		ld.k.Oops(OopsDeadlock, ctx.CPUID,
			"lockdep: context exited holding %q; all future acquirers would spin", l.Name)
		ld.Release(ctx, l)
	}
	return leaked
}

// ForceReleaseAll releases every lock held by ctx without reporting an
// oops. The safext runtime uses it during trusted cleanup after a
// termination, where releasing is the correct, safe behaviour.
func (ld *LockDep) ForceReleaseAll(ctx *Context) int {
	locks := ld.Held(ctx)
	for _, l := range locks {
		ld.Release(ctx, l)
	}
	return len(locks)
}

func (l *SpinLock) String() string { return fmt.Sprintf("spinlock(%s)", l.Name) }
