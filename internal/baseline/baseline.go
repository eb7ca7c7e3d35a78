// Package baseline implements the comparators the paper's results are
// measured against:
//
//   - Naive: a quantum-oblivious read/write consensus attempt (adopt a
//     single register). It is what one would write without the paper's
//     scheduler-conscious machinery and is broken under any preemption —
//     the negative control showing Fig. 3's structure is necessary.
//   - Direct: processes invoke one C-consensus object directly, the
//     Herlihy-hierarchy baseline: without the paper's port discipline,
//     participants beyond the C-th learn nothing (⊥). This is also the
//     engine of the Theorem 3 lower-bound argument (Fig. 6/Fig. 10): the
//     adversary staggers quanta so that 2P−Q processes hit the object.
//   - LockCounter: a counter guarded by a CAS spinlock (a primitive even
//     stronger than anything the paper uses). Blocking synchronization
//     deadlocks under hybrid scheduling — a preempted lock holder can
//     never run again below a spinning higher-priority waiter (priority
//     inversion) — which is the paper's §1 motivation for wait-freedom
//     in multiprogrammed systems.
package baseline

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// Naive is the quantum-oblivious consensus attempt: read a register,
// write your proposal if it looked empty, return what you then read.
type Naive struct {
	r *mem.Reg
}

// NewNaive returns a fresh naive consensus object.
func NewNaive(name string) *Naive {
	return &Naive{r: mem.NewReg(name + ".R")}
}

// Decide runs the naive protocol. It violates agreement whenever a
// process is preempted between its read and its write — which hybrid
// scheduling permits regardless of the quantum, since a process's first
// preemption may occur at any time.
func (n *Naive) Decide(c *sim.Ctx, val mem.Word) mem.Word {
	if v := c.Read(n.r); v != mem.Bottom {
		return v
	}
	c.Write(n.r, val)
	return c.Read(n.r)
}

// Direct has every process invoke a single C-consensus object. With at
// most C participants it solves consensus; the (C+1)-th invoker gets ⊥,
// reproducing the resource-exhaustion core of the Theorem 3 lower bound.
type Direct struct {
	o *mem.ConsObject
}

// NewDirect returns a direct C-consensus wrapper.
func NewDirect(name string, c int) *Direct {
	return &Direct{o: mem.NewConsObject(name+".O", c)}
}

// Decide invokes the object once and returns its response (⊥ after the
// C-th invocation).
func (d *Direct) Decide(c *sim.Ctx, val mem.Word) mem.Word {
	return c.CCons(d.o, val)
}

// Invocations returns the object's invocation count. Post-run only.
func (d *Direct) Invocations() int {
	//repro:allow post-run invocation-limit checks read the count after the run completes
	return d.o.Invocations()
}

// LockCounter is a shared counter protected by a CAS spinlock. Acquire
// spins; a process preempted while holding the lock blocks all waiters,
// and a higher-priority spinner on the same processor blocks the holder
// forever (priority-inversion livelock).
type LockCounter struct {
	lock  *mem.CASObject
	value *mem.Reg
}

// NewLockCounter returns a lock-based counter starting at initial.
func NewLockCounter(name string, initial mem.Word) *LockCounter {
	return &LockCounter{
		lock:  mem.NewCASObject(name+".lock", 0),
		value: mem.NewRegInit(name+".value", initial),
	}
}

// Reset restores the initial value and frees the lock for a pooled rerun
// (sim.System.OnReset hooks). Must not be called mid-run.
func (l *LockCounter) Reset() {
	l.lock.Reset()
	l.value.Reset()
}

// Inc increments the counter under the lock and returns the prior
// value. It blocks (spins) while the lock is held; under hybrid
// scheduling this can spin forever.
func (l *LockCounter) Inc(c *sim.Ctx) mem.Word {
	me := mem.Word(c.ID() + 1)
	//repro:bound unbounded blocking negative control: a quantum-preempted lock holder leaves every waiter spinning forever — the §1 priority-inversion scenario the wait-free constructions exist to avoid
	for !c.CASPrim(l.lock, 0, me) {
	}
	v := c.Read(l.value)
	c.Write(l.value, v+1)
	c.CASPrim(l.lock, me, 0)
	return v
}

// Peek returns the current value. Post-run inspection only.
func (l *LockCounter) Peek() mem.Word {
	//repro:allow post-run inspection helper; reads the counter after the run completes
	return l.value.Load()
}
