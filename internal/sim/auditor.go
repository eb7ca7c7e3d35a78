package sim

import "fmt"

// Auditor is an Observer that independently re-verifies the paper's
// scheduling axioms from the event stream alone, without trusting the
// kernel's internal bookkeeping. Wire it in as (or inside) the
// Config.Observer of any run and inspect Err afterwards; every
// algorithm-level result in this repository is only as trustworthy as
// these axioms, so the test suites run audited.
//
// Checked:
//
//   - Axiom 1: no statement executes while a higher-priority process on
//     the same processor is mid-invocation (it would be ready and must
//     run first).
//   - Axiom 2: when a process suffers a same-priority preemption, it has
//     executed at least Q of its own statements since resuming from its
//     previous same-priority preemption in the same invocation (its
//     first preemption may come at any time); higher-priority
//     interruptions do not count against the quantum.
//   - Event sanity: statements only from arrived processes, preemptions
//     only between equal priorities on one processor.
//   - Crash-stop semantics: a crashed process is departed — it must
//     never execute another statement, arrive, crash again, or appear
//     on either side of a preemption; its unfinished invocation must
//     not block lower-priority survivors (its Axiom 1 claim lapses).
type Auditor struct {
	quantum int
	procs   map[*Process]*auditState
	err     error
}

type auditState struct {
	active       bool // mid-invocation
	crashed      bool // halted by a crash-stop fault
	sinceResume  int  // own statements since last same-priority preemption
	preemptedInv bool // suffered a same-priority preemption this invocation
}

var _ Observer = (*Auditor)(nil)

// NewAuditor returns an auditor for systems with the given quantum.
func NewAuditor(quantum int) *Auditor {
	return &Auditor{quantum: quantum, procs: make(map[*Process]*auditState)}
}

// Err returns the first axiom violation observed, or nil.
func (a *Auditor) Err() error { return a.err }

// Reset clears the audit state for a pooled rerun (System.OnReset
// hooks): Config.Observer is fixed at New, so a reusable system reuses
// the same auditor across runs. Entries are zeroed in place rather than
// deleted: a zero entry audits exactly like a missing one, and keeping
// it makes a pooled rerun allocation-free.
func (a *Auditor) Reset() {
	//repro:allow maporder every entry is zeroed; the order cannot reach any output
	for _, s := range a.procs {
		*s = auditState{}
	}
	a.err = nil
}

func (a *Auditor) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("sim: axiom audit: "+format, args...)
	}
}

func (a *Auditor) state(p *Process) *auditState {
	s, ok := a.procs[p]
	if !ok {
		s = &auditState{}
		a.procs[p] = s
	}
	return s
}

// OnStatement implements Observer.
func (a *Auditor) OnStatement(ev StmtEvent) {
	p := ev.Proc
	s := a.state(p)
	if s.crashed {
		a.fail("step %d: crashed process %s executed a statement", ev.Step, p.Name())
		return
	}
	if !s.active {
		a.fail("step %d: %s executed a statement while not mid-invocation", ev.Step, p.Name())
		return
	}
	// Axiom 1: nothing above p may be mid-invocation on p's processor.
	//repro:allow maporder existence test; iteration order only picks which witness names the diagnostic
	for q, qs := range a.procs {
		if q != p && qs.active && q.Processor() == p.Processor() && q.Priority() > p.Priority() {
			a.fail("step %d: %s (pri %d) ran while %s (pri %d) was ready on processor %d",
				ev.Step, p.Name(), p.Priority(), q.Name(), q.Priority(), p.Processor())
			return
		}
	}
	s.sinceResume++
}

// OnSchedule implements Observer.
func (a *Auditor) OnSchedule(ev SchedEvent) {
	s := a.state(ev.Proc)
	if s.crashed {
		a.fail("step %d: %s event for crashed process %s", ev.Step, ev.Kind, ev.Proc.Name())
		return
	}
	switch ev.Kind {
	case SchedArrive:
		if s.active {
			a.fail("step %d: %s arrived while already mid-invocation", ev.Step, ev.Proc.Name())
			return
		}
		s.active = true
		s.sinceResume = 0
		s.preemptedInv = false
	case SchedInvEnd, SchedProcDone:
		s.active = false
	case SchedCrash:
		// Crash-stop: the process departs; its unfinished invocation no
		// longer claims its priority level (Axiom 1) and it earns no
		// quantum protection (Axiom 2) — it simply must never act again.
		s.active = false
		s.crashed = true
	case SchedPreempt:
		if ev.By == nil {
			a.fail("step %d: preemption of %s without a preemptor", ev.Step, ev.Proc.Name())
			return
		}
		if a.state(ev.By).crashed {
			a.fail("step %d: %s preempted by crashed process %s", ev.Step, ev.Proc.Name(), ev.By.Name())
			return
		}
		if ev.By.Priority() != ev.Proc.Priority() || ev.By.Processor() != ev.Proc.Processor() {
			a.fail("step %d: preemption of %s by %s crosses priority/processor",
				ev.Step, ev.Proc.Name(), ev.By.Name())
			return
		}
		if !s.active {
			a.fail("step %d: %s preempted while not mid-invocation", ev.Step, ev.Proc.Name())
			return
		}
		// Axiom 2.
		if s.preemptedInv && s.sinceResume < a.quantum {
			a.fail("step %d: %s re-preempted after only %d < Q=%d statements",
				ev.Step, ev.Proc.Name(), s.sinceResume, a.quantum)
			return
		}
		s.preemptedInv = true
		s.sinceResume = 0
	}
}

// Tee fans events out to several observers (e.g. an Auditor plus a
// trace recorder).
type Tee struct {
	// Observers receive every event in order.
	Observers []Observer
}

var _ Observer = (*Tee)(nil)

// OnStatement implements Observer.
func (t *Tee) OnStatement(ev StmtEvent) {
	for _, o := range t.Observers {
		o.OnStatement(ev)
	}
}

// OnSchedule implements Observer.
func (t *Tee) OnSchedule(ev SchedEvent) {
	for _, o := range t.Observers {
		o.OnSchedule(ev)
	}
}
