// Package sim implements a deterministic statement-level simulator of
// the multiprogrammed systems studied by Anderson & Moir (PODC 1999):
// N processes statically assigned to P processors, each processor
// running a hybrid scheduler that combines priority-based and
// quantum-based scheduling.
//
// # Model
//
// Execution proceeds one atomic statement at a time (the standard
// interleaving model for asynchronous shared memory). A statement is a
// shared read, a shared write, a C-consensus invocation, or an
// explicitly counted local statement. The paper measures the quantum Q
// in statements ("we find it convenient to more abstractly view a
// quantum as specifying a statement count"); so does the simulator.
//
// The per-processor hybrid schedulers enforce the paper's two axioms:
//
//   - Axiom 1 (priority-based scheduling): whenever a higher-priority
//     process on a processor is ready, it runs; lower-priority processes
//     are preempted immediately.
//   - Axiom 2 (quantum-based scheduling): a process executes at least Q
//     of its own statements between preemptions by processes of equal
//     priority, even if higher-priority processes preempt it in between;
//     the guarantee lapses when the process's current object invocation
//     terminates. A process that has not yet been preempted (within its
//     current invocation) may suffer its first preemption at any time —
//     its execution aligns arbitrarily with quantum boundaries, as the
//     paper's Preemption Axiom allows.
//
// All remaining nondeterminism — which processor advances, when thinking
// processes arrive, which equal-priority process receives the next
// quantum, and when legal preemptions actually happen — is delegated to
// a Chooser. Choosers range from seeded random schedulers to the crafted
// adversaries used in the paper's lower-bound proof and the exhaustive
// explorer in internal/check.
//
// # Mechanics
//
// Each process body runs on a runtime coroutine (iter.Pull); the kernel
// (the caller of Run) resumes exactly one process at a time, and the
// process executes exactly one atomic statement per grant before parking
// again. Control strictly alternates between kernel and process, so a
// grant is a single coroutine switch — no goroutines, channels, or
// scheduler trips — and shared accesses need no further synchronization.
//
// A System can be pooled across runs: builders that register state-reset
// hooks with OnReset make the system Reusable, and Reset restores it to
// its pre-run state (rewinding every process coroutine to the top of its
// program) so exploration replays allocate nothing.
package sim

import (
	"errors"
	"fmt"
)

// Decision describes one scheduling decision point: the set of processes
// any one of which may legally execute the next atomic statement.
// Candidates are ordered deterministically (by process ID).
type Decision struct {
	// Candidates holds the legally runnable processes; len ≥ 2 (the
	// kernel resolves singleton decisions itself) except for Decisions
	// passed to Crasher.Crashes, which are delivered at every scheduling
	// step and may have any number of candidates. The slice is only valid
	// for the duration of the call; choosers that retain it must copy.
	Candidates []*Process
	// Procs holds every registered process in ID order, including done
	// and crashed ones; fault-injecting choosers use it to crash
	// processes that are not currently candidates (e.g. a preempted
	// process mid-invocation).
	Procs []*Process
	// Step is the number of statements executed so far.
	Step int64
	// Sys is the system being scheduled. Footprint-aware choosers use it
	// to read the deterministic state fingerprint (Sys.Fingerprint).
	Sys *System
	// Since holds the accesses executed since the previous Pick call
	// (including statements the kernel granted without a decision point,
	// and crash events), oldest first. The slice is only valid for the
	// duration of the call; choosers that retain it must copy.
	Since []Access
}

// Independent reports whether candidates i and j's next statements
// commute: executing them in either order reaches the same system
// state, so a partial-order-reducing explorer need not branch on their
// relative order. The relation is deliberately conservative:
//
//   - both candidates must be parked mid-invocation with known next
//     footprints (arrivals never commute: they change scheduler state
//     and their first access is unknown until granted);
//   - the footprints must commute (distinct objects, or two reads of
//     the same object; consensus invocations of the same object never
//     commute — the first invocation decides);
//   - the candidates must run on different processors, or the quantum
//     must be 0: with Q > 0, ordering two same-processor grants decides
//     who preempts whom and therefore who holds quantum protection.
//
// Diagnostic counters (Process.Preemptions) are outside the relation:
// no explorer verdict observes them.
func (d Decision) Independent(i, j int) bool {
	p, q := d.Candidates[i], d.Candidates[j]
	pf, pok := p.NextFootprint()
	qf, qok := q.NextFootprint()
	if !pok || !qok {
		return false
	}
	if p.Processor() == q.Processor() && d.Sys.Quantum() > 0 {
		return false
	}
	return pf.Commutes(qf)
}

// PickAbort is the sentinel a Chooser may return from Pick to terminate
// the run at this decision point: the kernel unwinds every process and
// Run returns ErrPickAbort. Reduction-aware explorers use it to cut off
// schedules whose continuations are provably covered elsewhere.
const PickAbort = -1

// Chooser resolves scheduling nondeterminism. Pick must return an index
// into d.Candidates, or PickAbort to terminate the run.
type Chooser interface {
	Pick(d Decision) int
}

// Crasher is an optional Chooser extension implementing crash-stop
// fault injection. Before every scheduling step the kernel invites the
// chooser to halt processes permanently: a crashed process never
// executes another statement, its unfinished invocation stays
// unfinished, and the scheduler treats it as departed — its quantum
// protection and priority claims lapse without a preemption event, so
// Axiom 1/2 accounting for the survivors is unaffected. Victims that
// are already done or crashed are ignored; victims from a different
// System are a programming error (panic).
//
// A chooser wrapper that implements Crasher only by delegation may
// additionally implement CrashesArmed() bool; when it reports false the
// kernel skips the per-step Crashes call for the whole run.
type Crasher interface {
	Chooser
	// Crashes returns the processes to crash before this scheduling
	// step. d.Candidates is the pre-crash candidate set; d.Procs lists
	// all processes.
	Crashes(d Decision) []*Process
}

// crashArmed is the optional Crasher refinement consulted once per Run:
// wrappers whose inner chooser decides crash capability implement it so
// non-crashing runs pay no per-step Crashes overhead.
type crashArmed interface {
	CrashesArmed() bool
}

// ChooserFunc adapts a function to the Chooser interface.
type ChooserFunc func(d Decision) int

// Pick implements Chooser.
func (f ChooserFunc) Pick(d Decision) int { return f(d) }

// FirstChooser always picks the first (lowest-ID) candidate. It yields a
// deterministic, preemption-averse schedule: a process runs until its
// invocation ends unless a lower-ID process arrives at equal priority.
type FirstChooser struct{}

// Pick implements Chooser.
func (FirstChooser) Pick(Decision) int { return 0 }

// Config parameterizes a simulated system.
type Config struct {
	// Processors is the number of processors P (≥ 1).
	Processors int
	// Quantum is the scheduling quantum Q in atomic statements (≥ 0).
	// Q = 0 means equal-priority preemptions may occur at every
	// statement boundary (a purely priority-scheduled system).
	Quantum int
	// Chooser resolves nondeterminism; nil defaults to FirstChooser.
	Chooser Chooser
	// MaxSteps bounds the total number of statements executed; the run
	// fails with ErrStepLimit when exceeded. 0 defaults to 1<<22.
	MaxSteps int64
	// Observer, if non-nil, receives statement and scheduling events.
	Observer Observer
}

// Errors returned by Run.
var (
	// ErrStepLimit reports that the run exceeded Config.MaxSteps. Under
	// an unfair chooser this is how non-termination manifests.
	ErrStepLimit = errors.New("sim: statement limit exceeded")
	// ErrRunTwice reports a second Run call on the same System without an
	// intervening Reset.
	ErrRunTwice = errors.New("sim: system already run")
	// ErrPickAbort reports that the chooser terminated the run by
	// returning PickAbort; the run is incomplete by design (a pruned
	// schedule), not failed.
	ErrPickAbort = errors.New("sim: run aborted by chooser")
)

// System is a configured multiprogrammed system: processors, processes,
// and their programs. Build one with New and AddProcess, then call Run.
// A System is not safe for concurrent use.
//
// By default a System is single-shot: a second Run returns ErrRunTwice.
// Builders that register OnReset hooks restoring every shared object and
// output buffer to its initial state make the system reusable: Reset +
// Run replays the identical workload without reallocating processes,
// coroutines, or kernel buffers.
type System struct {
	cfg     Config
	procs   []*Process
	byProc  [][]*Process // processes per processor
	holders [][]*Process // per processor, indexed by priority; nil = free
	steps   int64
	ran     bool
	sealed  bool // set at first Run: the process/program set is frozen
	failure error

	resetHooks []func()

	// candBuf is the reusable candidate buffer candidates() fills each
	// scheduling step.
	candBuf []*Process

	// memFP is the incremental memory-state fingerprint: the XOR of
	// every shared object's StateHash, updated by the Ctx accessors as
	// objects change. Order-independent by construction, so equal memory
	// states fingerprint equally no matter how they were reached.
	memFP uint64
	// procFP is the incremental process-state fingerprint: the XOR of
	// every process's cached contribution (see fingerprint.go). Kernel
	// mutations mark processes dirty; Fingerprint folds deltas in
	// lazily.
	procFP uint64
	// since accumulates executed accesses between decision points for
	// Decision.Since.
	since []Access
}

// New returns an empty system with the given configuration.
func New(cfg Config) *System {
	if cfg.Processors < 1 {
		panic(fmt.Sprintf("sim: need >= 1 processor, got %d", cfg.Processors))
	}
	if cfg.Quantum < 0 {
		panic(fmt.Sprintf("sim: negative quantum %d", cfg.Quantum))
	}
	if cfg.Chooser == nil {
		cfg.Chooser = FirstChooser{}
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1 << 22
	}
	return &System{
		cfg:     cfg,
		byProc:  make([][]*Process, cfg.Processors),
		holders: make([][]*Process, cfg.Processors),
	}
}

// ProcSpec describes a process to add to a system.
type ProcSpec struct {
	// Name is a diagnostic label; defaults to "p<ID>".
	Name string
	// Processor is the processor index in [0, Config.Processors).
	Processor int
	// Priority is the process's priority, 1..V with V highest, matching
	// the paper's convention. Must be ≥ 1.
	Priority int
}

// AddProcess registers a process. Its program is the sequence of object
// invocations added with Process.AddInvocation; between invocations the
// process is "thinking" and arrives when the scheduler (Chooser) elects.
func (s *System) AddProcess(spec ProcSpec) *Process {
	if s.sealed {
		panic("sim: AddProcess after Run")
	}
	if spec.Processor < 0 || spec.Processor >= s.cfg.Processors {
		panic(fmt.Sprintf("sim: processor %d out of range [0,%d)", spec.Processor, s.cfg.Processors))
	}
	if spec.Priority < 1 {
		panic(fmt.Sprintf("sim: priority must be >= 1, got %d", spec.Priority))
	}
	p := &Process{
		id:        len(s.procs),
		name:      spec.Name,
		processor: spec.Processor,
		pri:       spec.Priority,
		origPri:   spec.Priority,
		sys:       s,
	}
	p.ctx = &Ctx{p: p}
	if p.name == "" {
		p.name = fmt.Sprintf("p%d", p.id)
	}
	s.procs = append(s.procs, p)
	s.byProc[spec.Processor] = append(s.byProc[spec.Processor], p)
	return p
}

// OnReset registers a hook Reset runs after clearing kernel and process
// state. Builders use hooks to restore shared objects and output buffers
// to their initial values; registering any hook marks the system
// Reusable. Hooks run in registration order. A hook resets objects in
// place rather than rebuilding them: it keeps their grown storage and
// their names, and restores values outside any Ctx, so every object's
// StateHash is back to 0 as Reset's memory fingerprint assumes.
func (s *System) OnReset(hook func()) {
	if hook == nil {
		panic("sim: nil OnReset hook")
	}
	s.resetHooks = append(s.resetHooks, hook)
}

// Reusable reports whether the builder declared the system safe to rerun
// after Reset (it registered at least one OnReset hook).
func (s *System) Reusable() bool { return len(s.resetHooks) > 0 }

// Reset rewinds the system to its pre-run state so Run may be called
// again: kernel counters and buffers clear, every process returns to the
// top of its program (same invocations, original priority), and the
// registered OnReset hooks restore shared state. The chooser is not
// touched — callers swap or reset it themselves.
//
// Reset must not be called while a Run is in progress; after a panic
// escaped Run (e.g. out of a chooser), discard the System instead of
// resetting it — process coroutines may be parked mid-invocation.
func (s *System) Reset() {
	s.steps = 0
	s.ran = false
	s.failure = nil
	s.memFP = 0
	s.procFP = 0
	s.since = s.since[:0]
	for i := range s.holders {
		hs := s.holders[i]
		for j := range hs {
			hs[j] = nil
		}
	}
	for _, p := range s.procs {
		p.reset()
	}
	for _, h := range s.resetHooks {
		h()
	}
}

// Close tears down the process coroutines. A closed system cannot Run
// again; Close is safe to call at any point, including after a panic
// escaped Run with coroutines parked mid-invocation.
func (s *System) Close() {
	for _, p := range s.procs {
		if p.stop != nil {
			p.stop()
		}
	}
}

// Steps returns the number of statements executed so far.
func (s *System) Steps() int64 { return s.steps }

// CrashedCount returns how many processes were halted by crash-stop
// faults during the run.
func (s *System) CrashedCount() int {
	n := 0
	for _, p := range s.procs {
		if p.crashed {
			n++
		}
	}
	return n
}

// Processes returns the registered processes in ID order. The returned
// slice must not be modified.
func (s *System) Processes() []*Process { return s.procs }

// Quantum returns the configured scheduling quantum Q.
func (s *System) Quantum() int { return s.cfg.Quantum }
