// Package check provides schedule-space exploration and property
// checking for algorithms running on the internal/sim simulator.
//
// Three strategies are offered:
//
//   - ExploreAll: exhaustive DFS over every scheduling decision — the
//     full schedule tree. Feasible only for very small configurations.
//   - ExploreBudget: exhaustive DFS over schedules that deviate from the
//     default run-to-completion schedule in at most B places. For
//     quantum/priority-scheduled algorithms all interesting behaviour is
//     triggered by preemptions, so a small deviation budget covers the
//     cases the paper's proofs reason about (e.g. "at most one quantum
//     preemption per invocation").
//   - Fuzz: many seeded pseudo-random schedules.
//
// Each run executes a system from a Builder (built fresh, or pooled and
// reset; see Per-run cost below) and is then verified by the Verify
// function the builder returned; violations are collected with a
// replayable description of the offending schedule.
//
// # Parallel exploration
//
// All three explorers fan work out over Options.Parallelism worker
// goroutines (default runtime.NumCPU()). ExploreAll and ExploreBudget
// partition the schedule tree: each worker owns a Chase–Lev
// work-stealing deque of decision-vector subtrees, pushing and popping
// children LIFO at the bottom and stealing the shallowest (largest)
// subtree from another worker's top only when its own deque runs dry
// (a subtree hand-off is a pure replay prefix, so no run state crosses
// workers; Result.Steals counts the hand-offs). Fuzz shards the seed
// range over workers via an atomic counter. Parallelism: 1 bypasses
// the worker pool and all cross-worker machinery entirely — the
// frontier is a plain stack on the calling goroutine — so sequential
// exploration pays no parallelism tax.
//
// Per-run cost: each worker pools one built system across all the
// schedules it executes when the builder constructs a reusable system
// (one with sim.System.OnReset hooks — every registered artifact
// workload); the steady-state replay loop then performs no heap
// allocation. Builders without reset hooks fall back to one fresh
// build per run. Explorers close every system they build: a fresh one
// once its run is judged, a pooled one when its worker exits.
//
// Builder reentrancy contract: because the Builder is called
// concurrently by the workers, it must be reentrant — every shared
// object, output slice, history collector, and any other per-run state
// must be created inside the builder, never captured from an enclosing
// scope and reused across runs. (A check.History in particular records
// one run at a time and must be created per build.) All builders in
// this repository follow this contract; Parallelism: 1 restores strict
// sequential execution for builders that cannot.
//
// Determinism guarantee: violations are merged in canonical schedule
// order (lexicographic decision vector for ExploreAll, lexicographic
// (index, choice) switch word for ExploreBudget, seed order for Fuzz),
// so for explorations that run to completion the Result — Schedules,
// Truncated, Violations, ViolationsTotal, and Result.First() — is
// byte-identical run-to-run and identical to the sequential
// (Parallelism: 1) engine, regardless of worker timing. When an
// exploration is cut short (StopAtFirst fires, or MaxSchedules
// truncates a parallel run), the number of schedules executed — and
// therefore which violations were reachable — can depend on worker
// timing; StopAtFirst still guarantees at least one violation is
// returned if any exists, and First() is the canonically smallest
// violation among those found.
//
// # Reductions
//
// Options.Reduction enables sleep-set partial-order reduction and/or
// visited-fingerprint pruning (DESIGN.md §10). Reductions preserve
// verdicts — a reduced exploration that runs to completion finds a
// violation iff the plain one does — but ViolationsTotal becomes a
// lower bound (equivalent interleavings collapse), and with
// Parallelism > 1 the reduced schedule counts (never verdicts) can
// vary run-to-run because fingerprint-cache insertion order is
// timing-dependent; Parallelism: 1 restores byte-identical counts.
// Violations found under reduction carry ordinary decision vectors, so
// artifact replay and shrinking are unchanged.
package check

import (
	"context"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/minimize"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Verify checks the outcome of one completed run. runErr is the error
// returned by System.Run (nil, ErrStepLimit, or a process panic); the
// verifier decides what constitutes a violation and returns a non-nil
// error for one.
type Verify func(runErr error) error

// Builder constructs a fresh system (with fresh shared objects) wired to
// the given chooser, returning the system and its outcome verifier.
//
// Builders must be reentrant: explorers call them from Parallelism
// concurrent workers, so all per-run state must be created inside the
// builder (see the package comment).
type Builder func(ch sim.Chooser) (*sim.System, Verify)

// ProgressInfo is a snapshot of a running exploration, delivered to
// Options.Progress.
type ProgressInfo struct {
	// Schedules is the number of schedules executed so far.
	Schedules int64
	// Violations is the number of violations found so far (uncapped).
	Violations int64
	// Elapsed is the wall-clock time since the exploration started.
	Elapsed time.Duration
	// SchedulesPerSec is the mean throughput since the start.
	SchedulesPerSec float64
}

// Options bounds an exploration.
type Options struct {
	// MaxSchedules caps the number of schedules executed (0 = 200000).
	MaxSchedules int
	// StopAtFirst stops at the first violation when true.
	StopAtFirst bool
	// MaxViolations caps recorded violations (0 = 16). Violations beyond
	// the cap are dropped from Violations but still counted in
	// ViolationsTotal.
	MaxViolations int
	// Parallelism is the number of worker goroutines exploring
	// concurrently (0 = runtime.NumCPU(), 1 = strict sequential). The
	// Builder must be reentrant for Parallelism > 1; see the package
	// comment.
	Parallelism int
	// Progress, if non-nil, is called (serialized, from a worker
	// goroutine) every ProgressEvery executed schedules with a
	// throughput snapshot.
	Progress func(ProgressInfo)
	// ProgressEvery is the schedule interval between Progress calls
	// (0 = 1000).
	ProgressEvery int
	// WaitFreeBound, if > 0, enforces wait-freedom as a per-run
	// property: a run violates it when any live (non-crashed) process
	// executes more than WaitFreeBound of its own statements within a
	// single invocation — regardless of what other processes do,
	// including crashing or stalling. The bound counts a process's OWN
	// statements (Process.WorstInvStmts), so an adversary starving a
	// process does not trip it; only unbounded retrying or spinning
	// does. Derive the bound from the paper's results: constant
	// (unicons.Stmts) for Fig. 3, O(V) for Fig. 5, polynomial in the
	// level count L for Fig. 7/Theorem 4.
	WaitFreeBound int64
	// Context, if non-nil, bounds the exploration in wall-clock time:
	// when it is cancelled or its deadline expires, workers stop
	// claiming schedules and the explorer returns the results collected
	// so far with Result.Interrupted set. Cancellation is honored at
	// schedule boundaries — an in-flight run completes first (a single
	// run is bounded by its system's MaxSteps).
	Context context.Context
	// CollectDecisions records the canonical decision vector of each
	// violating run in Violation.Decisions. The tree explorers capture
	// it for free; Fuzz pays one recording wrapper per run, so the
	// capture is opt-in. Implied by ArtifactMeta and Minimize.
	CollectDecisions bool
	// ArtifactMeta, if non-nil, declares that the Builder constructs
	// exactly the registered artifact workload this meta describes (use
	// BuilderFor to guarantee it). After the exploration finishes, each
	// recorded violation is re-executed from its decision vector and a
	// repro bundle is attached (Violation.Artifact); a violation whose
	// replay does not reproduce gets Violation.ForensicsErr instead. A
	// zero meta WaitFreeBound inherits Options.WaitFreeBound.
	ArtifactMeta *artifact.Meta
	// Reduction selects the exploration reductions (sleep-set
	// partial-order reduction, visited-fingerprint pruning, or both).
	// The zero value ReductionNone preserves the historical plain
	// enumeration exactly. Reductions preserve verdicts — a reduced
	// exploration that runs to completion finds a violation iff the
	// plain one does — but not violation counts: equivalent
	// interleavings collapse into one representative, so
	// ViolationsTotal under reduction is a lower bound on the plain
	// count. ExploreBudget honors only the fingerprint component; Fuzz
	// ignores Reduction entirely (pruning a single random path loses
	// coverage instead of saving it).
	Reduction Reduction
	// RunDeadline, if > 0, bounds each run in wall-clock time: a run
	// whose chooser is still being consulted past the deadline is cut
	// off (sched.Watchdog), retried once from scratch, and — if it times
	// out again — skipped and counted in Result.TimedOutRuns instead of
	// hanging the exploration. The subtree below a skipped schedule is
	// not descended into, so TimedOutRuns > 0 means coverage is partial;
	// the point of the watchdog is that a stuck schedule degrades to a
	// counted incident, never a wedged campaign.
	RunDeadline time.Duration
	// MemSoftLimit, if > 0, is a soft heap ceiling in bytes: the
	// collector polls the heap every ProgressEvery schedules and, while
	// over the limit, degrades gracefully one step per poll — shedding
	// the fingerprint cache first (reduced modes), then halving the
	// workers allowed to claim new work, down to one. Steps preserve
	// verdicts (under reduction they can only increase schedule counts)
	// and are reported in Result.Degradations.
	MemSoftLimit uint64
	// ExportFrontier, when the exploration is cut short (Context
	// cancellation, MaxSchedules truncation, StopAtFirst), collects
	// every unexplored subtree into Result.Frontier instead of dropping
	// it; feeding that frontier back via SeedFrontier continues the
	// exploration exactly where it left off. Supported by the plain
	// (ReductionNone) ExploreAll and ExploreBudget explorers; the
	// reduced paths and Fuzz ignore it.
	ExportFrontier bool
	// SeedFrontier, if non-nil, starts the exploration from a previously
	// exported frontier's subtrees instead of the root. The frontier
	// must come from the same explorer over the same builder, and the
	// exploration must use ReductionNone: the tree explorers panic on a
	// foreign Frontier.Explorer or on a seed under any reduction. Fuzz
	// ignores it.
	SeedFrontier *Frontier
	// SchedModel selects the scheduler model Fuzz draws schedules from
	// (nil = the historical seeded sched.Random). Each seed's chooser
	// is the model rebuilt (or reseeded, for Reseedable single-node
	// specs) with every stochastic node's seed derived from (its
	// configured seed, the run seed) — so the sweep is deterministic
	// per (spec, seed range) and any single run replays from its
	// derived spec. Wrapper specs (e.g. randomcrash around markov)
	// inject faults exactly as the legacy crash-fuzz wiring did. The
	// spec must validate (sched.ModelSpec.Validate); Fuzz panics on an
	// invalid spec, as on any builder misuse. Tree explorers ignore
	// SchedModel: their schedules are decision vectors, not draws.
	SchedModel *sched.ModelSpec
	// Measure enables the "practically wait-free" measurement mode in
	// Fuzz: every executed run's per-invocation own-statement counts
	// (completed, plus censored in-flight counts of non-crashed
	// processes) are accumulated into a histogram, reduced to
	// Result.Progress. Worker-local accumulation with commutative
	// merge keeps the report byte-identical across Parallelism levels.
	// Runs skipped by RunDeadline and runs that panicked are not
	// measured. Tree explorers ignore Measure.
	Measure bool
	// Minimize shrinks each recorded violation's bundle to a minimal
	// still-failing kernel (internal/minimize) before attaching it.
	// Requires ArtifactMeta. Shrinking happens after exploration, fanned
	// over the worker pool, and is bounded per violation by
	// ShrinkBudget, so exploration throughput is unaffected.
	Minimize bool
	// ShrinkBudget caps candidate replays per shrunk violation
	// (0 = minimize.DefaultBudget).
	ShrinkBudget int
}

func (o Options) maxSchedules() int {
	if o.MaxSchedules <= 0 {
		return 200000
	}
	return o.MaxSchedules
}

func (o Options) maxViolations() int {
	if o.MaxViolations <= 0 {
		return 16
	}
	return o.MaxViolations
}

func (o Options) parallelism() int {
	if o.Parallelism <= 0 {
		return runtime.NumCPU()
	}
	return o.Parallelism
}

// needDecisions reports whether Fuzz must pay for a per-run recording
// wrapper to capture decision vectors.
func (o Options) needDecisions() bool {
	return o.CollectDecisions || o.Minimize || o.ArtifactMeta != nil
}

func (o Options) progressEvery() int64 {
	if o.ProgressEvery <= 0 {
		return 1000
	}
	return int64(o.ProgressEvery)
}

// Violation describes one failed run.
type Violation struct {
	// Schedule is a replayable description of the offending schedule.
	Schedule string
	// Err is the verifier's error.
	Err error
	// Decisions is the canonical script-mode decision vector of the
	// violating run (candidate index at each decision point, trailing
	// zeros trimmed), replayable through sched.Script or an artifact
	// bundle. Captured by the tree explorers always, by Fuzz when
	// Options.CollectDecisions (or ArtifactMeta/Minimize) is set, and
	// never for runs that panicked before completing.
	Decisions []int
	// Artifact is the violation's repro bundle (Options.ArtifactMeta),
	// minimized first when Options.Minimize is set.
	Artifact *artifact.Bundle
	// Shrink reports what minimization did (Options.Minimize).
	Shrink *minimize.Stats
	// ForensicsErr records why bundle capture or shrinking failed for
	// this violation (e.g. the builder is not the declared registered
	// workload); the violation itself is still valid.
	ForensicsErr error
}

// Result summarizes an exploration.
type Result struct {
	// Schedules is the number of schedules executed.
	Schedules int
	// Violations holds recorded violations in canonical schedule order,
	// capped at Options.MaxViolations.
	Violations []Violation
	// ViolationsTotal counts every violation found, including those the
	// MaxViolations cap dropped from Violations: a capped Result is
	// thereby distinguishable from one with exactly MaxViolations
	// failures.
	ViolationsTotal int
	// Truncated reports whether MaxSchedules cut the exploration short.
	Truncated bool
	// Aliased counts replays skipped because a scripted decision was
	// clamped (sched.Script.Clamped): such runs alias an in-range
	// decision vector and would double-count schedules. Always zero for
	// builders that are deterministic functions of the decision
	// sequence.
	Aliased int
	// StepLimited counts runs aborted by sim.ErrStepLimit
	// (Config.MaxSteps). A step-limit abort is an incomplete run, not by
	// itself a property violation, so it is tallied here instead of
	// being conflated with Violations: a verifier that merely echoes the
	// run error (errors.Is(verr, sim.ErrStepLimit)) records no
	// violation for such a run, while a verifier that maps the abort to
	// a distinct property error — or the WaitFreeBound check firing on
	// the aborted run — still does.
	StepLimited int
	// Steals counts work items taken from another worker's deque during
	// parallel exploration (always 0 for Parallelism 1, whose frontier
	// is a plain stack, and for Fuzz, which shards seeds instead). A
	// diagnostic only: it varies run-to-run with worker timing and
	// carries no determinism guarantee.
	Steals int64
	// Interrupted reports whether Options.Context was cancelled before
	// the exploration completed; Schedules then covers only the runs
	// finished before cancellation.
	Interrupted bool
	// TimedOutRuns counts schedules skipped by Options.RunDeadline: the
	// run exceeded the per-run deadline twice (original plus one retry)
	// and was cut off rather than allowed to hang the exploration. A
	// skipped schedule still counts in Schedules; its subtree is not
	// descended into.
	TimedOutRuns int
	// Degradations records the memory-pressure mitigation steps taken
	// under Options.MemSoftLimit, in order.
	Degradations []string
	// Frontier holds the unexplored remainder of a cut-short exploration
	// when Options.ExportFrontier is set (nil when the exploration ran
	// to completion — resuming from an empty frontier is a no-op — or
	// when the explorer does not support export). Pass it back via
	// Options.SeedFrontier to continue.
	Frontier *Frontier
	// Reduction reports what the reductions did; nil when
	// Options.Reduction was ReductionNone or the explorer ignores
	// reduction (Fuzz).
	Reduction *ReductionStats
	// Progress is the empirical progress-bound report of a measured
	// exploration (Options.Measure); nil otherwise.
	Progress *ProgressStats
}

// OK reports whether no violation was found.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// First returns the first violation in canonical schedule order, or nil.
func (r *Result) First() *Violation {
	if len(r.Violations) == 0 {
		return nil
	}
	return &r.Violations[0]
}
