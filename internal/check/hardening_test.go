package check_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// panickyBuilder plants a panic reachable only via a specific
// preemption: the verifier panics iff process 1 observed the
// intermediate value of process 0's two-write update.
func panickyBuilder(ch sim.Chooser) (*sim.System, check.Verify) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 1, Chooser: ch, MaxSteps: 1 << 12})
	r := mem.NewReg("r")
	sawIntermediate := false
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
		AddInvocation(func(c *sim.Ctx) {
			c.Write(r, 1)
			c.Write(r, 2)
		})
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
		AddInvocation(func(c *sim.Ctx) {
			if c.Read(r) == 1 {
				sawIntermediate = true
			}
		})
	return sys, func(runErr error) error {
		if sawIntermediate {
			panic("verifier exploded")
		}
		return runErr
	}
}

// treeExplorers are the four tree-explorer configurations whose shared
// per-run protocol the table tests below pin: plain and reduced
// ExploreAll, plain and fingerprint-pruned ExploreBudget. budget is
// ignored by the ExploreAll configurations.
var treeExplorers = []struct {
	name   string
	prefix string // Violation.Schedule prefix
	run    func(build check.Builder, budget int, opts check.Options) *check.Result
}{
	{"ExploreAll", "decisions=", func(build check.Builder, _ int, opts check.Options) *check.Result {
		return check.ExploreAll(build, opts)
	}},
	{"ExploreAll-full", "decisions=", func(build check.Builder, _ int, opts check.Options) *check.Result {
		opts.Reduction = check.ReductionFull
		return check.ExploreAll(build, opts)
	}},
	{"ExploreBudget", "switches=", func(build check.Builder, budget int, opts check.Options) *check.Result {
		return check.ExploreBudget(build, budget, opts)
	}},
	{"ExploreBudget-fingerprint", "switches=", func(build check.Builder, budget int, opts check.Options) *check.Result {
		opts.Reduction = check.ReductionFingerprint
		return check.ExploreBudget(build, budget, opts)
	}},
}

// TestPanicContainment: a panicking verifier on some schedules must be
// recorded as a replayable violation — with the schedule intact — while
// every other schedule's result survives, on every tree explorer.
func TestPanicContainment(t *testing.T) {
	for _, tc := range treeExplorers {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.run(panickyBuilder, 2, check.Options{Parallelism: 4, MaxSchedules: 100000})
			if res.ViolationsTotal == 0 {
				t.Fatal("panicking schedules recorded no violations")
			}
			if res.Schedules <= res.ViolationsTotal {
				t.Fatalf("only panicking schedules counted: %d schedules, %d violations",
					res.Schedules, res.ViolationsTotal)
			}
			first := res.First()
			if !strings.HasPrefix(first.Schedule, tc.prefix) {
				t.Fatalf("violation lost its schedule: %q", first.Schedule)
			}
			if !strings.Contains(first.Err.Error(), "panic on schedule "+tc.prefix) ||
				!strings.Contains(first.Err.Error(), "verifier exploded") {
				t.Fatalf("panic not converted to a replayable violation: %v", first.Err)
			}
		})
	}
}

// TestExplorersReleaseSystems: every explorer closes every system it
// builds — a worker's pooled system when the worker exits, and a fresh
// system once its run is judged, even when the run stopped early with
// process coroutines parked — so explorations leave no goroutines
// behind.
func TestExplorersReleaseSystems(t *testing.T) {
	pooled, err := check.BuilderFor(artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 8})
	if err != nil {
		t.Fatal(err)
	}
	stepLimited := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: 1, Chooser: ch, MaxSteps: 3})
		for i := 0; i < 2; i++ {
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
				AddInvocation(func(c *sim.Ctx) { c.Local(4) })
		}
		return sys, func(runErr error) error { return runErr }
	}
	type explorer struct {
		name string
		run  func(check.Builder, check.Options) *check.Result
	}
	explorers := []explorer{{"Fuzz", func(build check.Builder, opts check.Options) *check.Result {
		return check.Fuzz(build, 50, opts)
	}}}
	for _, tc := range treeExplorers {
		explorers = append(explorers, explorer{tc.name, func(build check.Builder, opts check.Options) *check.Result {
			return tc.run(build, 2, opts)
		}})
	}
	for _, b := range []struct {
		name  string
		build check.Builder
	}{{"pooled", pooled}, {"step-limited", stepLimited}} {
		for _, e := range explorers {
			t.Run(b.name+"/"+e.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				for i := 0; i < 3; i++ {
					res := e.run(b.build, check.Options{Parallelism: 2, MaxSchedules: 50})
					if res.Schedules == 0 {
						t.Fatal("explored no schedules")
					}
				}
				// Exited workers may still be winding down; leaked
				// coroutines never do.
				after := runtime.NumGoroutine()
				for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
					after = runtime.NumGoroutine()
				}
				if after > before {
					t.Fatalf("3 explorations left %d goroutines behind", after-before)
				}
			})
		}
	}
}

// TestPanicContainmentDeterministic: schedule and violation counts for
// the completed subtrees are identical across parallelism levels even
// when some schedules panic.
func TestPanicContainmentDeterministic(t *testing.T) {
	seq := check.ExploreAll(panickyBuilder, check.Options{Parallelism: 1, MaxSchedules: 100000})
	for _, par := range []int{2, 4, 8} {
		res := check.ExploreAll(panickyBuilder, check.Options{Parallelism: par, MaxSchedules: 100000})
		if res.Schedules != seq.Schedules || res.ViolationsTotal != seq.ViolationsTotal {
			t.Fatalf("parallelism %d: (%d schedules, %d violations) != sequential (%d, %d)",
				par, res.Schedules, res.ViolationsTotal, seq.Schedules, seq.ViolationsTotal)
		}
		if res.First().Schedule != seq.First().Schedule {
			t.Fatalf("parallelism %d: first violation %q != sequential %q",
				par, res.First().Schedule, seq.First().Schedule)
		}
	}
}

// TestPanicInBuilderContained: a panic in the builder itself (before the
// run even starts) is contained the same way.
func TestPanicInBuilderContained(t *testing.T) {
	var calls atomic.Int64
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		if calls.Add(1) == 1 {
			panic("builder exploded")
		}
		sys := sim.New(sim.Config{Processors: 1, Quantum: 1, Chooser: ch})
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(1) })
		return sys, func(runErr error) error { return runErr }
	}
	res := check.Fuzz(build, 8, check.Options{Parallelism: 1})
	if res.ViolationsTotal != 1 {
		t.Fatalf("ViolationsTotal = %d, want 1", res.ViolationsTotal)
	}
	if res.Schedules != 8 {
		t.Fatalf("schedules after a builder panic = %d, want 8", res.Schedules)
	}
	if !strings.Contains(res.First().Err.Error(), "builder exploded") {
		t.Fatalf("builder panic not recorded: %v", res.First().Err)
	}
}

// TestContextCancelPartialResults: cancelling mid-exploration returns
// the schedules completed so far with Interrupted set.
func TestContextCancelPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var runs atomic.Int64
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		if runs.Add(1) == 10 {
			cancel()
		}
		sys := sim.New(sim.Config{Processors: 1, Quantum: 2, Chooser: ch})
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(4) })
		return sys, func(runErr error) error { return runErr }
	}
	res := check.Fuzz(build, 1_000_000, check.Options{Parallelism: 2, MaxSchedules: 1_000_000, Context: ctx})
	if !res.Interrupted {
		t.Fatal("Interrupted not set after cancellation")
	}
	if res.Schedules == 0 || res.Schedules >= 1_000_000 {
		t.Fatalf("schedules = %d, want partial progress", res.Schedules)
	}
}

// TestContextPreCancelled: an already-cancelled context returns
// immediately with no work done, for all three explorers.
func TestContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := check.Options{Context: ctx}
	build := twoProcBuilder(4, 2)
	for name, res := range map[string]*check.Result{
		"ExploreAll":    check.ExploreAll(build, opts),
		"ExploreBudget": check.ExploreBudget(build, 2, opts),
		"Fuzz":          check.Fuzz(build, 100, opts),
	} {
		if !res.Interrupted {
			t.Errorf("%s: Interrupted not set", name)
		}
		if res.Schedules != 0 {
			t.Errorf("%s: executed %d schedules under a cancelled context", name, res.Schedules)
		}
	}
}

// TestContextDeadline: a short deadline interrupts a large exploration
// at a schedule boundary with partial results.
func TestContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res := check.Fuzz(twoProcBuilder(8, 2), 100_000_000, check.Options{
		Parallelism: 2, MaxSchedules: 100_000_000, Context: ctx,
	})
	if !res.Interrupted {
		t.Fatal("deadline expiry did not set Interrupted")
	}
	if res.Schedules >= 100_000_000 {
		t.Fatal("exploration ran to completion despite the deadline")
	}
}

// TestWaitFreeBoundCatchesCrashedLockHolder is the robustness negative
// control: baseline.LockCounter's holder crashes while holding the lock,
// the survivor spins forever, and the WaitFreeBound property — not the
// step limit — must report it as a wait-freedom violation.
func TestWaitFreeBoundCatchesCrashedLockHolder(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		// Crash the holder right after its lock CAS and guarded read.
		crashing := sched.NewCrash(ch, sched.CrashPoint{Proc: 0, Step: 2})
		sys := sim.New(sim.Config{Processors: 1, Quantum: 4, Chooser: crashing, MaxSteps: 2000})
		ctr := baseline.NewLockCounter("ctr", 0)
		for i := 0; i < 2; i++ {
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
				AddInvocation(func(c *sim.Ctx) { ctr.Inc(c) })
		}
		return sys, func(runErr error) error { return runErr }
	}
	res := check.ExploreBudget(build, 0, check.Options{WaitFreeBound: 50})
	if res.StepLimited != 1 {
		t.Fatalf("StepLimited = %d, want 1 (survivor spins to the step limit)", res.StepLimited)
	}
	if res.ViolationsTotal != 1 {
		t.Fatalf("ViolationsTotal = %d, want 1", res.ViolationsTotal)
	}
	if !strings.Contains(res.First().Err.Error(), "wait-freedom violated") {
		t.Fatalf("violation is not the wait-freedom property: %v", res.First().Err)
	}
}

// TestWaitFreeBoundCatchesPriorityInversion: without any crash, a
// higher-priority spinner above a preempted lock holder (the paper's §1
// priority-inversion livelock) must also trip the bound under fuzzing.
func TestWaitFreeBoundCatchesPriorityInversion(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: 4, Chooser: ch, MaxSteps: 2000})
		ctr := baseline.NewLockCounter("ctr", 0)
		for i, pri := range []int{1, 2} {
			_ = i
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: pri}).
				AddInvocation(func(c *sim.Ctx) { ctr.Inc(c) })
		}
		return sys, func(runErr error) error { return runErr }
	}
	res := check.Fuzz(build, 64, check.Options{WaitFreeBound: 50})
	if res.ViolationsTotal == 0 {
		t.Fatal("priority-inversion livelock escaped WaitFreeBound under 64 seeds")
	}
	if res.StepLimited == 0 {
		t.Fatal("livelocked runs not tallied in StepLimited")
	}
	for _, v := range res.Violations {
		if !strings.Contains(v.Err.Error(), "wait-freedom violated") {
			t.Fatalf("unexpected violation kind: %v", v.Err)
		}
	}
}

// TestStepLimitNotConflatedWithViolations (and the converse): a verifier
// that merely echoes sim.ErrStepLimit records no violation — the abort
// is tallied in StepLimited — while a verifier mapping the abort to a
// distinct property error still records one.
func TestStepLimitNotConflatedWithViolations(t *testing.T) {
	spinner := func(verify func(error) error) check.Builder {
		return func(ch sim.Chooser) (*sim.System, check.Verify) {
			sys := sim.New(sim.Config{Processors: 1, Quantum: 2, Chooser: ch, MaxSteps: 100})
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
				AddInvocation(func(c *sim.Ctx) {
					for {
						c.Local(1)
					}
				})
			return sys, verify
		}
	}

	echo := check.Fuzz(spinner(func(runErr error) error { return runErr }), 5, check.Options{})
	if echo.StepLimited != 5 {
		t.Fatalf("StepLimited = %d, want 5", echo.StepLimited)
	}
	if !echo.OK() || echo.ViolationsTotal != 0 {
		t.Fatalf("echoed step limits recorded as violations: %+v", echo.Violations)
	}

	wrapped := check.Fuzz(spinner(func(runErr error) error {
		if errors.Is(runErr, sim.ErrStepLimit) {
			return fmt.Errorf("progress property failed: %w", errors.New(runErr.Error()))
		}
		return runErr
	}), 5, check.Options{})
	if wrapped.StepLimited != 5 {
		t.Fatalf("StepLimited = %d, want 5", wrapped.StepLimited)
	}
	if wrapped.ViolationsTotal != 5 {
		t.Fatalf("distinct property errors suppressed: ViolationsTotal = %d, want 5", wrapped.ViolationsTotal)
	}
}

// TestWaitFreeBoundIgnoresCrashedProcesses: a crashed process's partial
// invocation must not trip the bound (it is departed, not starving).
func TestWaitFreeBoundIgnoresCrashedProcesses(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		// Process 0 spins; it is crashed after 60 statements — beyond the
		// bound, but crashes are exempt. Process 1 finishes briskly.
		crashing := sched.NewCrash(ch, sched.CrashPoint{Proc: 0, Step: 60})
		sys := sim.New(sim.Config{Processors: 1, Quantum: 4, Chooser: crashing, MaxSteps: 2000})
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 2}).
			AddInvocation(func(c *sim.Ctx) {
				for {
					c.Local(1)
				}
			})
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) { c.Local(4) })
		return sys, func(runErr error) error { return runErr }
	}
	res := check.ExploreBudget(build, 0, check.Options{WaitFreeBound: 50})
	if !res.OK() {
		t.Fatalf("crashed process tripped the wait-free bound: %+v", res.First())
	}
}
