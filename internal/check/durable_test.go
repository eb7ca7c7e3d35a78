package check_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/sim"
)

// racyCounterBuilder is a 2-process racy read-modify-write counter with
// a lost-update bug reachable only under preemption — the standard
// workload for resume tests that must carry violations across legs.
func racyCounterBuilder(ch sim.Chooser) (*sim.System, check.Verify) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 2, Chooser: ch, MaxSteps: 1 << 12})
	r := mem.NewReg("r")
	for i := 0; i < 2; i++ {
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
			AddInvocation(func(c *sim.Ctx) {
				v := c.Read(r)
				if v == mem.Bottom {
					v = 0
				}
				c.Write(r, v+1)
			})
	}
	verify := func(runErr error) error {
		if runErr != nil {
			return runErr
		}
		if r.Load() != 2 {
			return fmt.Errorf("lost update: final=%d", r.Load())
		}
		return nil
	}
	return sys, verify
}

// resumeToCompletion repeatedly seeds the exported frontier back into
// leg until the frontier drains, JSON round-tripping it between legs to
// prove it survives serialization (the campaign checkpoint path).
// Returns the summed schedule and violation counts over all legs.
func resumeToCompletion(t *testing.T, leg func(f *check.Frontier) *check.Result) (schedules, violations int) {
	t.Helper()
	var f *check.Frontier
	for legs := 0; ; legs++ {
		if legs > 10000 {
			t.Fatal("resume did not converge")
		}
		res := leg(f)
		schedules += res.Schedules
		violations += res.ViolationsTotal
		if res.Frontier.Empty() {
			return schedules, violations
		}
		b, err := json.Marshal(res.Frontier)
		if err != nil {
			t.Fatalf("marshal frontier: %v", err)
		}
		f = new(check.Frontier)
		if err := json.Unmarshal(b, f); err != nil {
			t.Fatalf("unmarshal frontier: %v", err)
		}
	}
}

// TestFrontierResumeExploreAll: an ExploreAll interrupted every few
// schedules and resumed from its exported frontier executes, over all
// legs, exactly the schedules of the uninterrupted exploration.
func TestFrontierResumeExploreAll(t *testing.T) {
	build := twoProcBuilder(4, 1)
	full := check.ExploreAll(build, check.Options{Parallelism: 1})
	if full.Truncated || full.Schedules < 10 {
		t.Fatalf("baseline: schedules=%d truncated=%v", full.Schedules, full.Truncated)
	}
	legs := 0
	schedules, _ := resumeToCompletion(t, func(f *check.Frontier) *check.Result {
		legs++
		return check.ExploreAll(build, check.Options{
			Parallelism: 1, MaxSchedules: 5, ExportFrontier: true, SeedFrontier: f,
		})
	})
	if schedules != full.Schedules {
		t.Fatalf("resumed legs executed %d schedules, uninterrupted executed %d", schedules, full.Schedules)
	}
	if legs < 3 {
		t.Fatalf("only %d legs; the interruption never bit", legs)
	}
}

// TestFrontierResumeExploreBudget: same equivalence for the budgeted
// explorer, including the violation count — every lost update found by
// the uninterrupted exploration is found by exactly one leg.
func TestFrontierResumeExploreBudget(t *testing.T) {
	full := check.ExploreBudget(racyCounterBuilder, 2, check.Options{Parallelism: 1})
	if full.OK() {
		t.Fatal("baseline found no lost update")
	}
	legs := 0
	schedules, violations := resumeToCompletion(t, func(f *check.Frontier) *check.Result {
		legs++
		return check.ExploreBudget(racyCounterBuilder, 2, check.Options{
			Parallelism: 1, MaxSchedules: 3, ExportFrontier: true, SeedFrontier: f,
		})
	})
	if schedules != full.Schedules {
		t.Fatalf("resumed legs executed %d schedules, uninterrupted executed %d", schedules, full.Schedules)
	}
	if violations != full.ViolationsTotal {
		t.Fatalf("resumed legs found %d violations, uninterrupted found %d", violations, full.ViolationsTotal)
	}
	if legs < 2 {
		t.Fatalf("only %d legs; the interruption never bit", legs)
	}
}

// TestFrontierResumeParallel: a frontier exported by an interrupted
// parallel exploration (claim-failure and drain export paths) resumed
// in parallel still covers the space exactly: summed schedules match
// the uninterrupted count.
func TestFrontierResumeParallel(t *testing.T) {
	build := twoProcBuilder(4, 1)
	full := check.ExploreAll(build, check.Options{Parallelism: 1})
	schedules, _ := resumeToCompletion(t, func(f *check.Frontier) *check.Result {
		return check.ExploreAll(build, check.Options{
			Parallelism: 4, MaxSchedules: 10, ExportFrontier: true, SeedFrontier: f,
		})
	})
	if schedules != full.Schedules {
		t.Fatalf("parallel resumed legs executed %d schedules, uninterrupted executed %d", schedules, full.Schedules)
	}
}

// TestFrontierExportDeterministic: with a deterministic interruption
// point (MaxSchedules at Parallelism 1) the exported frontier is
// byte-identical run to run — the property campaign checkpoints build
// on — and equal to the pinned JSON, so a change of the ExploreAll
// chooser or of its child order cannot silently change what a stored
// frontier means.
func TestFrontierExportDeterministic(t *testing.T) {
	const want = `{"explorer":"all","items":[{"prefix":[0,0,1,0,1,1]},{"prefix":[0,0,1,1]},{"prefix":[0,1]},{"prefix":[1]}],"schedules":7}`
	build := twoProcBuilder(4, 1)
	opts := check.Options{Parallelism: 1, MaxSchedules: 7, ExportFrontier: true}
	a := check.ExploreAll(build, opts)
	b := check.ExploreAll(build, opts)
	if a.Frontier.Empty() || b.Frontier.Empty() {
		t.Fatal("interrupted runs exported no frontier")
	}
	aj, _ := json.Marshal(a.Frontier)
	bj, _ := json.Marshal(b.Frontier)
	if string(aj) != string(bj) {
		t.Fatalf("frontier export not deterministic:\n%s\n%s", aj, bj)
	}
	if string(aj) != want {
		t.Fatalf("frontier export changed:\n got %s\nwant %s", aj, want)
	}
}

// TestFrontierValidate: one rejected input per Validate rule, and the
// shapes the explorers export pass.
func TestFrontierValidate(t *testing.T) {
	for _, tc := range []struct {
		json string
		ok   bool
	}{
		{`{"explorer":"all","items":[{"prefix":[0,2,1]},{}]}`, true},
		{`{"explorer":"budget","items":[{"switches":[{"d":0,"c":1},{"d":4,"c":0}],"budget":1,"min_index":5},{"budget":2}]}`, true},
		{`{"items":[{"prefix":[1]}]}`, false},
		{`{"explorer":"fuzz","items":[]}`, false},
		{`{"explorer":"all","items":[{"prefix":[0,-1]}]}`, false},
		{`{"explorer":"budget","items":[{"switches":[{"d":-1,"c":1}],"budget":1}]}`, false},
		{`{"explorer":"budget","items":[{"switches":[{"d":1,"c":-1}],"budget":1,"min_index":2}]}`, false},
		{`{"explorer":"budget","items":[{"budget":-1}]}`, false},
		{`{"explorer":"budget","items":[{"budget":1,"min_index":-1}]}`, false},
		{`{"explorer":"budget","items":[{"switches":[{"d":3,"c":1},{"d":3,"c":0}],"min_index":4}]}`, false},
		{`{"explorer":"budget","items":[{"switches":[{"d":3,"c":1},{"d":2,"c":0}],"min_index":4}]}`, false},
		{`{"explorer":"budget","items":[{"switches":[{"d":3,"c":1}],"budget":1,"min_index":3}]}`, false},
	} {
		var f check.Frontier
		if err := json.Unmarshal([]byte(tc.json), &f); err != nil {
			t.Fatalf("%s: %v", tc.json, err)
		}
		if err := f.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.json, err, tc.ok)
		}
	}
}

// FuzzFrontierSeed: a frontier file is outside input. Any frontier
// that passes Validate must seed its explorer without panicking —
// neither out of the explorer nor contained as a violation — however
// its items are shaped. The seeds are a real exported frontier of each
// explorer plus inputs that once crashed or fooled cmd/checker.
func FuzzFrontierSeed(f *testing.F) {
	build := twoProcBuilder(3, 1)
	opts := check.Options{Parallelism: 1, MaxSchedules: 5, ExportFrontier: true}
	for _, res := range []*check.Result{check.ExploreAll(build, opts), check.ExploreBudget(build, 2, opts)} {
		data, err := json.Marshal(res.Frontier)
		if err != nil || res.Frontier.Empty() {
			f.Fatalf("no frontier to seed with: %v", err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"explorer":"budget","items":[{"switches":[{"d":-5,"c":-1}],"budget":-3,"min_index":-2}]}`))
	f.Add([]byte(`{"explorer":"all","items":[{"prefix":[99,99]}]}`))
	f.Add([]byte(`{"explorer":"all","items":[{"prefix":[-1]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		var fr check.Frontier
		if json.Unmarshal(data, &fr) != nil {
			return
		}
		seedValidFrontier(t, build, &fr)
	})
}

// FuzzFrontierItem is FuzzFrontierSeed over a structured input: the
// explorer kind, one item's prefix, budget and min_index, and at most
// one switch are fuzz arguments, so the mutator reaches boundary values
// (a negative min_index, a switch past it) directly instead of through
// JSON syntax.
func FuzzFrontierItem(f *testing.F) {
	build := twoProcBuilder(3, 1)
	f.Add(false, []byte{0, 1}, 0, int64(0), false, int64(0), 0)
	f.Add(true, []byte{}, 2, int64(0), false, int64(0), 0)
	f.Add(true, []byte{}, 1, int64(3), true, int64(2), 1)
	f.Fuzz(func(t *testing.T, budgetKind bool, prefix []byte, budget int, minIndex int64, hasSwitch bool, d int64, c int) {
		fr := check.Frontier{Explorer: "all"}
		it := check.FrontierItem{Budget: budget, MinIndex: minIndex}
		if budgetKind {
			fr.Explorer = "budget"
		}
		for _, b := range prefix {
			it.Prefix = append(it.Prefix, int(int8(b)))
		}
		if hasSwitch {
			it.Switches = []check.SwitchRec{{Decision: d, Choice: c}}
		}
		fr.Items = []check.FrontierItem{it}
		seedValidFrontier(t, build, &fr)
	})
}

// seedValidFrontier seeds fr's explorer with fr if it passes Validate,
// and fails if the seeded run panics or reports a contained panic.
func seedValidFrontier(t *testing.T, build check.Builder, fr *check.Frontier) {
	if fr.Validate() != nil {
		return
	}
	opts := check.Options{Parallelism: 1, MaxSchedules: 64, SeedFrontier: fr}
	var res *check.Result
	if fr.Explorer == "all" {
		res = check.ExploreAll(build, opts)
	} else {
		res = check.ExploreBudget(build, fr.Budget, opts)
	}
	if !res.OK() {
		t.Fatalf("seeded run reported %v", res.First().Err)
	}
}

// TestFrontierCompleteRunExportsNothing: a run that finishes leaves no
// frontier.
func TestFrontierCompleteRunExportsNothing(t *testing.T) {
	res := check.ExploreAll(twoProcBuilder(3, 1), check.Options{Parallelism: 1, ExportFrontier: true})
	if !res.Frontier.Empty() {
		t.Fatalf("complete exploration exported %d frontier items", len(res.Frontier.Items))
	}
}

// TestFrontierSeedWrongExplorer: feeding a budget frontier to
// ExploreAll, or any frontier to a reduced exploration, is a
// programming error and panics loudly instead of silently misreading
// the items or re-exploring from the root.
func TestFrontierSeedWrongExplorer(t *testing.T) {
	build := twoProcBuilder(1, 1)
	for _, tc := range []struct {
		name string
		run  func() *check.Result
	}{
		{"budget-frontier-to-ExploreAll", func() *check.Result {
			return check.ExploreAll(build, check.Options{SeedFrontier: &check.Frontier{Explorer: "budget"}})
		}},
		{"ExploreAll-full", func() *check.Result {
			return check.ExploreAll(build, check.Options{Reduction: check.ReductionFull,
				SeedFrontier: &check.Frontier{Explorer: "all", Items: []check.FrontierItem{{Prefix: []int{1}}}}})
		}},
		{"ExploreBudget-fingerprint", func() *check.Result {
			return check.ExploreBudget(build, 1, check.Options{Reduction: check.ReductionFingerprint,
				SeedFrontier: &check.Frontier{Explorer: "budget", Items: []check.FrontierItem{{Budget: 1}}}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic on a seed the explorer cannot consume")
				}
				if !strings.Contains(fmt.Sprint(r), "SeedFrontier") {
					t.Fatalf("panicked for another reason: %v", r)
				}
			}()
			tc.run()
		})
	}
}

// TestRunDeadlineSkipsStuckRuns: under an immediately-expired deadline
// every run is cut off, retried once, then counted in TimedOutRuns —
// the exploration returns instead of hanging — on every tree explorer.
func TestRunDeadlineSkipsStuckRuns(t *testing.T) {
	// 2×200 statements at quantum 1: hundreds of decisions per run, so
	// the watchdog's default check interval is crossed many times.
	build := twoProcBuilder(200, 1)
	for _, tc := range treeExplorers {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.run(build, 2, check.Options{Parallelism: 1, RunDeadline: time.Nanosecond})
			if res.TimedOutRuns != 1 || res.Schedules != 1 {
				t.Fatalf("TimedOutRuns=%d Schedules=%d, want 1/1 (root run times out, subtree skipped)",
					res.TimedOutRuns, res.Schedules)
			}
			if !res.OK() {
				t.Fatalf("timed-out run recorded a violation: %+v", res.First())
			}
		})
	}
}

// TestRunDeadlineFuzz: each fuzz seed under an expired deadline is a
// counted timeout, and all seeds are still visited.
func TestRunDeadlineFuzz(t *testing.T) {
	build := twoProcBuilder(200, 1)
	res := check.Fuzz(build, 5, check.Options{Parallelism: 1, RunDeadline: time.Nanosecond})
	if res.TimedOutRuns != 5 || res.Schedules != 5 {
		t.Fatalf("TimedOutRuns=%d Schedules=%d, want 5/5", res.TimedOutRuns, res.Schedules)
	}
}

// TestRunDeadlineReduced: the reduced explorer honors the deadline too.
func TestRunDeadlineReduced(t *testing.T) {
	build := twoProcBuilder(200, 1)
	res := check.ExploreAll(build, check.Options{
		Parallelism: 1, RunDeadline: time.Nanosecond, Reduction: check.ReductionFull,
	})
	if res.TimedOutRuns == 0 {
		t.Fatal("reduced exploration ignored RunDeadline")
	}
}

// TestRunDeadlineGenerous: a deadline no run approaches changes
// nothing: same schedule count, zero timeouts.
func TestRunDeadlineGenerous(t *testing.T) {
	build := twoProcBuilder(3, 1)
	plain := check.ExploreAll(build, check.Options{Parallelism: 1})
	res := check.ExploreAll(build, check.Options{Parallelism: 1, RunDeadline: time.Hour})
	if res.TimedOutRuns != 0 {
		t.Fatalf("TimedOutRuns=%d under a generous deadline", res.TimedOutRuns)
	}
	if res.Schedules != plain.Schedules {
		t.Fatalf("deadline changed coverage: %d vs %d schedules", res.Schedules, plain.Schedules)
	}
}

// TestMemSoftLimitParksWorkers: an unreachable soft limit walks the
// degradation ladder — workers step down to one, then a single floor
// event — while the exploration still covers every schedule (parked
// workers' queues are stolen by the survivors).
func TestMemSoftLimitParksWorkers(t *testing.T) {
	build := twoProcBuilder(4, 1)
	baseline := check.ExploreAll(build, check.Options{Parallelism: 1})
	res := check.ExploreAll(build, check.Options{
		Parallelism:   4,
		MemSoftLimit:  1, // 1 byte: always over
		ProgressEvery: 1,
	})
	if res.Schedules != baseline.Schedules {
		t.Fatalf("degraded exploration covered %d schedules, baseline %d", res.Schedules, baseline.Schedules)
	}
	if len(res.Degradations) != 3 {
		t.Fatalf("degradations=%d, want 3 (4->2, 2->1, floor):\n%s",
			len(res.Degradations), strings.Join(res.Degradations, "\n"))
	}
	if !strings.Contains(res.Degradations[0], "stepped workers 4 -> 2") ||
		!strings.Contains(res.Degradations[1], "stepped workers 2 -> 1") ||
		!strings.Contains(res.Degradations[2], "minimum") {
		t.Fatalf("unexpected ladder:\n%s", strings.Join(res.Degradations, "\n"))
	}
}

// TestMemSoftLimitShedsCache: with a fingerprint cache active the first
// ladder step sheds it (and says so), before any workers are parked.
func TestMemSoftLimitShedsCache(t *testing.T) {
	res := check.ExploreBudget(racyCounterBuilder, 2, check.Options{
		Parallelism:   1,
		Reduction:     check.ReductionFingerprint,
		MemSoftLimit:  1,
		ProgressEvery: 1,
	})
	if len(res.Degradations) == 0 || !strings.Contains(res.Degradations[0], "shed fingerprint cache") {
		t.Fatalf("first degradation step should shed the cache:\n%s", strings.Join(res.Degradations, "\n"))
	}
	if res.OK() {
		t.Fatal("degraded exploration lost the planted violation")
	}
}

// TestNoMemLimitNoDegradations: the ladder is inert unless asked for.
func TestNoMemLimitNoDegradations(t *testing.T) {
	res := check.ExploreAll(twoProcBuilder(3, 1), check.Options{Parallelism: 2, ProgressEvery: 1})
	if len(res.Degradations) != 0 {
		t.Fatalf("unexpected degradations: %v", res.Degradations)
	}
}
