package main

import (
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/minimize"
	"repro/internal/sched"
	"repro/internal/sim"
)

// tree is one fixed exploration with a known outcome.
type tree struct {
	label  string
	meta   artifact.Meta
	budget int // context-switch budget; < 0 explores the whole tree
	red    check.Reduction
	// schedules and pruned are the exact expected schedule and
	// fingerprint-pruned run counts; violating is the expected verdict.
	schedules, pruned int
	violating         bool
	// short keeps the tree in the reduced work the package tests use.
	short bool
}

// chooserKind names the chooser the tree's explorer drives.
func (t *tree) chooserKind() string {
	switch {
	case t.red != check.ReductionNone:
		return "reduced"
	case t.budget >= 0:
		return "budgeted"
	default:
		return "script"
	}
}

func (t *tree) explore(build check.Builder, opts check.Options) *check.Result {
	opts.Reduction = t.red
	if opts.MaxSchedules == 0 {
		opts.MaxSchedules = 1 << 24
	}
	if t.budget < 0 {
		return check.ExploreAll(build, opts)
	}
	return check.ExploreBudget(build, t.budget, opts)
}

// runsOf counts the simulator runs an exploration executed: completed
// schedules plus the partial replays the reductions cut short.
func runsOf(res *check.Result) int64 {
	n := int64(res.Schedules)
	if r := res.Reduction; r != nil {
		n += int64(r.FingerprintPrunedRuns + r.SleepDeadlockRuns)
	}
	return n
}

var (
	unicons = func(n, q int) artifact.Meta {
		return artifact.Meta{Workload: "unicons", N: n, V: 1, Quantum: q, MaxSteps: 1 << 16}
	}
	hybridcas = artifact.Meta{Workload: "hybridcas", N: 3, V: 2, Quantum: 4}
)

// plainTrees are explore-plain's trees: plain ExploreBudget, whose
// schedule counts are exact at any worker count.
var plainTrees = []tree{
	{label: "unicons-n3-q2-b5", meta: unicons(3, 2), budget: 5, schedules: 148436, violating: true},
	{label: "unicons-n3-q8-b5", meta: unicons(3, 8), budget: 5, schedules: 12186, short: true},
	{label: "universal-n3-q8-b4", meta: artifact.Meta{Workload: "universal", N: 3, V: 1, Quantum: 8}, budget: 4, schedules: 270233},
	{label: "hybridcas-n3-v2-q4-b3", meta: hybridcas, budget: 3, schedules: 30656, violating: true, short: true},
}

// reducedTrees are explore-reduced's trees: Reduction full at one
// worker, where reduced counts are exact. The last two explore the same
// tree plain and reduced, so their verdicts cross-check.
var reducedTrees = []tree{
	{label: "unicons-n3-q1-all-full", meta: unicons(3, 1), budget: -1, red: check.ReductionFull, schedules: 88980, pruned: 118692, violating: true},
	{label: "unicons-n3-q8-all-full", meta: unicons(3, 8), budget: -1, red: check.ReductionFull, schedules: 4170, pruned: 2706, short: true},
	{label: "hybridcas-n3-v2-q4-b4-full", meta: hybridcas, budget: 4, red: check.ReductionFull, schedules: 102786, pruned: 93978, violating: true},
	{label: "unicons-n2-q0-all-plain", meta: unicons(2, 0), budget: -1, schedules: 12870, violating: true, short: true},
	{label: "unicons-n2-q0-all-full", meta: unicons(2, 0), budget: -1, red: check.ReductionFull, schedules: 171, pruned: 40, violating: true, short: true},
}

// explorePlain runs at one worker: at two workers on a two-CPU host its
// pass time swung by about 8% within a run, against about 1% at one.
// The traced run reports the nproc-worker speedup instead.
var explorePlain = &workload{
	name:    "explore-plain",
	why:     "plain budgeted exploration at one worker: short runs and pooled resets through the sim kernel, choosers, verifiers and work deques",
	workers: func(int) int { return 1 },
	setup:   func(cfg *config) (any, error) { return setupTrees(cfg, plainTrees, 1) },
	pass: func(cfg *config, st any, tr *tracer) *passResult {
		return exploreTrees(cfg, st.(*treeState), tr, false)
	},
	teardown: func(any) {},
	layers:   plainLayers,
}

var exploreReduced = &workload{
	name:     "explore-reduced",
	why:      "Reduction full at one worker plus capture and shrink of every violation: the reduced chooser, fingerprint cache, partial replays and shrinker",
	workers:  func(int) int { return 1 },
	setup:    func(cfg *config) (any, error) { return setupTrees(cfg, reducedTrees, 1) },
	pass:     func(cfg *config, st any, tr *tracer) *passResult { return exploreTrees(cfg, st.(*treeState), tr, true) },
	teardown: func(any) {},
	layers:   reducedLayers,
}

// treeState is a prepared tree workload: one probed builder per tree.
type treeState struct {
	trees    []tree
	builders []check.Builder
	workers  int
}

// warmupSchedules caps the set-up exploration of each tree.
const warmupSchedules = 1000

// setupTrees prepares every tree: it resolves the registered builder,
// probe-builds and runs the default schedule once, and explores a
// capped prefix of the tree so lazy set-up is done before timing.
func setupTrees(cfg *config, all []tree, workers int) (*treeState, error) {
	st := &treeState{workers: workers}
	for _, t := range all {
		if cfg.short && !t.short {
			continue
		}
		build, err := check.BuilderFor(t.meta)
		if err != nil {
			return nil, err
		}
		sys, verify := build(sim.FirstChooser{})
		verify(sys.Run())
		sys.Close()
		t.explore(build, check.Options{Parallelism: workers, MaxSchedules: warmupSchedules})
		st.trees = append(st.trees, t)
		st.builders = append(st.builders, build)
	}
	return st, nil
}

// exploreTrees is one pass over the prepared trees. Each tree's verdict
// and exact counts are checked; with shrink, every recorded violation
// is captured, shrunk, and the shrunk bundle must still fail.
func exploreTrees(cfg *config, st *treeState, tr *tracer, shrink bool) *passResult {
	p := newPass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	verdicts := map[string]bool{}
	for i, t := range st.trees {
		// Each tree starts on a collected heap, as it would in a fresh
		// checker process; the collection is not timed.
		runtime.GC()
		build := st.builders[i]
		var build0 float64
		if tr != nil {
			build = tr.builder(build, t.chooserKind(), true)
			build0 = tr.get("build_ns")
		}
		start := time.Now()
		cpu0 := cpuTime()
		res := t.explore(build, check.Options{Parallelism: st.workers})
		cpu := cpuTime() - cpu0
		unit := time.Since(start)
		p.runs += runsOf(res)
		p.steals += res.Steals
		p.ops++
		checkTree(p, &t, res)
		verdicts[t.label] = !res.OK()
		if tr != nil {
			// The replay loops are probes, kept out of the pass time.
			traceTree(p, tr, &t, st.builders[i], res, cpu, build0)
		}
		p.wall += unit.Seconds()
		p.latencies = append(p.latencies, unit.Seconds())
		if shrink {
			shrinkAll(p, tr, &t, res)
		}
	}
	runtime.ReadMemStats(&after)
	// A reduction never changes a verdict.
	plain, okPlain := verdicts["unicons-n2-q0-all-plain"]
	red, okRed := verdicts["unicons-n2-q0-all-full"]
	if okPlain && okRed && plain != red {
		p.fail("unicons N=2 Q=0: plain violating=%v, reduced violating=%v", plain, red)
	}
	p.alloc = after.TotalAlloc - before.TotalAlloc
	if tr != nil {
		p.figs = map[string]float64{}
		tr.simFigures(p.figs)
		s := tr.sum
		p.figs["check.schedules"] = s["schedules"]
		p.figs["check.useful_frac"] = ratio(s["schedules"], s["runs"])
		p.figs["check.fingerprint_pruned_runs"] = s["fp_pruned"]
		p.figs["check.sleep_skipped_branches"] = s["sleep_skipped"]
		p.figs["check.engine_ns_per_run"] = ratio(s["engine_ns"], s["engine_runs"])
		p.figs["check.steals"] = s["steals"]
		p.figs["artifact.capture_ns"] = ratio(s["capture_ns"], s["captures"])
		p.figs["minimize.candidates"] = s["candidates"]
		p.figs["minimize.candidates_per_s"] = ratio(s["candidates"], s["shrink_ns"]/1e9)
		p.figs["minimize.decisions_from"] = s["decisions_from"]
		p.figs["minimize.decisions_to"] = s["decisions_to"]
	}
	return p
}

// checkTree is the correctness gate for one exploration: it must run to
// completion with the expected verdict and exact counts.
func checkTree(p *passResult, t *tree, res *check.Result) {
	p.exact[t.label+".schedules"] = int64(res.Schedules)
	p.exact[t.label+".violations"] = int64(res.ViolationsTotal)
	if res.Truncated || res.Interrupted || res.TimedOutRuns > 0 || res.Aliased > 0 {
		p.fail("%s: exploration incomplete (truncated=%v interrupted=%v timed-out=%d aliased=%d)",
			t.label, res.Truncated, res.Interrupted, res.TimedOutRuns, res.Aliased)
	}
	if res.Schedules != t.schedules {
		p.fail("%s: %d schedules, want %d", t.label, res.Schedules, t.schedules)
	}
	if got := !res.OK(); got != t.violating {
		p.fail("%s: violating=%v, want %v", t.label, got, t.violating)
	}
	if t.red != check.ReductionNone {
		pruned := 0
		if res.Reduction != nil {
			pruned = res.Reduction.FingerprintPrunedRuns
		}
		p.exact[t.label+".pruned"] = int64(pruned)
		if pruned != t.pruned {
			p.fail("%s: %d fingerprint-pruned runs, want %d", t.label, pruned, t.pruned)
		}
	}
}

// shrinkAll captures every recorded violation of res, shrinks it, and
// checks the shrunk bundle still fails on replay. Each shrink is one
// unit of work with its own latency.
func shrinkAll(p *passResult, tr *tracer, t *tree, res *check.Result) {
	for i := range res.Violations {
		v := &res.Violations[i]
		p.ops++
		unitStart := time.Now()
		start := unitStart
		b, rep, err := artifact.Capture(t.meta, artifact.Sched{Decisions: v.Decisions})
		captured := time.Since(start)
		if err != nil || !rep.Failed() {
			p.fail("%s: violation %d did not reproduce on capture (err=%v)", t.label, i, err)
			continue
		}
		start = time.Now()
		small, stats, err := minimize.Shrink(b, minimize.Options{})
		shrunk := time.Since(start)
		if err != nil {
			p.fail("%s: shrink of violation %d: %v", t.label, i, err)
			continue
		}
		p.runs += int64(stats.Tried)
		p.exact[t.label+".candidates"] += int64(stats.Tried)
		p.exact[t.label+".decisions_to"] += int64(len(small.Sched.Decisions))
		rep, err = artifact.Replay(small, artifact.ReplayOptions{})
		unit := time.Since(unitStart).Seconds()
		p.wall += unit
		p.latencies = append(p.latencies, unit)
		if err != nil || !rep.Failed() {
			p.fail("%s: shrunk violation %d passes on replay (err=%v)", t.label, i, err)
		}
		if tr != nil {
			tr.add("captures", 1)
			tr.add("capture_ns", float64(captured))
			tr.add("shrink_ns", float64(shrunk))
			tr.add("candidates", float64(stats.Tried))
			tr.add("decisions_from", float64(stats.FromDecisions))
			tr.add("decisions_to", float64(len(small.Sched.Decisions)))
		}
	}
}

// traceTree checks the traced exploration against its result and
// derives the tree's engine and kernel figures: the traced runs must
// equal the result's, the sampled decision vectors are replayed
// directly through System.Reset/Run, and the engine's own time is the
// exploration's CPU time minus builds, picks, verifiers and the
// kernel's share (statements times the replay loop's ns per
// statement).
func traceTree(p *passResult, tr *tracer, t *tree, base check.Builder, res *check.Result, cpu time.Duration, build0 float64) {
	pick0, verify0 := tr.get("pick_ns"), tr.get("verify_ns")
	stmts0 := tr.get("stmts")
	runs, samples := tr.flush()
	if runs != runsOf(res) {
		p.fail("%s: tracing saw %d runs, the explorer reports %d", t.label, runs, runsOf(res))
	}
	tr.add("schedules", float64(res.Schedules))
	tr.add("steals", float64(res.Steals))
	if r := res.Reduction; r != nil {
		tr.add("fp_pruned", float64(r.FingerprintPrunedRuns))
		tr.add("sleep_skipped", float64(r.SleepSkippedBranches))
	}
	loopNS0, loopStmts0 := tr.get("loop.run_ns"), tr.get("loop.stmts")
	script := &sched.Script{}
	const reps = 20
	n := len(samples) * reps
	if n > 0 {
		tr.replayLoop(base, n, func(i int) sim.Chooser {
			script.Reset(samples[i%len(samples)])
			return script
		})
	}
	nsPerStmt := ratio(tr.get("loop.run_ns")-loopNS0, tr.get("loop.stmts")-loopStmts0)
	known := (tr.get("build_ns") - build0) + (tr.get("pick_ns") - pick0) + (tr.get("verify_ns") - verify0) +
		(tr.get("stmts")-stmts0)*nsPerStmt
	tr.add("engine_ns", float64(cpu)-known)
	tr.add("engine_runs", float64(runs))
}

// plainLayers adds explore-plain's timing-dependent parallel figures:
// the steals and the speedup of nproc workers over one, measured only
// when the host has at least 2 CPUs and GOMAXPROCS is at least 2.
func plainLayers(cfg *config, tr *tracer, figs map[string]float64, p *passResult) {
	workers := runtime.NumCPU()
	if workers < 2 || runtime.GOMAXPROCS(0) < 2 {
		return
	}
	st, err := setupTrees(cfg, plainTrees, 1)
	if err != nil {
		p.fail("parallel-speedup set-up: %v", err)
		return
	}
	one := exploreTrees(cfg, st, nil, false)
	st.workers = workers
	many := exploreTrees(cfg, st, nil, false)
	p.ops += one.ops + many.ops
	p.failed = append(append(p.failed, one.failed...), many.failed...)
	figs["check.parallel_speedup"] = ratio(one.wall, many.wall)
	figs["check.steals"] = float64(many.steals)
}

// reducedLayers adds check.reduced_cost_ratio: the per-run cost of
// Reduction full over plain on unicons N=2 Q=0, each leg repeated until
// it has run for at least half a second.
func reducedLayers(cfg *config, tr *tracer, figs map[string]float64, p *passResult) {
	plain, red := reducedTrees[3], reducedTrees[4]
	build, err := check.BuilderFor(plain.meta)
	if err != nil {
		p.fail("reduced cost ratio: %v", err)
		return
	}
	leg := func(t tree) float64 {
		var runs int64
		start := time.Now()
		for time.Since(start) < 500*time.Millisecond {
			res := t.explore(build, check.Options{Parallelism: 1})
			runs += runsOf(res)
			p.ops++
			checkTree(p, &t, res)
		}
		return float64(time.Since(start)) / float64(runs)
	}
	plainNS := leg(plain)
	redNS := leg(red)
	figs["check.reduced_cost_ratio"] = ratio(redNS, plainNS)
}
