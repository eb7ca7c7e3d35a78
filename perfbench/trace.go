package main

import (
	"sync"
	"syscall"
	"time"

	"repro/internal/check"
	"repro/internal/sim"
)

// tracer collects the spans of a traced pass. Every span is recorded in
// this package, around calls into the program's public API: the
// check.Builder, the chooser's Pick, the returned verifier, and direct
// System.Run/Reset, artifact, minimize, campaign, store and service
// calls. Spans are summed in memory as named totals and reduced to
// per-layer figures when the pass ends.
type tracer struct {
	mu   sync.Mutex
	sum  map[string]float64
	live []*runAcc
}

func newTracer() *tracer { return &tracer{sum: map[string]float64{}} }

// A traced system keeps the decision vector of every sampleEvery-th
// run, up to sampleMax, for the replay loop.
const sampleEvery, sampleMax = 97, 64

// add adds v to the named total.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.sum[name] += v
	t.mu.Unlock()
}

func (t *tracer) get(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sum[name]
}

// runAcc accumulates the spans of one traced system. A system runs on
// one goroutine at a time, so its accumulator needs no lock; the tracer
// folds it in at flush.
type runAcc struct {
	kind               string // chooser kind: script, budgeted, reduced, uniform, markov, random
	picks, pickNS      int64
	verifies, verifyNS int64
	runs, stmts        int64

	every, max int
	sampling   bool
	cur        []int
	samples    [][]int
}

// endRun closes one run that executed steps statements.
func (a *runAcc) endRun(steps int64) {
	a.runs++
	a.stmts += steps
	if a.sampling {
		a.samples = append(a.samples, append([]int(nil), a.cur...))
	}
	a.cur = a.cur[:0]
	a.sampling = a.every > 0 && len(a.samples) < a.max && a.runs%int64(a.every) == 0
}

func (t *tracer) newAcc(kind string, sample bool) *runAcc {
	a := &runAcc{kind: kind}
	if sample {
		a.every, a.max, a.sampling = sampleEvery, sampleMax, true
	}
	t.mu.Lock()
	t.live = append(t.live, a)
	t.mu.Unlock()
	return a
}

// flush folds every live accumulator into the totals and returns the
// runs they saw and the decision vectors they sampled.
func (t *tracer) flush() (runs int64, samples [][]int) {
	t.mu.Lock()
	live := t.live
	t.live = nil
	t.mu.Unlock()
	for _, a := range live {
		t.add("picks", float64(a.picks))
		t.add("picks."+a.kind, float64(a.picks))
		t.add("pick_ns."+a.kind, float64(a.pickNS))
		t.add("pick_ns", float64(a.pickNS))
		t.add("verifies", float64(a.verifies))
		t.add("verify_ns", float64(a.verifyNS))
		t.add("stmts", float64(a.stmts))
		t.add("runs", float64(a.runs))
		runs += a.runs
		samples = append(samples, a.samples...)
	}
	return runs, samples
}

// timedChooser wraps a chooser to count and time Pick. It forwards
// sim.Crasher and CrashesArmed, which the kernel type-asserts on the
// configured chooser: a wrapper that dropped them would silently turn
// crash injection off. set swaps the inner chooser, so one wrapper can
// serve a pooled system across runs.
type timedChooser struct {
	inner   sim.Chooser
	crasher sim.Crasher
	acc     *runAcc
}

func (c *timedChooser) set(inner sim.Chooser) {
	c.inner = inner
	c.crasher, _ = inner.(sim.Crasher)
}

// Pick implements sim.Chooser.
func (c *timedChooser) Pick(d sim.Decision) int {
	start := time.Now()
	i := c.inner.Pick(d)
	c.acc.pickNS += int64(time.Since(start))
	c.acc.picks++
	switch {
	case i == sim.PickAbort:
		// The run ends here, at d.Step statements, without a verifier.
		c.acc.endRun(d.Step)
	case c.acc.sampling:
		c.acc.cur = append(c.acc.cur, i)
	}
	return i
}

// Crashes implements sim.Crasher by delegation.
func (c *timedChooser) Crashes(d sim.Decision) []*sim.Process {
	if c.crasher == nil {
		return nil
	}
	return c.crasher.Crashes(d)
}

// CrashesArmed reports whether the inner chooser can inject faults.
func (c *timedChooser) CrashesArmed() bool {
	if c.crasher == nil {
		return false
	}
	if ca, ok := c.crasher.(interface{ CrashesArmed() bool }); ok {
		return ca.CrashesArmed()
	}
	return true
}

// builder wraps base so every system it builds is traced: the build is
// timed, the chooser is wrapped in a timedChooser, and the returned
// verifier is timed and reads the run's statement count.
func (t *tracer) builder(base check.Builder, kind string, sample bool) check.Builder {
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		acc := t.newAcc(kind, sample)
		tc := &timedChooser{acc: acc}
		tc.set(ch)
		start := time.Now()
		sys, verify := base(tc)
		t.add("builds", 1)
		t.add("build_ns", float64(time.Since(start)))
		return sys, func(runErr error) error {
			start := time.Now()
			err := verify(runErr)
			acc.verifyNS += int64(time.Since(start))
			acc.verifies++
			acc.endRun(sys.Steps())
			return err
		}
	}
}

// replayLoop times System.Run and System.Reset directly: it builds one
// system around a timedChooser and replays n runs through it, resetting
// the pooled system between runs. chooser(i) supplies run i's schedule
// source. Run time excludes the time spent in Pick.
func (t *tracer) replayLoop(base check.Builder, n int, chooser func(i int) sim.Chooser) {
	acc := &runAcc{kind: "loop"}
	tc := &timedChooser{acc: acc}
	tc.set(chooser(0))
	sys, verify := base(tc)
	defer sys.Close()
	for i := 0; i < n; i++ {
		if i > 0 {
			tc.set(chooser(i))
			start := time.Now()
			sys.Reset()
			t.add("loop.reset_ns", float64(time.Since(start)))
			t.add("loop.resets", 1)
		}
		picks := acc.pickNS
		start := time.Now()
		err := sys.Run()
		t.add("loop.run_ns", float64(time.Since(start))-float64(acc.pickNS-picks))
		t.add("loop.stmts", float64(sys.Steps()))
		verify(err)
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio divides, returning 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetric describes one per-layer figure.
type layerMetric struct {
	name, unit string
	timing     bool
}

// layerMetrics lists the per-layer figures in BENCHMARK.json order.
// A figure for a layer the workload does not exercise reads 0.
var layerMetrics = []layerMetric{
	{"sim.stmts", "count", false},
	{"sim.ns_per_stmt", "ns", true},
	{"sim.reset_ns", "ns", true},
	{"sim.build_ns", "ns", true},
	{"sim.builds", "count", false},
	{"sched.picks", "count", false},
	{"sched.pick_ns.script", "ns", true},
	{"sched.pick_ns.budgeted", "ns", true},
	{"sched.pick_ns.reduced", "ns", true},
	{"sched.pick_ns.uniform", "ns", true},
	{"sched.pick_ns.markov", "ns", true},
	{"check.schedules", "count", false},
	{"check.useful_frac", "ratio", false},
	{"check.fingerprint_pruned_runs", "count", false},
	{"check.sleep_skipped_branches", "count", false},
	{"check.engine_ns_per_run", "ns", true},
	{"check.reduced_cost_ratio", "ratio", true},
	{"check.steals", "count", true},
	{"check.parallel_speedup", "ratio", true},
	{"check.measure_overhead", "ratio", true},
	{"check.starvation_gap", "ratio", false},
	{"artifact.verify_ns", "ns", true},
	{"artifact.capture_ns", "ns", true},
	{"artifact.replay_ns", "ns", true},
	{"artifact.replay_divergences", "count", false},
	{"minimize.candidates", "count", false},
	{"minimize.candidates_per_s", "1/s", true},
	{"minimize.decisions_from", "count", false},
	{"minimize.decisions_to", "count", false},
	{"campaign.runs_per_s", "1/s", true},
	{"campaign.append_ns", "ns", true},
	{"campaign.sync_ns_p50", "ns", true},
	{"campaign.sync_ns_p99", "ns", true},
	{"campaign.checkpoint_ns", "ns", true},
	{"service.queue_wait_s_p50", "s", true},
	{"service.queue_wait_s_p90", "s", true},
	{"service.run_s.measure", "s", true},
	{"service.run_s.soak", "s", true},
	{"service.run_s.check", "s", true},
	{"store.write_ns", "ns", true},
	{"trace.overhead_frac", "ratio", true},
}

// simFigures reduces the tracer's sim, sched and artifact totals to
// their per-layer figures.
func (t *tracer) simFigures(figs map[string]float64) {
	s := t.sum
	figs["sim.stmts"] = s["stmts"]
	figs["sim.ns_per_stmt"] = ratio(s["loop.run_ns"], s["loop.stmts"])
	figs["sim.reset_ns"] = ratio(s["loop.reset_ns"], s["loop.resets"])
	figs["sim.build_ns"] = ratio(s["build_ns"], s["builds"])
	figs["sim.builds"] = s["builds"]
	figs["sched.picks"] = s["picks"]
	for _, kind := range []string{"script", "budgeted", "reduced", "uniform", "markov"} {
		figs["sched.pick_ns."+kind] = ratio(s["pick_ns."+kind], s["picks."+kind])
	}
	figs["artifact.verify_ns"] = ratio(s["verify_ns"], s["verifies"])
}

// runTraced is the traced run: untraced and traced passes alternate
// while another pair fits in the measurement length, every per-layer
// figure is the median over traced passes, and trace.overhead_frac
// compares the two kinds of pass. The workload's own probes run once
// at the end.
func runTraced(w *workload, cfg *config, seconds float64) (*result, map[string]summary) {
	start := time.Now()
	var plain, traced []*passResult
	for len(traced) == 0 || time.Since(start).Seconds()*float64(len(traced)+1)/float64(len(traced)) <= seconds {
		p, _ := onePass(w, cfg, nil)
		plain = append(plain, p)
		tr := newTracer()
		q, _ := onePass(w, cfg, tr)
		traced = append(traced, q)
	}
	all := append(append([]*passResult(nil), plain...), traced...)
	res := collect(all)
	samples := map[string][]float64{}
	for _, q := range traced {
		for k, v := range q.figs {
			samples[k] = append(samples[k], v)
		}
	}
	var pw, tw []float64
	for i := range plain {
		pw = append(pw, plain[i].wall)
		tw = append(tw, traced[i].wall)
	}
	samples["trace.overhead_frac"] = []float64{quantile(tw, 0.5)/quantile(pw, 0.5) - 1}
	if w.layers != nil {
		figs := map[string]float64{}
		probe := newPass()
		w.layers(cfg, newTracer(), figs, probe)
		res.Attempted += probe.ops
		res.Failed += len(probe.failed)
		res.Correct = res.Failed == 0
		for k, v := range figs {
			samples[k] = []float64{v}
		}
	}
	details := map[string]summary{}
	for _, m := range layerMetrics {
		d := summarize(samples[m.name], m.unit, m.timing)
		details[m.name] = d
		res.Metrics[m.name] = metric{d.Median, m.unit}
	}
	return res, details
}

// percentileNS returns the q-quantile of durations in nanoseconds.
func percentileNS(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return quantile(xs, q)
}
