package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/check"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/service/jobspec"
	"repro/internal/sim"
	"repro/internal/store"
)

// farmMix feeds the service from one closed-loop client: with nproc
// clients on a two-CPU host the pass time swung by 10-19% across runs,
// against a few percent with one. GlobalWorkers stays nproc.
var farmMix = &workload{
	name:     "farm-mix",
	why:      "closed-loop service jobs (measure, durable soak, durable multi-leg check): long stochastic runs, fresh builds, journal fsync, store writes, queueing",
	workers:  func(int) int { return 1 },
	setup:    setupFarm,
	pass:     func(cfg *config, st any, tr *tracer) *passResult { return farmPass(cfg, st.(*farmState), tr) },
	teardown: func(st any) { st.(*farmState).close() },
	layers:   farmLayers,
}

// Farm job parameters. Every job list has farmCycles cycles of six or
// seven jobs in a fixed order; the workload seed only varies model and
// soak seeds. Replay and run counts are sized so that every measure and
// soak job takes about as long as the others (around 70 ms here), which
// keeps p50 inside one cluster of latencies rather than between two.
const (
	farmCycles      = 20
	shortCycles     = 2
	legSchedules    = 2000
	lockReplays     = 80
	markovReplays   = 130
	uniconsReplays  = 6000
	soakRuns        = 250
	soakMaxCrashes  = 2
	soakCheckpoints = 64
	warmupRuns      = 200
	jobTimeout      = 60 * time.Second
	pollEvery       = time.Millisecond
)

var (
	lockMeta    = artifact.Meta{Workload: "lockcounter", N: 2, V: 2, Quantum: 2, MaxSteps: 4000}
	measureMeta = artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 2, MaxSteps: 1 << 14}
)

// farmJob is one job of the fixed list with its expected outcome.
type farmJob struct {
	label string // spec family, e.g. measure-lockcounter-markov
	kind  string // measure | soak | check
	spec  *jobspec.Spec
	// state and runs are the expected terminal state and run count
	// (measure replays, soak runs, or check schedules).
	state string
	runs  int64
}

// jobSeed derives job i's seed from the workload seed (splitmix64),
// never 0 so "derive a default" paths in the program stay unused.
func jobSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}

// farmJobs builds the fixed job list for a seed.
func farmJobs(seed int64, short bool) []farmJob {
	cycles := farmCycles
	if short {
		cycles = shortCycles
	}
	var jobs []farmJob
	for c := 0; c < cycles; c++ {
		s := func(k int) int64 { return jobSeed(seed, c*6+k) }
		measure := func(label string, meta artifact.Meta, model string, replays int) farmJob {
			return farmJob{label: label, kind: jobspec.KindMeasure, state: service.StateDone, runs: int64(replays),
				spec: &jobspec.Spec{Kind: jobspec.KindMeasure, Measure: &jobspec.Measure{Meta: meta, Model: model, Replays: replays}}}
		}
		soak := func(seed int64) farmJob {
			return farmJob{label: "soak-soakmix", kind: jobspec.KindSoak, state: service.StateDone, runs: soakRuns,
				spec: &jobspec.Spec{Kind: jobspec.KindSoak, Soak: &jobspec.Soak{Runs: soakRuns, Seed: seed,
					MaxCrashes: soakMaxCrashes, CheckpointEvery: soakCheckpoints}}}
		}
		// Every cycle has a clean durable check; every other cycle adds a
		// violating one. The clean checks are the slowest jobs and make up
		// more than a tenth of the list, so p90 falls inside one kind of
		// job rather than on the edge between two.
		clean := farmJob{label: "check-unicons-n3-q8-b5", kind: jobspec.KindCheck, state: service.StateDone, runs: 12186,
			spec: &jobspec.Spec{Kind: jobspec.KindCheck, Check: &jobspec.Check{Meta: unicons(3, 8), Mode: jobspec.ModeBudget, Budget: 5}}}
		jobs = append(jobs,
			measure("measure-lockcounter-uniform", lockMeta, fmt.Sprintf("uniform:seed=%d", s(0)), lockReplays),
			soak(s(1)),
			measure("measure-unicons-uniform", measureMeta, fmt.Sprintf("uniform:seed=%d", s(2)), uniconsReplays),
			clean,
			measure("measure-lockcounter-markov", lockMeta, fmt.Sprintf("markov:seed=%d", s(4)), markovReplays),
			soak(s(5)),
		)
		if c%2 == 1 {
			jobs = append(jobs, farmJob{label: "check-unicons-n3-q2-b3", kind: jobspec.KindCheck, state: service.StateFailed, runs: 4167,
				spec: &jobspec.Spec{Kind: jobspec.KindCheck, Check: &jobspec.Check{Meta: unicons(3, 2), Mode: jobspec.ModeBudget, Budget: 3}}})
		}
	}
	return jobs
}

// farmState is one prepared farm: a fresh temp store and service.
type farmState struct {
	dir  string
	st   *store.Store
	svc  *service.Service
	jobs []farmJob
}

func (f *farmState) close() {
	if f.svc != nil {
		f.svc.Stop()
	}
	os.RemoveAll(f.dir)
}

// setupFarm validates every job spec and warms each distinct one up
// with a capped run through its layer (a short Fuzz sweep, a capped
// exploration, a few soak replays), then opens a fresh temp store and
// starts the service over it.
func setupFarm(cfg *config) (any, error) {
	jobs := farmJobs(cfg.seed, cfg.short)
	warmed := map[string]bool{}
	for _, j := range jobs {
		if err := j.spec.Validate(); err != nil {
			return nil, err
		}
		if warmed[j.label] {
			continue
		}
		warmed[j.label] = true
		switch j.kind {
		case jobspec.KindMeasure:
			m := j.spec.Measure
			build, err := m.Builder()
			if err != nil {
				return nil, err
			}
			opts, err := m.Options()
			if err != nil {
				return nil, err
			}
			opts.Parallelism, opts.MaxSchedules = 1, warmupRuns
			m.Run(build, opts)
		case jobspec.KindCheck:
			c := j.spec.Check
			build, err := c.Builder()
			if err != nil {
				return nil, err
			}
			check.ExploreBudget(build, c.Budget, check.Options{Parallelism: 1, MaxSchedules: warmupRuns})
		default:
			s := j.spec.Soak
			for idx := int64(0); idx < warmupRuns/10; idx++ {
				meta, sc := artifact.SoakMeta(s.Seed, s.ResolvedCrashSeed(), idx, s.MaxCrashes)
				if _, err := artifact.Replay(&artifact.Bundle{Version: artifact.Version, Meta: meta, Sched: sc}, artifact.ReplayOptions{}); err != nil {
					return nil, err
				}
			}
		}
	}
	dir, err := os.MkdirTemp(cfg.tmp, "farm-")
	if err != nil {
		return nil, err
	}
	f := &farmState{dir: dir, jobs: jobs}
	if f.st, err = store.Open(filepath.Join(dir, "store")); err != nil {
		f.close()
		return nil, err
	}
	f.svc, err = service.New(service.Config{Store: f.st, GlobalWorkers: runtime.NumCPU(), LegSchedules: legSchedules})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// jobTimes is one job's observed life: submit to running (queue wait),
// running to terminal (run time), and submit to terminal (latency), as
// seen by a client polling Service.Job.
type jobTimes struct {
	status             service.Status
	wait, run, total   time.Duration
	submitErr, pollErr error
}

func terminalState(s string) bool {
	switch s {
	case service.StateDone, service.StateFailed, service.StateError, service.StateCancelled:
		return true
	}
	return false
}

// farmPass submits the job list through cfg.workers closed-loop
// clients, each with one job outstanding, and checks every job's
// outcome.
func farmPass(cfg *config, f *farmState, tr *tracer) *passResult {
	p := newPass()
	times := make([]jobTimes, len(f.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for c := 0; c < cfg.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(f.jobs) {
					return
				}
				times[i] = runJob(f.svc, f.jobs[i].spec)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	waits := map[string][]float64{}
	for i, j := range f.jobs {
		t := &times[i]
		p.ops++
		p.runs += j.runs
		p.latencies = append(p.latencies, t.total.Seconds())
		checkJob(p, f, i, &j, t)
		waits["wait"] = append(waits["wait"], t.wait.Seconds())
		waits[j.kind] = append(waits[j.kind], t.run.Seconds())
	}
	if tr != nil {
		p.figs = map[string]float64{
			"service.queue_wait_s_p50": quantile(waits["wait"], 0.5),
			"service.queue_wait_s_p90": quantile(waits["wait"], 0.9),
		}
		for _, kind := range []string{jobspec.KindMeasure, jobspec.KindSoak, jobspec.KindCheck} {
			p.figs["service.run_s."+kind] = quantile(waits[kind], 0.5)
		}
		starvationGap(p)
	}
	return p
}

// runJob submits one job and polls it to a terminal state.
func runJob(svc *service.Service, spec *jobspec.Spec) jobTimes {
	var t jobTimes
	start := time.Now()
	id, err := svc.Submit(spec)
	if err != nil {
		t.submitErr = err
		return t
	}
	running := false
	for {
		st, err := svc.Job(id)
		now := time.Since(start)
		if err != nil {
			t.pollErr = err
			return t
		}
		if !running && st.State != service.StateQueued {
			running = true
			t.wait = now
		}
		if terminalState(st.State) {
			t.status, t.total, t.run = st, now, now-t.wait
			return t
		}
		if now > jobTimeout {
			t.status, t.pollErr = st, fmt.Errorf("job %s still %s after %v", id, st.State, jobTimeout)
			return t
		}
		time.Sleep(pollEvery)
	}
}

// checkJob is the correctness gate for one farm job: the expected
// terminal state and run count, and for measure jobs the stored
// distribution (Theorem 1's bound of 8 with nothing censored for
// unicons; starvation for the lock-based counter).
func checkJob(p *passResult, f *farmState, i int, j *farmJob, t *jobTimes) {
	if t.submitErr != nil || t.pollErr != nil {
		p.fail("job %d (%s): submit=%v poll=%v", i, j.label, t.submitErr, t.pollErr)
		return
	}
	st := t.status
	if st.State != j.state {
		p.fail("job %d (%s): state %s (%s %s), want %s", i, j.label, st.State, st.Detail, st.Error, j.state)
		return
	}
	switch j.kind {
	case jobspec.KindSoak:
		if st.Runs != j.runs || st.Violations != 0 {
			p.fail("job %d (%s): %d runs, %d violations; want %d runs clean", i, j.label, st.Runs, st.Violations, j.runs)
		}
	case jobspec.KindCheck:
		if int64(st.Schedules) != j.runs || st.Legs < 2 {
			p.fail("job %d (%s): %d schedules in %d legs, want %d in at least 2", i, j.label, st.Schedules, st.Legs, j.runs)
		}
		p.exact[j.label+".violations"] += int64(st.Violations)
		p.exact[j.label+".legs"] += int64(st.Legs)
	case jobspec.KindMeasure:
		ps, err := storedProgress(f.st, st)
		if err != nil {
			p.fail("job %d (%s): %v", i, j.label, err)
			return
		}
		if ps.Runs != j.runs {
			p.fail("job %d (%s): measured %d runs, want %d", i, j.label, ps.Runs, j.runs)
		}
		if j.spec.Measure.Meta.Workload == "unicons" {
			if ps.Max > 8 || ps.Censored != 0 {
				p.fail("job %d (%s): max %d with %d censored, Theorem 1 wants max <= 8 and none censored", i, j.label, ps.Max, ps.Censored)
			}
		} else if ps.Censored == 0 {
			p.fail("job %d (%s): the lock-based counter did not starve", i, j.label)
		}
		for _, q := range []struct {
			name string
			v    int64
		}{{"p50", ps.P50}, {"p90", ps.P90}, {"p99", ps.P99}, {"max", ps.Max}, {"censored", ps.Censored}, {"censored_max", ps.CensoredMax}} {
			p.exact[j.label+"."+q.name] += q.v
		}
		key := j.label + ".worst"
		if w := max(ps.Max, ps.CensoredMax); w > p.exact[key] {
			p.exact[key] = w
		}
	}
}

// storedProgress reads a measure job's distribution from the store.
func storedProgress(st *store.Store, status service.Status) (*check.ProgressStats, error) {
	if len(status.Artifacts) != 1 {
		return nil, fmt.Errorf("%d artifacts, want the distribution only", len(status.Artifacts))
	}
	data, err := st.Artifact(status.Artifacts[0])
	if err != nil {
		return nil, err
	}
	var ps check.ProgressStats
	if err := json.Unmarshal(data, &ps); err != nil {
		return nil, fmt.Errorf("decode distribution: %w", err)
	}
	return &ps, nil
}

// starvationGap is the lock-based counter's worst measured invocation
// over the wait-free consensus's, across the pass's measure jobs.
func starvationGap(p *passResult) {
	lock := max(p.exact["measure-lockcounter-uniform.worst"], p.exact["measure-lockcounter-markov.worst"])
	p.figs["check.starvation_gap"] = ratio(float64(lock), float64(p.exact["measure-unicons-uniform.worst"]))
}

// farmLayers runs the farm's simulation work directly through the
// public APIs with tracing on: every measure job's sweep through
// check.Fuzz with a traced builder, every soak run through
// artifact.Build with a traced chooser (and through artifact.Replay,
// which must report identical statement and crash counts), and every
// check job through check.ExploreBudget. It adds the campaign journal,
// store and Measure-overhead probes.
func farmLayers(cfg *config, tr *tracer, figs map[string]float64, p *passResult) {
	jobs := farmJobs(cfg.seed, cfg.short)
	for i, j := range jobs {
		switch j.kind {
		case jobspec.KindMeasure:
			traceMeasure(p, tr, i, &j)
		case jobspec.KindSoak:
			traceSoak(p, tr, i, &j)
		case jobspec.KindCheck:
			traceCheck(p, tr, i, &j)
		}
	}
	tr.flush()
	tr.simFigures(figs)
	figs["artifact.replay_ns"] = ratio(tr.get("replay_ns"), tr.get("replays"))
	figs["artifact.replay_divergences"] = tr.get("divergences")
	figs["check.schedules"] = tr.get("schedules")
	figs["check.useful_frac"] = ratio(tr.get("schedules"), tr.get("check_runs"))
	measureOverhead(p, jobs, figs)
	campaignProbe(cfg, p, &jobs[1], figs)
	storeProbe(cfg, p, figs)
}

// traceMeasure runs a measure job's sweep through check.Fuzz with a
// traced builder and replays part of it through the kernel directly.
func traceMeasure(p *passResult, tr *tracer, i int, j *farmJob) {
	m := j.spec.Measure
	build, err := m.Builder()
	if err != nil {
		p.fail("job %d (%s): %v", i, j.label, err)
		return
	}
	opts, err := m.Options()
	if err != nil {
		p.fail("job %d (%s): %v", i, j.label, err)
		return
	}
	opts.Parallelism = 1
	kind := opts.SchedModel.Name
	res := m.Run(tr.builder(build, kind, false), opts)
	runs, _ := tr.flush()
	p.ops++
	if runs != int64(res.Schedules) || res.Progress == nil || res.Progress.Runs != j.runs {
		p.fail("job %d (%s): traced sweep saw %d runs of %d", i, j.label, runs, j.runs)
	}
	spec := opts.SchedModel
	tr.replayLoop(build, 20, func(k int) sim.Chooser {
		ch, err := sched.NewFromSpec(spec.WithRunSeed(int64(k)))
		if err != nil {
			panic(err) // validated by the job spec
		}
		return ch
	})
}

// traceSoak re-executes a soak job's runs the way the campaign derives
// them: each run is a fresh artifact.Build around a traced chooser,
// then the same bundle goes through artifact.Replay. The two must agree
// on the verdict; a statement or crash count that differs is counted
// as a divergence.
func traceSoak(p *passResult, tr *tracer, i int, j *farmJob) {
	s := j.spec.Soak
	acc := &runAcc{kind: "random"}
	crashes := 0
	for idx := int64(0); idx < s.Runs; idx++ {
		meta, sc := artifact.SoakMeta(s.Seed, s.ResolvedCrashSeed(), idx, s.MaxCrashes)
		var ch sim.Chooser = sched.NewRandom(sc.Seed)
		if sc.MaxCrashes > 0 {
			ch = sched.NewRandomCrash(ch, sc.CrashSeed, sc.MaxCrashes, sc.CrashProb)
		}
		tc := &timedChooser{acc: acc}
		tc.set(ch)
		start := time.Now()
		sys, verify, err := artifact.Build(meta, tc, nil)
		if err != nil {
			p.fail("job %d (%s): build run %d: %v", i, j.label, idx, err)
			return
		}
		tr.add("builds", 1)
		tr.add("build_ns", float64(time.Since(start)))
		picks := acc.pickNS
		start = time.Now()
		runErr := sys.Run()
		tr.add("loop.run_ns", float64(time.Since(start))-float64(acc.pickNS-picks))
		steps, crashed := sys.Steps(), sys.CrashedCount()
		tr.add("loop.stmts", float64(steps))
		tr.add("stmts", float64(steps))
		tr.add("soak_stmts", float64(steps))
		verr := verify(runErr)
		sys.Close()

		start = time.Now()
		rep, err := artifact.Replay(&artifact.Bundle{Version: artifact.Version, Meta: meta, Sched: sc}, artifact.ReplayOptions{})
		tr.add("replay_ns", float64(time.Since(start)))
		tr.add("replays", 1)
		if err != nil || (rep.Err == nil) != (verr == nil) {
			p.fail("job %d (%s): run %d verdict traced %v, replayed %v (err=%v)", i, j.label, idx, verr, rep.Err, err)
			return
		}
		// Both executions derive from the same bundle, so they must agree
		// statement for statement; a divergence is nondeterminism in the
		// program, counted rather than hidden.
		if rep.Steps != steps || rep.Crashed != crashed {
			tr.add("divergences", 1)
		}
		crashes += crashed
		tr.add("crashes", float64(crashed))
	}
	tr.add("picks", float64(acc.picks))
	p.ops++
	// The soak injects crashes through the traced chooser; none firing
	// means the wrapper lost sim.Crasher.
	if crashes == 0 {
		p.fail("job %d (%s): no crash fired through the traced chooser", i, j.label)
	}
}

// traceCheck explores a check job's tree with a traced builder.
func traceCheck(p *passResult, tr *tracer, i int, j *farmJob) {
	c := j.spec.Check
	build, err := c.Builder()
	if err != nil {
		p.fail("job %d (%s): %v", i, j.label, err)
		return
	}
	res := check.ExploreBudget(tr.builder(build, "budgeted", false), c.Budget, check.Options{Parallelism: 1, MaxSchedules: 1 << 24})
	runs, _ := tr.flush()
	p.ops++
	tr.add("schedules", float64(res.Schedules))
	tr.add("check_runs", float64(runs))
	if int64(res.Schedules) != j.runs || runs != j.runs {
		p.fail("job %d (%s): traced exploration %d schedules (%d traced runs), want %d", i, j.label, res.Schedules, runs, j.runs)
	}
}

// measureOverhead times the measure specs' sweeps through check.Fuzz
// with Measure on and off, alternating, and reports on over off.
func measureOverhead(p *passResult, jobs []farmJob, figs map[string]float64) {
	var on, off time.Duration
	for rep := 0; rep < 3; rep++ {
		for _, j := range jobs[:6] {
			if j.kind != jobspec.KindMeasure {
				continue
			}
			m := j.spec.Measure
			build, _ := m.Builder()
			opts, _ := m.Options()
			opts.Parallelism = 1
			for _, measure := range []bool{true, false} {
				opts.Measure = measure
				start := time.Now()
				res := m.Run(build, opts)
				d := time.Since(start)
				if measure {
					on += d
				} else {
					off += d
				}
				if int64(res.Schedules) != j.runs {
					p.fail("%s: Measure=%v sweep ran %d of %d", j.label, measure, res.Schedules, j.runs)
				}
			}
		}
	}
	figs["check.measure_overhead"] = ratio(float64(on), float64(off))
}

// campaignProbe times the campaign layer directly: a whole soak
// campaign through campaign.Run, and the journal and checkpoint API on
// a temp dir with the soak's record shape.
func campaignProbe(cfg *config, p *passResult, j *farmJob, figs map[string]float64) {
	dir, err := os.MkdirTemp(cfg.tmp, "campaign-")
	if err != nil {
		p.fail("campaign probe: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	c := j.spec.Soak.Config()
	c.Parallel = 1
	c.StateDir = filepath.Join(dir, "soak")
	start := time.Now()
	res, err := campaign.Run(c)
	secs := time.Since(start).Seconds()
	p.ops++
	if err != nil || res.State.Runs != j.runs || res.Failed() {
		p.fail("campaign probe: soak %v", err)
		return
	}
	figs["campaign.runs_per_s"] = float64(res.State.Runs) / secs

	jr, _, err := campaign.OpenJournal(filepath.Join(dir, "journal.jsonl"), nil)
	if err != nil {
		p.fail("campaign probe: %v", err)
		return
	}
	const appends, syncs = 512, 64
	start = time.Now()
	for i := 0; i < appends; i++ {
		jr.Append(campaign.Record{Type: "run", Idx: int64(i), Crashed: i % 3})
	}
	figs["campaign.append_ns"] = float64(time.Since(start)) / appends
	var ds []time.Duration
	for i := 0; i < syncs; i++ {
		jr.Append(campaign.Record{Type: "run", Idx: int64(appends + i), Crashed: i % 3})
		start := time.Now()
		if err := jr.Sync(); err != nil {
			p.fail("campaign probe: sync: %v", err)
		}
		ds = append(ds, time.Since(start))
	}
	jr.Close()
	figs["campaign.sync_ns_p50"] = percentileNS(ds, 0.5)
	figs["campaign.sync_ns_p99"] = percentileNS(ds, 0.99)
	cp := &campaign.Checkpoint{Version: 1, State: res.State}
	ckpt := filepath.Join(dir, "ckpt")
	if err := os.Mkdir(ckpt, 0o755); err != nil {
		p.fail("campaign probe: %v", err)
		return
	}
	const checkpoints = 16
	start = time.Now()
	for i := 0; i < checkpoints; i++ {
		if err := campaign.WriteCheckpoint(ckpt, cp); err != nil {
			p.fail("campaign probe: checkpoint: %v", err)
		}
	}
	figs["campaign.checkpoint_ns"] = float64(time.Since(start)) / checkpoints
}

// storeProbe times store writes of a job-status-sized file on a temp
// store.
func storeProbe(cfg *config, p *passResult, figs map[string]float64) {
	dir, err := os.MkdirTemp(cfg.tmp, "store-")
	if err != nil {
		p.fail("store probe: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		p.fail("store probe: %v", err)
		return
	}
	id, err := st.CreateJob()
	if err != nil {
		p.fail("store probe: %v", err)
		return
	}
	data, _ := json.MarshalIndent(service.Status{ID: id, Kind: "soak", State: service.StateRunning, Detail: "probe", Runs: 300}, "", "  ")
	const writes = 64
	start := time.Now()
	for i := 0; i < writes; i++ {
		if err := st.WriteJobFile(id, "status.json", data); err != nil {
			p.fail("store probe: %v", err)
			return
		}
	}
	figs["store.write_ns"] = float64(time.Since(start)) / writes
}
