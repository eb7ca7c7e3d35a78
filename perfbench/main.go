// Command perfbench is the repository benchmark. It drives the
// checker's layers (check, sim, sched, artifact, minimize, campaign,
// store, service) through their public APIs from outside the program,
// on three named workloads:
//
//	explore-plain    plain ExploreBudget over four registered trees
//	explore-reduced  Reduction: full at one worker, plus capture and shrink
//	farm-mix         an in-process service fed by a closed loop of clients
//
// Usage:
//
//	perfbench --workload explore-plain --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last stdout line is one JSON object holding the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a separately traced run. The line before it records the conditions
// (CPUs, GOMAXPROCS, workers, Go version, seed) and every metric's
// median, quartiles and sample count. A correctness miss counts in
// "failed" and makes the command exit 1. README.md documents every
// metric, its layer, and which end-to-end figure it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is what a workload sees of the command line and machine.
type config struct {
	seed    int64
	workers int    // exploration workers or farm clients
	tmp     string // scratch root for stores and journals
	// short shrinks the fixed work for the package's own tests.
	short bool
}

// workload is one named benchmark workload. setup prepares the state a
// pass needs and is timed as setup_s; pass does the fixed work (traced
// when tr is non-nil) and checks its outputs; teardown releases the
// state.
type workload struct {
	name     string
	why      string
	workers  func(nproc int) int
	setup    func(cfg *config) (any, error)
	pass     func(cfg *config, state any, tr *tracer) *passResult
	teardown func(state any)
	// layers, if non-nil, runs the traced run's workload-specific
	// probes once and adds their figures.
	layers func(cfg *config, tr *tracer, figs map[string]float64, res *passResult)
}

var workloads = []*workload{explorePlain, exploreReduced, farmMix}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// passResult is the outcome of one pass over a workload's fixed work.
type passResult struct {
	wall   float64 // seconds
	alloc  uint64  // heap bytes allocated (MemStats.TotalAlloc delta)
	runs   int64   // simulator runs executed, pruned partial replays included
	steals int64   // work items stolen between explorer workers
	ops    int     // units attempted: trees verified, shrinks, jobs
	failed []string
	// latencies holds the time of each unit (tree or job), in seconds.
	latencies []float64
	// exact holds figures that must repeat exactly on every pass, traced
	// or not: schedule counts, shrink candidates, measured percentiles.
	exact map[string]int64
	// figs holds the traced pass's per-layer figures (nil untraced).
	figs map[string]float64
}

func newPass() *passResult { return &passResult{exact: map[string]int64{}} }

func (p *passResult) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	p.failed = append(p.failed, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is a metric's spread over the samples it was reduced from.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	// Timing marks figures that depend on host timing (as opposed to
	// exact simulated counts).
	Timing bool `json:"timing,omitempty"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: explore-plain | explore-reduced | farm-mix")
		seed    = flag.Int64("seed", 1, "workload seed (model seeds and soak base seeds)")
		seconds = flag.Float64("seconds", 10, "measurement length in seconds")
		trace   = flag.Int("trace", 0, "1 = print per-layer metrics from a traced run")
	)
	flag.Parse()
	w := lookup(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <%s> --seed N --seconds S --trace 0|1\n", names())
		os.Exit(2)
	}
	// A wedged layer must not hang the caller: the whole run has a hard
	// ceiling well past its measurement length.
	limit := time.Duration(*seconds*float64(time.Second)) + 150*time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; aborting\n", limit)
		os.Exit(3)
	})
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	cfg := &config{seed: *seed, workers: w.workers(nproc), tmp: tmp}
	var res *result
	var details map[string]summary
	if *trace == 1 {
		res, details = runTraced(w, cfg, *seconds)
	} else {
		res, details = runPlain(w, cfg, *seconds)
	}
	os.RemoveAll(tmp)
	cond := map[string]any{
		"workload":   w.name,
		"why":        w.why,
		"seed":       cfg.seed,
		"trace":      *trace,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    cfg.workers,
		"go":         runtime.Version(),
		"seconds":    *seconds,
		"ops":        metric{float64(res.Attempted), "count"},
		"failed_ops": metric{float64(res.Failed), "count"},
	}
	printJSON(map[string]any{"conditions": cond, "detail": details})
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func names() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += "|"
		}
		s += w.name
	}
	return s
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode:", err)
		os.Exit(2)
	}
	fmt.Println(string(data))
}

// timedSetup prepares one pass and returns its state and set-up time.
func timedSetup(w *workload, cfg *config) (any, float64, error) {
	runtime.GC()
	start := time.Now()
	st, err := w.setup(cfg)
	return st, time.Since(start).Seconds(), err
}

// onePass runs set-up, one pass (timed by the workload itself), and
// teardown.
func onePass(w *workload, cfg *config, tr *tracer) (*passResult, float64) {
	st, setup, err := timedSetup(w, cfg)
	if err != nil {
		p := newPass()
		p.fail("%s set-up: %v", w.name, err)
		return p, setup
	}
	runtime.GC()
	p := w.pass(cfg, st, tr)
	w.teardown(st)
	return p, setup
}

// minSetups is how many set-ups feed setup_s at least: the median of
// several set-ups is steadier than one.
const minSetups = 5

// runPlain is the untraced measurement: passes repeat until the
// measurement length is used up, and every end-to-end metric is the
// median over passes.
func runPlain(w *workload, cfg *config, seconds float64) (*result, map[string]summary) {
	start := time.Now()
	var passes []*passResult
	var setups []float64
	for len(passes) == 0 || time.Since(start).Seconds() < seconds {
		p, s := onePass(w, cfg, nil)
		passes = append(passes, p)
		setups = append(setups, s)
	}
	for len(setups) < minSetups {
		st, s, err := timedSetup(w, cfg)
		if err == nil {
			w.teardown(st)
		}
		setups = append(setups, s)
	}
	res := collect(passes)
	var walls, allocs, lats []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		allocs = append(allocs, float64(p.alloc)/(1<<20))
		lats = append(lats, p.latencies...)
	}
	details := map[string]summary{
		"setup_s":  summarize(setups, "s", true),
		"wall_s":   summarize(walls, "s", true),
		"runs":     summarize([]float64{float64(passes[0].runs)}, "count", false),
		"alloc_mb": summarize(allocs, "MiB", true),
	}
	// Job latencies pool every unit of every pass; the percentile spread
	// is reported over the per-pass values.
	var p50s, p90s []float64
	for _, p := range passes {
		p50s = append(p50s, quantile(p.latencies, 0.5))
		p90s = append(p90s, quantile(p.latencies, 0.9))
	}
	details["job_p50_s"] = summary{Median: quantile(lats, 0.5), Q1: quantile(p50s, 0.25), Q3: quantile(p50s, 0.75), N: len(lats), Unit: "s", Timing: true}
	details["job_p90_s"] = summary{Median: quantile(lats, 0.9), Q1: quantile(p90s, 0.25), Q3: quantile(p90s, 0.75), N: len(lats), Unit: "s", Timing: true}
	for _, name := range endToEnd {
		d := details[name]
		res.Metrics[name] = metric{d.Median, d.Unit}
	}
	return res, details
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
var endToEnd = []string{"setup_s", "wall_s", "runs", "alloc_mb", "job_p50_s", "job_p90_s"}

// collect folds the passes' correctness into a result and checks that
// every exact figure repeated on every pass.
func collect(passes []*passResult) *result {
	res := &result{Metrics: map[string]metric{}}
	failed := 0
	first := passes[0]
	for i, p := range passes {
		res.Attempted += p.ops
		failed += len(p.failed)
		if p.runs != first.runs {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: pass %d executed %d runs, pass 0 %d\n", i, p.runs, first.runs)
		}
		for _, k := range sortedKeys(first.exact) {
			if p.exact[k] != first.exact[k] {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: FAIL: exact figure %s is %d on pass %d, %d on pass 0\n", k, p.exact[k], i, first.exact[k])
			}
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		failed++
	}
	res.Failed = failed
	res.Correct = failed == 0
	return res
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
