package check_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/sched"
)

// crossModes is every reduction mode, plain first.
var crossModes = []check.Reduction{
	check.ReductionNone,
	check.ReductionSleepSet,
	check.ReductionFingerprint,
	check.ReductionFull,
}

// crossConfig is one pinned workload configuration of the cross-check
// matrix. budget 0 runs ExploreAll (the full tree — feasible for these
// sizes); budget > 0 runs ExploreBudget.
type crossConfig struct {
	name     string
	meta     artifact.Meta
	waitFree int64
	budget   int
	wantViol bool
}

// crossMatrix pins the reduced-vs-plain equivalence matrix: consensus
// workloads above and below their quantum thresholds, a multiprocessor
// configuration, crash injection, and the blocking negative control.
// Every configuration is small enough that the plain exploration runs to
// completion, so verdict equality is exact, not sampled.
var crossMatrix = []crossConfig{
	{name: "unicons-q0", meta: artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 0}, wantViol: true},
	{name: "unicons-q2", meta: artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 2}, wantViol: true},
	{name: "unicons-q5-ok", meta: artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 5}},
	{name: "unicons-2v-ok", meta: artifact.Meta{Workload: "unicons", N: 2, V: 2, Quantum: 2}},
	{name: "unicons-crash", meta: artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 2,
		Crashes: []sched.CrashPoint{{Proc: 0, Step: 4}}}, wantViol: true},
	{name: "hybridcas-b3", meta: artifact.Meta{Workload: "hybridcas", N: 2, V: 1, Quantum: 2},
		budget: 3, wantViol: true},
	{name: "multicons-b1-ok", meta: artifact.Meta{Workload: "multicons", P: 2, M: 1, V: 1, Quantum: 2},
		budget: 1},
	{name: "lockcounter", meta: artifact.Meta{Workload: "lockcounter", N: 2, V: 2, Quantum: 2, MaxSteps: 2000},
		waitFree: 200, wantViol: true},
}

func runCross(t *testing.T, cfg crossConfig, mode check.Reduction, parallelism int) *check.Result {
	t.Helper()
	build, err := check.BuilderFor(cfg.meta)
	if err != nil {
		t.Fatalf("BuilderFor(%s): %v", cfg.name, err)
	}
	opts := check.Options{
		MaxSchedules:  2_000_000,
		Parallelism:   parallelism,
		WaitFreeBound: cfg.waitFree,
		Reduction:     mode,
	}
	var res *check.Result
	if cfg.budget > 0 {
		res = check.ExploreBudget(build, cfg.budget, opts)
	} else {
		res = check.ExploreAll(build, opts)
	}
	if res.Truncated || res.Interrupted {
		t.Fatalf("%s/%v/p%d: exploration did not run to completion (truncated=%v interrupted=%v after %d schedules)",
			cfg.name, mode, parallelism, res.Truncated, res.Interrupted, res.Schedules)
	}
	return res
}

// TestCrossCheckReducedMatchesPlain is the reduced-vs-plain equivalence
// harness: over the pinned matrix, at every Parallelism, every reduction
// mode must reproduce the plain verdict exactly — violations exist under
// reduction iff they exist plain — while never executing more schedules
// and never inventing violations beyond the plain count (reduction
// merges equivalent counterexamples, so its total is a lower bound).
func TestCrossCheckReducedMatchesPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-check matrix is heavyweight")
	}
	for _, cfg := range crossMatrix {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for _, parallelism := range []int{1, 4} {
				plain := runCross(t, cfg, check.ReductionNone, parallelism)
				if plain.Reduction != nil {
					t.Errorf("p%d: plain result carries ReductionStats", parallelism)
				}
				if got := !plain.OK(); got != cfg.wantViol {
					t.Fatalf("p%d: plain verdict violations=%v, want %v (total %d)",
						parallelism, got, cfg.wantViol, plain.ViolationsTotal)
				}
				for _, mode := range crossModes[1:] {
					red := runCross(t, cfg, mode, parallelism)
					if (red.ViolationsTotal > 0) != (plain.ViolationsTotal > 0) {
						t.Errorf("%v/p%d: verdict mismatch: reduced %d violations, plain %d",
							mode, parallelism, red.ViolationsTotal, plain.ViolationsTotal)
					}
					if red.ViolationsTotal > plain.ViolationsTotal {
						t.Errorf("%v/p%d: reduced found %d violations > plain %d",
							mode, parallelism, red.ViolationsTotal, plain.ViolationsTotal)
					}
					if red.Schedules > plain.Schedules {
						t.Errorf("%v/p%d: reduced executed %d schedules > plain %d",
							mode, parallelism, red.Schedules, plain.Schedules)
					}
					if red.Reduction == nil {
						t.Errorf("%v/p%d: reduced result missing ReductionStats", mode, parallelism)
					} else if red.Reduction.Mode != mode.String() {
						t.Errorf("%v/p%d: ReductionStats.Mode = %q", mode, parallelism, red.Reduction.Mode)
					}
				}
			}
		})
	}
}

// TestCrossCheckMinQFrontier sweeps the quantum on the Fig. 3 workload
// and requires every reduction mode to reproduce the plain exploration's
// minimal-Q frontier exactly: the same set of quanta with violations.
// A reduction that pruned a genuine counterexample would pass a failing
// quantum; one that invented violations would fail a passing quantum.
func TestCrossCheckMinQFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier sweep is heavyweight")
	}
	const maxQ = 6
	frontier := func(mode check.Reduction) string {
		var buf bytes.Buffer
		for q := 0; q <= maxQ; q++ {
			build, err := check.BuilderFor(artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: q})
			if err != nil {
				t.Fatal(err)
			}
			res := check.ExploreAll(build, check.Options{MaxSchedules: 2_000_000, Parallelism: 4, Reduction: mode})
			if res.Truncated || res.Interrupted {
				t.Fatalf("mode %v Q=%d: incomplete exploration", mode, q)
			}
			fmt.Fprintf(&buf, "Q%d:%v ", q, !res.OK())
		}
		return buf.String()
	}
	want := frontier(check.ReductionNone)
	if want != "Q0:true Q1:true Q2:true Q3:true Q4:true Q5:false Q6:false " {
		t.Fatalf("plain frontier moved: %s", want)
	}
	for _, mode := range crossModes[1:] {
		if got := frontier(mode); got != want {
			t.Errorf("mode %v frontier %s != plain %s", mode, got, want)
		}
	}
}

// TestReductionRatio pins the headline reduction claim: on the Fig. 3
// workload for two processes at quantum 0, full reduction explores at
// least 5x fewer schedules than plain ExploreAll (12,870 → 171 at one
// worker) and reaches the same verdict.
func TestReductionRatio(t *testing.T) {
	build, err := check.BuilderFor(artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 0, MaxSteps: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	opts := check.Options{Parallelism: 1, MaxSchedules: 1 << 22}
	plain := check.ExploreAll(build, opts)
	opts.Reduction = check.ReductionFull
	red := check.ExploreAll(build, opts)
	for _, r := range []*check.Result{plain, red} {
		if r.Truncated || r.Interrupted {
			t.Fatalf("incomplete exploration: %d schedules", r.Schedules)
		}
	}
	if plain.OK() || red.OK() {
		t.Errorf("verdicts plain ok=%v, reduced ok=%v; both must find the violation", plain.OK(), red.OK())
	}
	if red.Schedules <= 0 || plain.Schedules < 5*red.Schedules {
		t.Errorf("plain %d schedules, reduced %d: want at least 5x fewer", plain.Schedules, red.Schedules)
	}
}

// TestReducedViolationForensicsDeterministic pins the repro pipeline for
// violations found under reduction: the attached artifact bundle and its
// shrink must be byte-identical across repeated explorations, and the
// bundle must actually replay to a failure.
func TestReducedViolationForensicsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("forensics cross-check is heavyweight")
	}
	meta := artifact.Meta{Workload: "hybridcas", N: 2, V: 1, Quantum: 2}
	run := func() *check.Result {
		build, err := check.BuilderFor(meta)
		if err != nil {
			t.Fatal(err)
		}
		res := check.ExploreBudget(build, 3, check.Options{
			MaxSchedules: 2_000_000,
			Parallelism:  1,
			Reduction:    check.ReductionFingerprint,
			ArtifactMeta: &meta,
			Minimize:     true,
		})
		if res.OK() {
			t.Fatal("expected a violation under reduction")
		}
		return res
	}
	encode := func(res *check.Result) []byte {
		v := res.First()
		if v.ForensicsErr != nil {
			t.Fatalf("forensics failed: %v", v.ForensicsErr)
		}
		if v.Artifact == nil || v.Shrink == nil {
			t.Fatalf("violation missing artifact (%v) or shrink stats (%v)", v.Artifact, v.Shrink)
		}
		b, err := json.Marshal(struct {
			Bundle *artifact.Bundle
			Shrink any
		}{v.Artifact, v.Shrink})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first, second := encode(run()), encode(run())
	if !bytes.Equal(first, second) {
		t.Errorf("reduced-mode forensics not byte-identical:\n%s\nvs\n%s", first, second)
	}
	// The bundle must reproduce the failure through the artifact pipeline.
	res := run()
	rep, err := artifact.Replay(res.First().Artifact, artifact.ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Err == nil {
		t.Error("minimized bundle of a reduction-found violation replayed clean")
	}
}
