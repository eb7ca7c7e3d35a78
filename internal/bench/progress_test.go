package bench_test

import (
	"encoding/json"
	"testing"

	"repro/internal/artifact"
	"repro/internal/check"
	"repro/internal/sched"
)

// progressLeg is one workload's measured per-invocation progress under
// a stochastic scheduler: the tail figures of a check.ProgressStats.
type progressLeg struct {
	DeclaredBound int64
	Samples       int64
	Censored      int64
	P50, P99      int64
	P999, Max     int64
	CensoredMax   int64
}

// progressPair is the experiment E9 comparison: the Fig. 3 wait-free
// consensus and the lockcounter negative control measured under the
// same scheduler model and replay count, and the starvation gap between
// them (the lock-based worst case, completed or censored, over the
// wait-free observed max).
type progressPair struct {
	Model    string
	WaitFree progressLeg
	Locked   progressLeg
	Gap      float64
}

var (
	progressWaitFreeMeta = artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 2, MaxSteps: 1 << 14}
	progressLockedMeta   = artifact.Meta{Workload: "lockcounter", N: 2, V: 2, Quantum: 2, MaxSteps: 4000}
)

func measureLeg(t *testing.T, meta artifact.Meta, spec *sched.ModelSpec, replays, parallelism int) progressLeg {
	t.Helper()
	build, err := check.BuilderFor(meta)
	if err != nil {
		t.Fatal(err)
	}
	res := check.Fuzz(build, replays, check.Options{
		MaxSchedules: replays,
		Parallelism:  parallelism,
		SchedModel:   spec,
		Measure:      true,
	})
	p := res.Progress
	if p == nil || p.Runs == 0 {
		t.Fatalf("%s measurement produced no runs", meta.Workload)
	}
	return progressLeg{
		DeclaredBound: artifact.DeclaredBound(meta),
		Samples:       p.Samples,
		Censored:      p.Censored,
		P50:           p.P50,
		P99:           p.P99,
		P999:          p.P999,
		Max:           p.Max,
		CensoredMax:   p.CensoredMax,
	}
}

// measureProgress parses the model before measuring anything, so a bad
// model fails fast instead of measuring under something else.
func measureProgress(t *testing.T, model string, replays, parallelism int) (progressPair, error) {
	spec, err := sched.ParseModelSpec(model)
	if err != nil {
		return progressPair{}, err
	}
	wf := measureLeg(t, progressWaitFreeMeta, spec, replays, parallelism)
	lk := measureLeg(t, progressLockedMeta, spec, replays, parallelism)
	if wf.Max == 0 {
		t.Fatalf("wait-free leg measured no statements: %+v", wf)
	}
	return progressPair{
		Model:    spec.String(),
		WaitFree: wf,
		Locked:   lk,
		Gap:      float64(max(lk.Max, lk.CensoredMax)) / float64(wf.Max),
	}, nil
}

// TestMeasureProgressGapAndDeterminism pins experiment E9 as a pair:
// under the seeded uniform model the wait-free leg is bounded and
// uncensored, the negative control starves, the gap is large, and the
// whole comparison is a deterministic function of the replay count —
// identical at parallelism 1 and 4.
func TestMeasureProgressGapAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement sweep is not short")
	}
	const replays = 300
	seq, err := measureProgress(t, "uniform:seed=1", replays, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := measureProgress(t, "uniform:seed=1", replays, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(seq)
	b, _ := json.Marshal(par)
	if string(a) != string(b) {
		t.Errorf("progress measurement differs across parallelism\n seq: %s\n par: %s", a, b)
	}
	if seq.WaitFree.DeclaredBound == 0 || seq.WaitFree.Max > seq.WaitFree.DeclaredBound {
		t.Errorf("wait-free leg out of bound: %+v", seq.WaitFree)
	}
	if seq.WaitFree.Censored != 0 {
		t.Errorf("wait-free leg left %d invocations unfinished", seq.WaitFree.Censored)
	}
	if seq.Locked.Censored == 0 {
		t.Errorf("negative control shows no starved invocations: %+v", seq.Locked)
	}
	if seq.Gap < 2 {
		t.Errorf("starvation gap %.2f, want >= 2", seq.Gap)
	}
}

// TestMeasureProgressRejectsBadModel pins the error surface: an unknown
// model or an unknown model parameter is refused before any measurement.
func TestMeasureProgressRejectsBadModel(t *testing.T) {
	if _, err := measureProgress(t, "nosuch", 10, 1); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := measureProgress(t, "markov:warp=1", 10, 1); err == nil {
		t.Error("unknown parameter accepted")
	}
}
