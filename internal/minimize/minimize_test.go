package minimize_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/minimize"
	"repro/internal/sched"
	"repro/internal/unicons"
)

// findFailure sweeps seeded-random schedules until one violates the
// workload's property.
func findFailure(t *testing.T, meta artifact.Meta, maxSeed int64) *artifact.Bundle {
	t.Helper()
	for seed := int64(1); seed <= maxSeed; seed++ {
		b, rep, err := artifact.Capture(meta, artifact.Sched{Random: true, Seed: seed})
		if err != nil {
			t.Fatalf("Capture(seed=%d): %v", seed, err)
		}
		if rep.Failed() {
			return b
		}
	}
	t.Fatalf("no violating schedule for %+v in %d seeds", meta, maxSeed)
	return nil
}

// TestShrinkLockCounter: shrinking a LockCounter wait-freedom violation
// must converge to ≤ 12 decisions, verified by replaying the minimized
// bundle through artifact.Replay — whether the failing bundle came from
// a seeded-random sweep or from a scheduler-model campaign (the bundle
// a soak -sched-model run writes).
func TestShrinkLockCounter(t *testing.T) {
	meta := artifact.Meta{Workload: "lockcounter", N: 2, V: 2, Quantum: 4,
		MaxSteps: 2000, WaitFreeBound: 50}
	modelMeta := meta
	modelMeta.Quantum = 1
	modelBundle, rep, err := artifact.Capture(modelMeta,
		artifact.Sched{Model: &sched.ModelSpec{Name: "uniform"}, Seed: 1})
	if err != nil || !rep.Failed() {
		t.Fatalf("model-mode Capture: err %v, outcome %v; want a violation", err, rep.Err)
	}
	for _, tc := range []struct {
		name string
		b    *artifact.Bundle
	}{
		{"random", findFailure(t, meta, 200)},
		{"model", modelBundle},
	} {
		t.Run(tc.name, func(t *testing.T) {
			min, stats, err := minimize.Shrink(tc.b, minimize.Options{
				Match: func(err error) bool {
					return strings.Contains(err.Error(), "wait-freedom violated")
				},
			})
			if err != nil {
				t.Fatalf("Shrink: %v", err)
			}
			t.Logf("shrink: %s", stats)
			t.Logf("minimized decisions: %v", min.Sched.Decisions)

			if n := len(min.Sched.Decisions); n > 12 {
				t.Fatalf("minimized bundle has %d decisions, want ≤ 12", n)
			}
			rep, err := artifact.Replay(min, artifact.ReplayOptions{Trace: true})
			if err != nil {
				t.Fatalf("Replay(minimized): %v", err)
			}
			if rep.Err == nil || !strings.Contains(rep.Err.Error(), "wait-freedom violated") {
				t.Fatalf("minimized bundle no longer violates wait-freedom: %v", rep.Err)
			}
			if rep.Err.Error() != min.Err {
				t.Fatalf("minimized bundle's recorded error is stale:\n  recorded: %s\n  replayed: %s", min.Err, rep.Err)
			}
			if rep.Trace == "" {
				t.Fatal("minimized replay rendered no timeline")
			}
		})
	}
}

// TestShrinkUnicons: an agreement violation at Q = 1 reduces without
// losing the failure, and the stats account for the reduction.
func TestShrinkUnicons(t *testing.T) {
	meta := artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 1, MaxSteps: 1 << 16}
	b := findFailure(t, meta, 2000)

	min, stats, err := minimize.Shrink(b, minimize.Options{})
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	t.Logf("shrink: %s", stats)
	if stats.ToDecisions > stats.FromDecisions {
		t.Fatalf("shrink grew the decision vector: %s", stats)
	}
	if stats.Tried == 0 || stats.Accepted == 0 {
		t.Fatalf("shrink did no work: %s", stats)
	}
	if min.Err == "" {
		t.Fatal("minimized bundle records no violation")
	}
	rep, err := artifact.Replay(min, artifact.ReplayOptions{})
	if err != nil {
		t.Fatalf("Replay(minimized): %v", err)
	}
	if rep.Err == nil || rep.Err.Error() != min.Err {
		t.Fatalf("minimized bundle does not reproduce: recorded %q, replayed %v", min.Err, rep.Err)
	}
}

// TestShrinkDeterministic: the shrinker is a deterministic function of
// its input bundle — two runs agree byte-for-byte.
func TestShrinkDeterministic(t *testing.T) {
	meta := artifact.Meta{Workload: "hybridcas", N: 3, V: 1, Quantum: 1, MaxSteps: 1 << 16}
	b := findFailure(t, meta, 2000)

	m1, s1, err := minimize.Shrink(b, minimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, s2, err := minimize.Shrink(b, minimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(m1)
	j2, _ := json.Marshal(m2)
	if string(j1) != string(j2) {
		t.Fatalf("shrink nondeterministic:\n%s\n%s", j1, j2)
	}
	if *s1 != *s2 {
		t.Fatalf("shrink stats nondeterministic: %s vs %s", s1, s2)
	}
}

// TestShrinkDropsIrrelevantCrash: a crash point the failure never
// needed is removed by the crash-removal pass.
func TestShrinkDropsIrrelevantCrash(t *testing.T) {
	meta := artifact.Meta{Workload: "universal", N: 2, V: 1,
		Quantum: unicons.MinQuantum, MaxSteps: 1 << 16}
	// The lost-accounting crash found in the artifact round-trip test,
	// plus a decoy crash point far past the end of the run.
	meta.Crashes = []sched.CrashPoint{
		{Proc: 0, Step: 4},
		{Proc: 1, Step: 1 << 40},
	}
	b, rep, err := artifact.Capture(meta, artifact.Sched{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("crash plan did not produce a violation: %v", rep.Err)
	}

	min, stats, err := minimize.Shrink(b, minimize.Options{})
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	t.Logf("shrink: %s", stats)
	if len(min.Meta.Crashes) != 1 {
		t.Fatalf("crash plan = %v, want only the load-bearing point", min.Meta.Crashes)
	}
	if min.Meta.Crashes[0].Proc != 0 {
		t.Fatalf("shrink kept the decoy crash: %v", min.Meta.Crashes)
	}
}

// TestShrinkBudget: an exhausted budget still yields a valid (merely
// less-minimal) bundle, and reports the truncation.
func TestShrinkBudget(t *testing.T) {
	meta := artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 1, MaxSteps: 1 << 16}
	b := findFailure(t, meta, 2000)

	min, stats, err := minimize.Shrink(b, minimize.Options{Budget: 2})
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if !stats.BudgetExhausted {
		t.Fatalf("budget 2 not reported exhausted: %s", stats)
	}
	rep, err := artifact.Replay(min, artifact.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err == nil || rep.Err.Error() != min.Err {
		t.Fatalf("budget-truncated bundle does not reproduce: recorded %q, replayed %v", min.Err, rep.Err)
	}
}

// TestShrinkRejectsPassingBundle: a bundle whose run satisfies the
// property is not a counterexample and must be refused, not "shrunk".
func TestShrinkRejectsPassingBundle(t *testing.T) {
	meta := artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: unicons.MinQuantum}
	b, rep, err := artifact.Capture(meta, artifact.Sched{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("control run unexpectedly failed: %v", rep.Err)
	}
	if _, _, err := minimize.Shrink(b, minimize.Options{}); err == nil ||
		!strings.Contains(err.Error(), "does not fail") {
		t.Fatalf("passing bundle accepted for shrinking: %v", err)
	}
}
