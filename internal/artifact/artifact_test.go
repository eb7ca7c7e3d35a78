package artifact_test

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/qlocal"
	"repro/internal/sched"
	"repro/internal/unicons"
)

// findRandomFailure sweeps seeded-random schedules until one violates
// the workload's property and returns the captured bundle.
func findRandomFailure(t *testing.T, meta artifact.Meta, s artifact.Sched, maxSeed int64) *artifact.Bundle {
	t.Helper()
	for seed := int64(1); seed <= maxSeed; seed++ {
		s := s
		s.Random = true
		s.Seed = seed
		if s.MaxCrashes > 0 {
			s.CrashSeed = seed * 7
		}
		b, rep, err := artifact.Capture(meta, s)
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

// roundTrip is the bundle stability property: Save → Load → Replay must
// reproduce the identical verifier error and the identical event trace.
func roundTrip(t *testing.T, b *artifact.Bundle) {
	t.Helper()
	if b.Err == "" {
		t.Fatal("bundle records no violation; nothing to round-trip")
	}
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := b.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	lb, err := artifact.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rep, err := artifact.Replay(lb, artifact.ReplayOptions{Trace: true})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.Err == nil {
		t.Fatalf("replayed run passed; bundle recorded %q", b.Err)
	}
	if rep.Err.Error() != b.Err {
		t.Fatalf("replayed error diverged:\n  recorded: %s\n  replayed: %s", b.Err, rep.Err)
	}
	if rep.Trace != b.Trace {
		t.Fatalf("replayed trace diverged from recorded trace:\nrecorded:\n%s\nreplayed:\n%s", b.Trace, rep.Trace)
	}
}

// normalize converts b to script mode and asserts the canonical form
// still fails identically.
func normalize(t *testing.T, b *artifact.Bundle) *artifact.Bundle {
	t.Helper()
	nb, err := artifact.Normalize(b)
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if nb.Sched.Random {
		t.Fatal("normalized bundle still in random mode")
	}
	if nb.Err != b.Err {
		t.Fatalf("normalization changed the outcome: %q -> %q", b.Err, nb.Err)
	}
	return nb
}

// TestRoundTripUnicons: an agreement violation below Theorem 1's Q ≥ 8
// premise survives Save/Load/Replay in both random and script mode.
func TestRoundTripUnicons(t *testing.T) {
	meta := artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 1, MaxSteps: 1 << 16}
	b := findRandomFailure(t, meta, artifact.Sched{}, 2000)
	if !strings.Contains(b.Err, "agreement violated") && !strings.Contains(b.Err, "decided ⊥") {
		t.Fatalf("unexpected violation kind: %s", b.Err)
	}
	roundTrip(t, b)
	roundTrip(t, normalize(t, b))
}

// TestRoundTripHybridCAS: a multiple-winner C&S violation below the
// object's quantum bound survives the round trip.
func TestRoundTripHybridCAS(t *testing.T) {
	meta := artifact.Meta{Workload: "hybridcas", N: 3, V: 1, Quantum: 1, MaxSteps: 1 << 16}
	b := findRandomFailure(t, meta, artifact.Sched{}, 2000)
	if !strings.Contains(b.Err, "winners") {
		t.Fatalf("unexpected violation kind: %s", b.Err)
	}
	roundTrip(t, b)
	roundTrip(t, normalize(t, b))
}

// TestRoundTripUniversalCrash: a planned crash-stop fault that lands
// after an increment linearizes but before its invocation completes
// yields the lost-accounting counterexample; the crash plan is part of
// the bundle and the violation survives the round trip.
func TestRoundTripUniversalCrash(t *testing.T) {
	base := artifact.Meta{Workload: "universal", N: 2, V: 1, Quantum: unicons.MinQuantum, MaxSteps: 1 << 16}
	for proc := 0; proc < 2; proc++ {
		for step := int64(1); step <= 300; step++ {
			meta := base
			meta.Crashes = []sched.CrashPoint{{Proc: proc, Step: step}}
			b, rep, err := artifact.Capture(meta, artifact.Sched{})
			if err != nil {
				t.Fatalf("Capture: %v", err)
			}
			if rep.Failed() && strings.Contains(b.Err, "counter reads") {
				t.Logf("crash of proc %d at step %d: %s", proc, step, b.Err)
				roundTrip(t, b)
				return
			}
		}
	}
	t.Fatal("no crash point turned the universal counter inconsistent; the lost-accounting window vanished")
}

// TestRoundTripLockCounter: the blocking negative control's wait-freedom
// violation (priority inversion) survives the round trip after
// normalization to script mode.
func TestRoundTripLockCounter(t *testing.T) {
	meta := artifact.Meta{Workload: "lockcounter", N: 2, V: 2, Quantum: 4,
		MaxSteps: 2000, WaitFreeBound: 50}
	b := findRandomFailure(t, meta, artifact.Sched{}, 200)
	if !strings.Contains(b.Err, "wait-freedom violated") {
		t.Fatalf("unexpected violation kind: %s", b.Err)
	}
	nb := normalize(t, b)
	roundTrip(t, nb)
}

// TestRoundTripSoakMixCrash: a crash-injected randomized soak workload
// (the cmd/soak configuration) normalizes to script mode — seeded
// random schedule and probabilistic crashes become an explicit decision
// vector and crash plan — and replays identically.
func TestRoundTripSoakMixCrash(t *testing.T) {
	for idx := int64(0); idx < 40; idx++ {
		meta, s := artifact.SoakMeta(11, 13, idx, 2)
		b, rep, err := artifact.Capture(meta, s)
		if err != nil {
			t.Fatalf("Capture(idx=%d): %v", idx, err)
		}
		_ = rep
		nb, err := artifact.Normalize(b)
		if err != nil {
			t.Fatalf("Normalize(idx=%d): %v", idx, err)
		}
		if nb.Err != b.Err {
			t.Fatalf("idx=%d: normalization changed outcome %q -> %q", idx, b.Err, nb.Err)
		}
	}
}

// TestSoakMixReplayStable: the reclaiming C&S inside soakmix must
// replay identically. Its reclamation pass once read the per-process
// Active registers in map order, so one crash-injected bundle could
// interleave those reads differently from one replay to the next and
// end with a different statement count. The pinned soak runs are ones
// where that happened; every replay of each must now agree on
// statements, crashes and verdict.
func TestSoakMixReplayStable(t *testing.T) {
	runs := []struct{ seed, idx int64 }{
		{20, 208}, {75, 186}, {81, 9}, {118, 87}, {124, 25}, {142, 131}, {191, 230},
	}
	const replays = 40
	for _, r := range runs {
		meta, s := artifact.SoakMeta(r.seed, r.seed^0x5eed, r.idx, 2)
		b := &artifact.Bundle{Version: artifact.Version, Meta: meta, Sched: s}
		var first *artifact.Report
		for i := 0; i < replays; i++ {
			rep, err := artifact.Replay(b, artifact.ReplayOptions{})
			if err != nil {
				t.Fatalf("soak run %v: %v", r, err)
			}
			if first == nil {
				if rep.Crashed == 0 {
					t.Fatalf("soak run %v injected no crash", r)
				}
				first = rep
				continue
			}
			if rep.Steps != first.Steps || rep.Crashed != first.Crashed || verdictLine(rep.Err) != verdictLine(first.Err) {
				t.Fatalf("soak run %v, replay %d: %d steps, %d crashed, verdict %q; first replay: %d steps, %d crashed, verdict %q",
					r, i, rep.Steps, rep.Crashed, verdictLine(rep.Err), first.Steps, first.Crashed, verdictLine(first.Err))
			}
		}
	}
}

// verdictLine is the first line of a replay verdict; a panic verdict
// goes on with a stack trace whose addresses differ between replays.
func verdictLine(err error) string {
	if err == nil {
		return ""
	}
	line, _, _ := strings.Cut(err.Error(), "\n")
	return line
}

// TestReplayReleasesSystem: a replay must close the system it built.
// Parked process coroutines are goroutines, so an unclosed system stays
// reachable for the life of the process, and a shrink or a soak that
// replays thousands of bundles would pile them up.
func TestReplayReleasesSystem(t *testing.T) {
	b := &artifact.Bundle{Version: artifact.Version,
		Meta:  artifact.Meta{Workload: "hybridcas", N: 3, V: 2, Quantum: unicons.MinQuantum},
		Sched: artifact.Sched{Random: true, Seed: 1}}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := artifact.Replay(b, artifact.ReplayOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("20 replays left %d goroutines behind", after-before)
	}
}

// TestReplayDeterminism: every registered workload must be a
// deterministic function of (meta, schedule) — two captures of the same
// bundle must agree byte-for-byte on error text and trace.
func TestReplayDeterminism(t *testing.T) {
	metas := []artifact.Meta{
		{Workload: "unicons", N: 4, V: 2, Quantum: unicons.MinQuantum},
		{Workload: "multicons", P: 2, M: 2, V: 2, K: 1, Quantum: 64, MaxSteps: 1 << 20},
		{Workload: "hybridcas", N: 3, V: 2, Quantum: unicons.MinQuantum},
		{Workload: "universal", N: 3, V: 2, Quantum: unicons.MinQuantum},
		{Workload: "lockcounter", N: 2, V: 2, Quantum: 4, MaxSteps: 2000, WaitFreeBound: 50},
		{Workload: "soakmix", N: 3, V: 2, Quantum: qlocal.RecommendedQuantum, WorkSeed: 42},
	}
	for _, meta := range metas {
		meta := meta
		t.Run(meta.Workload, func(t *testing.T) {
			s := artifact.Sched{Random: true, Seed: 5}
			a1, r1, err := artifact.Capture(meta, s)
			if err != nil {
				t.Fatal(err)
			}
			a2, r2, err := artifact.Capture(meta, s)
			if err != nil {
				t.Fatal(err)
			}
			if a1.Err != a2.Err {
				t.Fatalf("outcome nondeterministic: %q vs %q", a1.Err, a2.Err)
			}
			if a1.Trace != a2.Trace {
				t.Fatal("trace nondeterministic")
			}
			if r1.Steps != r2.Steps {
				t.Fatalf("step count nondeterministic: %d vs %d", r1.Steps, r2.Steps)
			}
		})
	}
}

// TestLoadRejects: future versions and nameless bundles are unusable.
func TestLoadRejects(t *testing.T) {
	dir := t.TempDir()

	future := &artifact.Bundle{Version: artifact.Version + 1, Meta: artifact.Meta{Workload: "unicons"}}
	p1 := filepath.Join(dir, "future.json")
	if err := future.Save(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.Load(p1); err == nil || !strings.Contains(err.Error(), "newer than supported") {
		t.Fatalf("future version accepted: %v", err)
	}

	nameless := &artifact.Bundle{Version: artifact.Version}
	p2 := filepath.Join(dir, "nameless.json")
	if err := nameless.Save(p2); err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.Load(p2); err == nil || !strings.Contains(err.Error(), "names no workload") {
		t.Fatalf("nameless bundle accepted: %v", err)
	}

	bogus := &artifact.Bundle{Version: artifact.Version, Meta: artifact.Meta{Workload: "nope"}}
	if _, err := artifact.Replay(bogus, artifact.ReplayOptions{}); err == nil ||
		!strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("unknown workload accepted: %v", err)
	}
}

// TestSaveDirNames: SaveDir derives a stable content-addressed name.
func TestSaveDirNames(t *testing.T) {
	b := &artifact.Bundle{Version: artifact.Version,
		Meta:  artifact.Meta{Workload: "unicons", N: 2, Quantum: 1},
		Sched: artifact.Sched{Decisions: []int{1, 0, 1}},
		Err:   "agreement violated: [1 2]"}
	dir := t.TempDir()
	p1, err := b.SaveDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.SaveDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("content-derived name unstable: %s vs %s", p1, p2)
	}
	if !strings.HasPrefix(filepath.Base(p1), "unicons-") {
		t.Fatalf("name %s does not lead with the workload", p1)
	}
	if _, err := artifact.Load(p1); err != nil {
		t.Fatalf("Load(SaveDir output): %v", err)
	}
}

// TestWorkloadRegistry: the registry is stable and sorted.
func TestWorkloadRegistry(t *testing.T) {
	want := []string{"hybridcas", "lockcounter", "multicons", "soakmix", "unicons", "universal"}
	got := artifact.Workloads()
	if len(got) != len(want) {
		t.Fatalf("Workloads() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Workloads() = %v, want %v", got, want)
		}
	}
}

// TestReplayStop: ReplayOptions.Stop is the per-replay watchdog — an
// expired deadline cuts the run off (Report.Stopped, RunErr =
// ErrPickAbort) instead of letting it run, and a never-firing Stop is
// transparent.
func TestReplayStop(t *testing.T) {
	meta := artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: unicons.MinQuantum, MaxSteps: 1 << 16}
	b, clean, err := artifact.Capture(meta, artifact.Sched{Random: true, Seed: 5})
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}

	rep, err := artifact.Replay(b, artifact.ReplayOptions{
		Stop:           func() bool { return true },
		StopCheckEvery: 1,
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rep.Stopped {
		t.Fatal("Report.Stopped not set under an always-firing Stop")
	}
	if rep.Steps >= clean.Steps {
		t.Fatalf("stopped replay ran %d steps, full run %d", rep.Steps, clean.Steps)
	}

	rep, err = artifact.Replay(b, artifact.ReplayOptions{
		Stop:           func() bool { return false },
		StopCheckEvery: 1,
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.Stopped {
		t.Fatal("Report.Stopped set though Stop never fired")
	}
	if rep.Steps != clean.Steps {
		t.Fatalf("inert Stop changed the run: %d vs %d steps", rep.Steps, clean.Steps)
	}
}
