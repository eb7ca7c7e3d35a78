package artifact_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sched"
)

var modelMeta = artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 2, MaxSteps: 1 << 16}

// TestModelBundleRoundTrip pins the version-2 serialization: a bundle
// carrying a scheduler-model spec saves, loads back byte-identically,
// and replays deterministically.
func TestModelBundleRoundTrip(t *testing.T) {
	spec, err := sched.ParseModelSpec("markov:stay=0.8,seed=21")
	if err != nil {
		t.Fatal(err)
	}
	b, rep, err := artifact.Capture(modelMeta, artifact.Sched{Model: spec})
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != artifact.Version {
		t.Fatalf("captured bundle version %d, want %d", b.Version, artifact.Version)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := artifact.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(b)
	bb, _ := json.Marshal(got)
	if string(a) != string(bb) {
		t.Errorf("round trip changed the bundle\n saved:  %s\n loaded: %s", a, bb)
	}
	rep2, err := artifact.Replay(got, artifact.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if errText(rep.Err) != errText(rep2.Err) || rep.Steps != rep2.Steps {
		t.Errorf("replay diverged: (%q, %d) vs (%q, %d)", errText(rep.Err), rep.Steps, errText(rep2.Err), rep2.Steps)
	}
}

// TestModelSeedOverride pins that Sched.Seed overrides the model
// spec's own seed: (spec seed s, override 0) equals (spec seed 0,
// override s) and differs from other seeds.
func TestModelSeedOverride(t *testing.T) {
	run := func(specSeed, override int64) *artifact.Report {
		spec := &sched.ModelSpec{Name: "uniform", Seed: specSeed}
		b := &artifact.Bundle{Version: artifact.Version, Meta: modelMeta, Sched: artifact.Sched{Model: spec, Seed: override}}
		rep, err := artifact.Replay(b, artifact.ReplayOptions{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	direct := run(17, 0)
	overridden := run(3, 17)
	a, _ := json.Marshal(direct.Decisions)
	b, _ := json.Marshal(overridden.Decisions)
	if string(a) != string(b) {
		t.Errorf("seed override diverged from direct seed: %s vs %s", a, b)
	}
	other := run(18, 0)
	c, _ := json.Marshal(other.Decisions)
	if string(a) == string(c) {
		t.Errorf("seeds 17 and 18 produced identical decision traces")
	}
}

// TestModelLegacyEquivalence pins the one mapping from a bundle's
// schedule onto a scheduler-model spec (Bundle.Spec) over every stored
// form: each replays to the decisions, fired crashes, steps and error
// text recorded before Replay was routed through sched.NewFromSpec;
// script forms still report their fan-outs without recording; and each
// normalizes to a script bundle that replays identically. A legacy
// random-mode bundle and a model-mode bundle naming the random model
// (same seeds, same crash knobs) replay and normalize byte-identically.
func TestModelLegacyEquivalence(t *testing.T) {
	crashMeta := modelMeta
	crashMeta.Crashes = []sched.CrashPoint{{Proc: 1, Step: 6}}
	crashKnobs := func(s artifact.Sched) artifact.Sched {
		s.CrashSeed, s.MaxCrashes, s.CrashProb = 9, 1, 0.05
		return s
	}
	type outcome struct {
		Dec     []int
		Fired   []sched.CrashPoint
		Steps   int64
		Err     string
		Fanouts int
	}
	legacyRandomCrash := outcome{[]int{0, 0, 1, 0, 1, 0, 0, 1, 0}, []sched.CrashPoint{{Proc: 1, Step: 0}}, 16, "agreement violated: [1 0 1]", 0}
	cases := []struct {
		name   string
		meta   artifact.Meta
		sched  artifact.Sched
		script bool
		want   outcome
	}{
		{"script", modelMeta, artifact.Sched{Decisions: []int{1, 0, 2, 1, 1}}, true,
			outcome{[]int{1, 0, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, nil, 24, "", 14}},
		{"script+planned crashes", crashMeta, artifact.Sched{Decisions: []int{1, 0, 2, 1, 1}}, true,
			outcome{[]int{1, 0, 2, 1, 1, 0, 0, 0, 0, 0, 0}, []sched.CrashPoint{{Proc: 1, Step: 6}}, 20, "agreement violated: [2 0 2]", 11}},
		{"random", modelMeta, artifact.Sched{Random: true, Seed: 5}, false,
			outcome{[]int{0, 1, 1, 1, 0, 1, 1, 0, 1, 0, 0}, nil, 24, "", 0}},
		{"random+crash knobs", modelMeta, crashKnobs(artifact.Sched{Random: true, Seed: 5}), false, legacyRandomCrash},
		{"model", modelMeta, artifact.Sched{Model: &sched.ModelSpec{Name: "uniform", Seed: 5}}, false,
			outcome{[]int{0, 0, 2, 1, 0, 1, 0, 2, 0, 0, 1, 0, 1, 0}, nil, 24, "", 0}},
		{"model+seed override+crash knobs", modelMeta, crashKnobs(artifact.Sched{Model: &sched.ModelSpec{Name: "markov", Seed: 3}, Seed: 5}), false,
			outcome{[]int{1, 1, 1, 0, 1, 0, 0, 1, 1}, []sched.CrashPoint{{Proc: 1, Step: 0}}, 16, "agreement violated: [3 0 3]", 0}},
		{"model random+crash knobs", modelMeta, crashKnobs(artifact.Sched{Model: &sched.ModelSpec{Name: "random"}, Seed: 5}), false, legacyRandomCrash},
	}
	replay := func(t *testing.T, b *artifact.Bundle) string {
		t.Helper()
		rec, err := artifact.Replay(b, artifact.ReplayOptions{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := artifact.Replay(b, artifact.ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := json.Marshal(outcome{rec.Decisions, rec.Fired, rec.Steps, errText(rec.Err), len(plain.Fanouts)})
		return string(out)
	}
	normalized := map[string]string{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := &artifact.Bundle{Version: artifact.Version, Meta: tc.meta, Sched: tc.sched}
			if _, ok := b.Script(); ok != tc.script {
				t.Errorf("Script() = %v, want %v (spec %s)", ok, tc.script, b.Spec())
			}
			want, _ := json.Marshal(tc.want)
			if got := replay(t, b); got != string(want) {
				t.Fatalf("replay\n got: %s\nwant: %s", got, want)
			}

			nb, err := artifact.Normalize(b)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := nb.Script(); !ok {
				t.Fatalf("normalized bundle is not a script: %s", nb.Spec())
			}
			// A script chooser sees every decision point.
			tc.want.Fanouts = len(tc.want.Dec)
			want, _ = json.Marshal(tc.want)
			if got := replay(t, nb); got != string(want) {
				t.Fatalf("normalized replay\n got: %s\nwant: %s", got, want)
			}
			n, _ := json.Marshal(nb)
			normalized[tc.name] = string(n)
		})
	}
	if a, b := normalized["random+crash knobs"], normalized["model random+crash knobs"]; a != b {
		t.Errorf("normalized bundles differ\n legacy: %s\n model:  %s", a, b)
	}
}

// TestModelLoadRejects pins the load-time rejection surface for model
// bundles: unknown models and malformed specs fail Load, and
// version-1 bundles still load.
func TestModelLoadRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := artifact.Load(write("v1.json",
		`{"version":1,"meta":{"workload":"unicons","n":2,"quantum":2},"sched":{"random":true,"seed":3}}`)); err != nil {
		t.Errorf("version-1 bundle rejected: %v", err)
	}
	if _, err := artifact.Load(write("badmodel.json",
		`{"version":2,"meta":{"workload":"unicons","n":2,"quantum":2},"sched":{"model":{"name":"nosuch"}}}`)); err == nil || !strings.Contains(err.Error(), "unknown scheduler model") {
		t.Errorf("unknown model accepted: %v", err)
	}
	if _, err := artifact.Load(write("badparam.json",
		`{"version":2,"meta":{"workload":"unicons","n":2,"quantum":2},"sched":{"model":{"name":"markov","params":{"warp":1}}}}`)); err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Errorf("unknown model parameter accepted: %v", err)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
