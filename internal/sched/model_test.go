package sched_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sched"
	"repro/internal/sim"
)

// modelMatrix pins, for every registered scheduler model, a ModelSpec
// and the hand-wired chooser construction it migrated from. The
// cross-check below runs both over pinned workloads and demands
// byte-identical decision traces, fired crashes, fingerprints, and
// verdicts — the behavior-preservation proof for the registry
// refactor. Adding a model without a row here fails
// TestEveryModelCovered.
var modelMatrix = []struct {
	name string // registered model the row covers
	spec string // ParseModelSpec input (compact or JSON form)
	wire func() sim.Chooser
}{
	{"random", "random:seed=7", func() sim.Chooser { return sched.NewRandom(7) }},
	{"uniform", "uniform:seed=7", func() sim.Chooser { return sched.NewUniform(7) }},
	{"markov", "markov:pribias=2,stay=0.6,seed=3", func() sim.Chooser { return sched.NewMarkov(3, 0.6, 2) }},
	{"noisy", "noisy:eps=0.2,seed=5", func() sim.Chooser { return sched.NewNoisy(5, 0.2) }},
	{"rtc", "rtc", func() sim.Chooser { return &sched.RunToCompletion{} }},
	{"rotate", "rotate", func() sim.Chooser { return sched.NewRotate() }},
	{"stagger", "stagger:period=2,phase=1", func() sim.Chooser { return sched.NewStagger(2, 1) }},
	{"script", `{"name":"script","decisions":[1,0,1,1,0,2,1,0]}`,
		func() sim.Chooser { return &sched.Script{Decisions: []int{1, 0, 1, 1, 0, 2, 1, 0}} }},
	{"budgeted", `{"name":"budgeted","params":{"budget":2},"decisions":[3,1,9,0]}`,
		func() sim.Chooser {
			return &sched.BudgetedSwitch{SwitchAt: map[int64]int{3: 1, 9: 0}, Budget: 2}
		}},
	{"reduced", `{"name":"reduced","decisions":[1,0,1]}`,
		func() sim.Chooser { return &sched.Reduced{Prefix: []int{1, 0, 1}, SleepSets: true, Budget: 1 << 30} }},
	{"crash", `{"name":"crash","plan":[{"Proc":1,"Step":5}],"inner":{"name":"random","seed":7}}`,
		func() sim.Chooser { return sched.NewCrash(sched.NewRandom(7), sched.CrashPoint{Proc: 1, Step: 5}) }},
	{"randomcrash", `{"name":"randomcrash","seed":11,"params":{"max":1,"prob":0.05},"inner":{"name":"random","seed":7}}`,
		func() sim.Chooser { return sched.NewRandomCrash(sched.NewRandom(7), 11, 1, 0.05) }},
	{"watchdog", `{"name":"watchdog","params":{"checkevery":16},"inner":{"name":"random","seed":7}}`,
		func() sim.Chooser { return &sched.Watchdog{Inner: sched.NewRandom(7), CheckEvery: 16} }},
	{"record", `{"name":"record","inner":{"name":"random","seed":7}}`,
		func() sim.Chooser { return sched.NewRecord(sched.NewRandom(7)) }},
}

// modelWorkloads are the pinned workloads every matrix row runs under:
// a quantum-scheduled consensus workload and the lockcounter negative
// control (which starves under hostile schedules, exercising long
// runs, preemption patterns, and — with the crash wrappers — fault
// delivery).
var modelWorkloads = []artifact.Meta{
	{Workload: "unicons", N: 3, V: 1, Quantum: 2, MaxSteps: 1 << 16},
	{Workload: "lockcounter", N: 2, V: 2, Quantum: 2, MaxSteps: 2000},
}

// trace is the byte-comparable outcome of one recorded run.
type trace struct {
	Taken       []int
	Fanouts     []int
	Fired       []sched.CrashPoint
	Fingerprint uint64
	Err         string
}

// runRecorded runs meta under a Record-wrapped chooser and returns the
// full observable outcome.
func runRecorded(t *testing.T, meta artifact.Meta, ch sim.Chooser) trace {
	t.Helper()
	rec := sched.NewRecord(ch)
	sys, finish, err := artifact.Build(meta, rec, nil)
	if err != nil {
		t.Fatalf("Build(%s): %v", meta.Workload, err)
	}
	runErr := finish(sys.Run())
	tr := trace{
		Taken:       append([]int(nil), rec.Taken...),
		Fanouts:     append([]int(nil), rec.Fanouts...),
		Fired:       append([]sched.CrashPoint(nil), rec.Fired...),
		Fingerprint: sys.Fingerprint(),
	}
	if runErr != nil {
		tr.Err = runErr.Error()
	}
	return tr
}

// TestModelCrossCheck is the behavior-preservation pin: for every
// registered model, the registry-built chooser and the pre-refactor
// hand-wired chooser produce byte-identical traces over the pinned
// workloads.
func TestModelCrossCheck(t *testing.T) {
	for _, row := range modelMatrix {
		t.Run(row.name, func(t *testing.T) {
			spec, err := sched.ParseModelSpec(row.spec)
			if err != nil {
				t.Fatalf("ParseModelSpec(%q): %v", row.spec, err)
			}
			if spec.Name != row.name {
				t.Fatalf("spec %q parsed to model %q, row says %q", row.spec, spec.Name, row.name)
			}
			for _, meta := range modelWorkloads {
				built, err := sched.NewFromSpec(spec)
				if err != nil {
					t.Fatalf("NewFromSpec(%s): %v", spec, err)
				}
				got := runRecorded(t, meta, built)
				want := runRecorded(t, meta, row.wire())
				gotJSON, _ := json.Marshal(got)
				wantJSON, _ := json.Marshal(want)
				if string(gotJSON) != string(wantJSON) {
					t.Errorf("%s under %s: registry and hand-wired traces differ\n registry: %s\n wired:    %s",
						row.name, meta.Workload, gotJSON, wantJSON)
				}
			}
		})
	}
}

// TestEveryModelCovered fails when a registered model has no matrix
// row, so the cross-check can't silently rot as models are added.
func TestEveryModelCovered(t *testing.T) {
	covered := map[string]bool{}
	for _, row := range modelMatrix {
		covered[row.name] = true
	}
	for _, name := range sched.Models() {
		if !covered[name] {
			t.Errorf("registered model %q has no modelMatrix cross-check row", name)
		}
	}
}

// TestSpecStringRoundTrip pins that String() output re-parses to a
// spec that builds the identical chooser (same trace), for both the
// compact and JSON forms.
func TestSpecStringRoundTrip(t *testing.T) {
	for _, row := range modelMatrix {
		spec, err := sched.ParseModelSpec(row.spec)
		if err != nil {
			t.Fatalf("ParseModelSpec(%q): %v", row.spec, err)
		}
		s := spec.String()
		back, err := sched.ParseModelSpec(s)
		if err != nil {
			t.Fatalf("%s: String() %q does not re-parse: %v", row.name, s, err)
		}
		a, _ := json.Marshal(spec)
		b, _ := json.Marshal(back)
		if string(a) != string(b) {
			t.Errorf("%s: round trip changed the spec\n before: %s\n after:  %s", row.name, a, b)
		}
	}
}

// TestReseedEquivalence pins the Reseedable contract for the
// stochastic models: Reseed(s) on a used chooser equals a fresh build
// with seed s.
func TestReseedEquivalence(t *testing.T) {
	meta := modelWorkloads[0]
	for _, name := range []string{"random", "uniform", "markov", "noisy"} {
		spec, err := sched.ParseModelSpec(name + ":seed=99")
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sched.NewFromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		want := runRecorded(t, meta, fresh)

		dirty, err := sched.NewFromSpec(&sched.ModelSpec{Name: name, Seed: 12345})
		if err != nil {
			t.Fatal(err)
		}
		runRecorded(t, meta, dirty) // burn state
		rs, ok := dirty.(sched.Reseedable)
		if !ok {
			t.Fatalf("%s chooser does not implement Reseedable", name)
		}
		rs.Reseed(99)
		got := runRecorded(t, meta, dirty)
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if string(a) != string(b) {
			t.Errorf("%s: Reseed(99) differs from fresh seed 99\n reseed: %s\n fresh:  %s", name, a, b)
		}
	}
}

// TestRecordedTraceReplays pins script-mode normalization for the
// stochastic family: a recorded stochastic run replayed through the
// script model (with fired crashes replayed through the crash wrapper)
// reproduces the identical fingerprint and verdict.
func TestRecordedTraceReplays(t *testing.T) {
	for _, name := range []string{"uniform", "markov", "noisy"} {
		for _, meta := range modelWorkloads {
			spec := &sched.ModelSpec{Name: name, Seed: 42}
			ch, err := sched.NewFromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			orig := runRecorded(t, meta, ch)

			replay := &sched.ModelSpec{Name: "script", Decisions: orig.Taken}
			rch, err := sched.NewFromSpec(replay)
			if err != nil {
				t.Fatal(err)
			}
			got := runRecorded(t, meta, rch)
			if got.Fingerprint != orig.Fingerprint || got.Err != orig.Err {
				t.Errorf("%s under %s: script replay diverged: fp %#x/%#x err %q/%q",
					name, meta.Workload, got.Fingerprint, orig.Fingerprint, got.Err, orig.Err)
			}
		}
	}
}

// TestWithRunSeed pins the per-run seed derivation: deterministic,
// distinct across runs, derived independently per wrapper depth, and
// leaving the input spec untouched.
func TestWithRunSeed(t *testing.T) {
	spec, err := sched.ParseModelSpec(`{"name":"randomcrash","seed":3,"params":{"max":1},"inner":{"name":"markov","seed":9}}`)
	if err != nil {
		t.Fatal(err)
	}
	r1 := spec.WithRunSeed(0)
	r1b := spec.WithRunSeed(0)
	r2 := spec.WithRunSeed(1)
	if a, b := fmt.Sprint(r1), fmt.Sprint(r1b); a != b {
		t.Errorf("WithRunSeed not deterministic: %s vs %s", a, b)
	}
	if r1.Seed == r2.Seed || r1.Inner.Seed == r2.Inner.Seed {
		t.Errorf("WithRunSeed(0) and (1) share seeds: %+v vs %+v", r1, r2)
	}
	if r1.Seed == r1.Inner.Seed {
		t.Errorf("wrapper and inner derived the same seed %d", r1.Seed)
	}
	if spec.Seed != 3 || spec.Inner.Seed != 9 {
		t.Errorf("WithRunSeed mutated the input spec: %+v", spec)
	}
}

// TestSpecValidation pins the registry's rejection surface.
func TestSpecValidation(t *testing.T) {
	bad := []string{
		"",                    // empty
		"nosuchmodel",         // unknown name
		"markov:warp=2",       // unknown parameter
		"markov:stay",         // malformed key=value
		"markov:stay=fast",    // non-numeric value
		`{"name":"watchdog"}`, // wrapper without inner
		`{"name":"rtc","inner":{"name":"rotate"}}`, // inner on a non-wrapper
		`{"name":"budgeted","decisions":[1,2,3]}`,  // odd switch-word length (caught at build)
		// The cmd/hybridsim -sched inputs.
		"bogus",
		"random:seed=x",
		"stagger:period=x",
		"stagger:period=8,phase=y",
	}
	for _, s := range bad {
		spec, err := sched.ParseModelSpec(s)
		if err == nil {
			if _, err = sched.NewFromSpec(spec); err == nil {
				t.Errorf("ParseModelSpec+NewFromSpec(%q) accepted invalid spec", s)
			}
		}
	}
	good := []string{
		"uniform", "markov:stay=0.9", "noisy:eps=0.05,seed=12",
		// The cmd/hybridsim -sched inputs.
		"script", "rtc", "rotate", "random", "random:seed=42",
		"stagger", "stagger:period=8", "stagger:period=8,phase=2",
	}
	for _, s := range good {
		spec, err := sched.ParseModelSpec(s)
		if err == nil {
			_, err = sched.NewFromSpec(spec)
		}
		if err != nil {
			t.Errorf("ParseModelSpec+NewFromSpec(%q): %v", s, err)
		}
	}
}
