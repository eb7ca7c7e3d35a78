package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sched"
	"repro/internal/sim"
)

func shortConfig(t *testing.T, w *workload) *config {
	return &config{seed: 1, workers: w.workers(2), tmp: t.TempDir(), short: true}
}

// exactFigures are the per-layer figures that count simulated work and
// must therefore repeat exactly.
var exactFigures = []string{"sim.stmts", "sched.picks", "check.schedules", "minimize.candidates",
	"minimize.decisions_from", "minimize.decisions_to", "check.fingerprint_pruned_runs", "check.starvation_gap"}

// TestExactCountsRepeat pins the benchmark's exact counts: runs and every
// gated figure (schedule counts, shrink candidates, measured
// percentiles) are identical across two untraced passes and a traced
// one, and the traced figures repeat across two traced passes. Tracing
// must not change any simulated statistic.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := shortConfig(t, w)
			a, _ := onePass(w, cfg, nil)
			b, _ := onePass(w, cfg, nil)
			c, _ := onePass(w, cfg, newTracer())
			d, _ := onePass(w, cfg, newTracer())
			for i, p := range []*passResult{a, b, c, d} {
				if len(p.failed) > 0 {
					t.Fatalf("pass %d failed: %v", i, p.failed)
				}
				if p.runs != a.runs || !reflect.DeepEqual(p.exact, a.exact) {
					t.Errorf("pass %d: runs %d exact %v; pass 0: runs %d exact %v", i, p.runs, p.exact, a.runs, a.exact)
				}
			}
			if len(a.exact) == 0 {
				t.Fatal("no exact figures recorded")
			}
			for _, k := range exactFigures {
				if c.figs[k] != d.figs[k] {
					t.Errorf("%s: traced passes read %v and %v", k, c.figs[k], d.figs[k])
				}
			}
		})
	}
}

// TestFarmLayersRepeat pins the farm's directly traced simulation work.
// Soak statements are left out: soakmix replays are not yet
// deterministic (artifact.replay_divergences counts them).
func TestFarmLayersRepeat(t *testing.T) {
	cfg := shortConfig(t, farmMix)
	var figs [2]map[string]float64
	var soak [2]float64
	for i := range figs {
		tr := newTracer()
		p := newPass()
		figs[i] = map[string]float64{}
		farmLayers(cfg, tr, figs[i], p)
		if len(p.failed) > 0 {
			t.Fatalf("run %d failed: %v", i, p.failed)
		}
		soak[i] = tr.get("soak_stmts")
		if tr.get("crashes") == 0 {
			t.Fatal("no crash fired through the traced chooser")
		}
	}
	for _, k := range []string{"check.schedules", "check.useful_frac"} {
		if figs[0][k] != figs[1][k] || figs[0][k] == 0 {
			t.Errorf("%s: %v then %v", k, figs[0][k], figs[1][k])
		}
	}
	if a, b := figs[0]["sim.stmts"]-soak[0], figs[1]["sim.stmts"]-soak[1]; a != b || a == 0 {
		t.Errorf("non-soak statements: %v then %v", a, b)
	}
}

// TestTimedChooserForwardsCrasher runs crash-injected systems with and
// without the tracing wrapper: statements and crashes must match, and
// crashes must actually fire.
func TestTimedChooserForwardsCrasher(t *testing.T) {
	meta := artifact.Meta{Workload: "unicons", N: 3, V: 1, Quantum: 2}
	crashes := 0
	for seed := int64(1); seed <= 50; seed++ {
		run := func(wrap bool) (int64, int) {
			var ch sim.Chooser = sched.NewRandomCrash(sched.NewRandom(seed), seed, 2, 0.2)
			if wrap {
				tc := &timedChooser{acc: &runAcc{}}
				tc.set(ch)
				ch = tc
			}
			sys, _, err := artifact.Build(meta, ch, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			sys.Run()
			return sys.Steps(), sys.CrashedCount()
		}
		s0, c0 := run(false)
		s1, c1 := run(true)
		if s0 != s1 || c0 != c1 {
			t.Fatalf("seed %d: unwrapped %d statements/%d crashes, wrapped %d/%d", seed, s0, c0, s1, c1)
		}
		crashes += c0
	}
	if crashes == 0 {
		t.Fatal("no crash fired in 50 seeds")
	}
	tc := &timedChooser{acc: &runAcc{}}
	tc.set(sched.NewRandom(1))
	if tc.CrashesArmed() {
		t.Error("a wrapper around a plain chooser reports crashes armed")
	}
}

// TestDefinitionMatches checks BENCHMARK.json against the program: the
// same workloads, and every metric each mode prints, with its unit.
func TestDefinitionMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var def struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	if len(def.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, program prints %d", len(def.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if def.PerLayer[i].Name != m.name || def.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %v, program prints %s in %s", i, def.PerLayer[i], m.name, m.unit)
		}
	}
	units := map[string]string{}
	for _, m := range def.EndToEnd {
		units[m.Name] = m.Unit
	}
	if len(units) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, program prints %d", len(units), len(endToEnd))
	}
	cfg := shortConfig(t, explorePlain)
	res, _ := runPlain(explorePlain, cfg, 0.001)
	if !res.Correct || len(res.Metrics) != len(units) {
		t.Fatalf("untraced result %+v", res)
	}
	for name, m := range res.Metrics {
		if units[name] != m.Unit || m.Value == 0 {
			t.Errorf("%s = %v %s; BENCHMARK.json unit %q", name, m.Value, m.Unit, units[name])
		}
	}
}
