package main

import (
	"fmt"
	"strings"
	"testing"
)

// testSpec is a one-workload BENCHMARK.json: two end-to-end metrics
// and two per-layer ones.
var testSpec = &spec{
	Command:    []string{"true"},
	RunSeconds: 1,
	Workloads: []struct {
		Name string `json:"name"`
	}{{Name: "w"}},
	EndToEnd: []metricSpec{
		{Name: "wall_s", Better: "lower", Bound: 0.25},
		{Name: "runs", Better: "lower", Bound: 0.01},
	},
	PerLayer: []metricSpec{
		{Name: "sim.stmts", Better: "lower"},
		{Name: "sim.ns_per_stmt", Better: "lower"},
	},
}

// perfbenchOutput renders what perfbench prints on stdout: build noise,
// the conditions line with the given detail figures, and the result
// line.
func perfbenchOutput(trace int, detail string) []byte {
	return []byte(fmt.Sprintf("\n"+
		`{"conditions":{"workload":"w","why":"test","seed":1,"trace":%d,"nproc":2,"gomaxprocs":2,"workers":1,"go":"go1.24.0","seconds":1,`+
		`"ops":{"value":4,"unit":"count"},"failed_ops":{"value":0,"unit":"count"}},"detail":{%s}}`+"\n"+
		`{"correct":true,"attempted":4,"failed":0,"metrics":{}}`+"\n", trace, detail))
}

// testLedger parses an untraced and a traced perfbench output into a
// one-workload ledger.
func testLedger(t *testing.T, wall, runs, stmts, nsPerStmt string) *ledger {
	t.Helper()
	untraced, err := parseRun(perfbenchOutput(0, wall+","+runs), testSpec.EndToEnd)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := parseRun(perfbenchOutput(1, stmts+","+nsPerStmt), testSpec.PerLayer)
	if err != nil {
		t.Fatal(err)
	}
	return &ledger{Version: 5, Workloads: []workload{{Name: "w", Untraced: untraced, Traced: traced}}}
}

const (
	baseWall  = `"wall_s":{"median":10,"q1":9.5,"q3":10.5,"n":5,"unit":"s","timing":true}`
	baseRuns  = `"runs":{"median":1000,"q1":1000,"q3":1000,"n":1,"unit":"count"}`
	baseStmts = `"sim.stmts":{"median":5000,"q1":5000,"q3":5000,"n":3,"unit":"count"}`
	baseNs    = `"sim.ns_per_stmt":{"median":40,"q1":39,"q3":41,"n":3,"unit":"ns","timing":true}`
)

// TestGateCompare pins the gate's two rules on synthetic conditions
// lines: exact figures must equal the baseline, and an end-to-end
// timing median may be worse only by its bound (25% of 10 s) plus the
// baseline's interquartile spread (1 s), so 13.5 s passes and 13.6 s
// fails. Per-layer timing figures are never gated.
func TestGateCompare(t *testing.T) {
	base := testLedger(t, baseWall, baseRuns, baseStmts, baseNs)
	for _, tc := range []struct {
		name                  string
		wall, runs, stmts, ns string
		wantFail              string // substring of the one failure; "" = pass
	}{
		{"identical", baseWall, baseRuns, baseStmts, baseNs, ""},
		{"exact runs mismatch", baseWall, strings.Replace(baseRuns, `"median":1000`, `"median":1001`, 1), baseStmts, baseNs, "w runs: exact 1001"},
		{"exact per-layer mismatch", baseWall, baseRuns, strings.Replace(baseStmts, `"median":5000`, `"median":4999`, 1), baseNs, "w sim.stmts: exact 4999"},
		{"timing inside bound plus spread", strings.Replace(baseWall, `"median":10`, `"median":13.5`, 1), baseRuns, baseStmts, baseNs, ""},
		{"timing better", strings.Replace(baseWall, `"median":10`, `"median":2`, 1), baseRuns, baseStmts, baseNs, ""},
		{"timing beyond bound plus spread", strings.Replace(baseWall, `"median":10`, `"median":13.6`, 1), baseRuns, baseStmts, baseNs, "w wall_s: median 13.6"},
		{"per-layer timing not gated", baseWall, baseRuns, baseStmts, strings.Replace(baseNs, `"median":40`, `"median":400`, 1), ""},
		{"timing flag changed", baseWall, baseRuns, baseStmts, strings.Replace(baseNs, `,"timing":true`, ``, 1), "w sim.ns_per_stmt: kind changed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, failures := compare(testSpec, base, testLedger(t, tc.wall, tc.runs, tc.stmts, tc.ns))
			if tc.wantFail == "" {
				if len(failures) != 0 {
					t.Fatalf("failures %q, want none", failures)
				}
				return
			}
			if len(failures) != 1 || !strings.Contains(failures[0], tc.wantFail) {
				t.Fatalf("failures %q, want one containing %q", failures, tc.wantFail)
			}
		})
	}
}

// TestGateMissingFigures: a figure the capture has and the baseline
// lacks fails, and so does the reverse and a missing workload.
func TestGateMissingFigures(t *testing.T) {
	full := testLedger(t, baseWall, baseRuns, baseStmts, baseNs)
	short := testLedger(t, baseWall, baseRuns, baseStmts, baseNs)
	delete(short.Workloads[0].Traced.Figures, "sim.stmts")
	if _, f := compare(testSpec, short, full); len(f) != 1 || !strings.Contains(f[0], "w sim.stmts: not in the baseline") {
		t.Errorf("figure missing from the baseline: failures %q", f)
	}
	if _, f := compare(testSpec, full, short); len(f) != 1 || !strings.Contains(f[0], "w sim.stmts: missing from the capture") {
		t.Errorf("figure missing from the capture: failures %q", f)
	}
	if _, f := compare(testSpec, &ledger{Version: 5}, full); len(f) != 1 || !strings.Contains(f[0], "w: workload missing") {
		t.Errorf("workload missing from the baseline: failures %q", f)
	}
}

// TestParseRunErrors: output without a conditions line, or whose
// conditions line lacks a declared metric, is an error rather than a
// ledger with holes.
func TestParseRunErrors(t *testing.T) {
	if _, err := parseRun([]byte(`{"correct":true,"attempted":1,"failed":0,"metrics":{}}`), testSpec.EndToEnd); err == nil {
		t.Error("output without a conditions line accepted")
	}
	if _, err := parseRun(perfbenchOutput(0, baseWall), testSpec.EndToEnd); err == nil || !strings.Contains(err.Error(), "runs") {
		t.Errorf("conditions line without runs: err %v", err)
	}
	r, err := parseRun(perfbenchOutput(0, baseWall+","+baseRuns+`,"extra":{"median":1,"unit":"s"}`), testSpec.EndToEnd)
	if err != nil {
		t.Fatal(err)
	}
	want := conditions{Nproc: 2, GoMaxProcs: 2, Workers: 1, Go: "go1.24.0", Seed: 1, Seconds: 1, Trace: 0}
	if r.Conditions != want || len(r.Figures) != 2 || r.Figures["wall_s"].Q3 != 10.5 || !r.Figures["wall_s"].Timing {
		t.Errorf("parsed %+v", r)
	}
}
