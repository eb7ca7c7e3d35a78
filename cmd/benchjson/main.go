// Command benchjson records and gates the repository benchmark's
// figures in BENCH_explore.json. It runs the command BENCHMARK.json
// names (python3 perfbench/run.py) on every workload listed there, at
// BENCHMARK.json's run_seconds and seed 1: once with --trace 0 for the
// end-to-end metrics and once with --trace 1 for the per-layer
// metrics. From the conditions line perfbench prints before its result
// it copies the run's conditions and, for every metric, the median,
// quartiles, sample count, unit and timing flag. The format is
// documented in EXPERIMENTS.md ("Bench trajectory").
//
// Usage, from the repository root:
//
//	benchjson                 # capture and write BENCH_explore.json
//	benchjson -o out.json     # capture and write out.json
//	benchjson -gate           # capture and compare against BENCH_explore.json
//	benchjson -gate -o f.json # capture and compare against f.json
//
// The gate fails (exit 1) when an exact figure differs from the
// baseline, or an end-to-end timing metric's median is worse than the
// baseline's by more than its BENCHMARK.json bound plus the baseline's
// own interquartile spread. Per-layer timing figures are printed, not
// gated.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// specPath is the repository benchmark's definition.
const specPath = "BENCHMARK.json"

// seed is the one workload seed the ledger records; it drives only
// farm-mix's model and soak seeds.
const seed = 1

// spec is the part of BENCHMARK.json the ledger reads.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one metric BENCHMARK.json declares. Bound, on
// end-to-end metrics only, is the tolerated worsening as a fraction of
// the baseline median.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// ledger is the BENCH_explore.json schema, version 5: one entry per
// BENCHMARK.json workload, each holding its untraced and traced run.
type ledger struct {
	Version   int        `json:"version"`
	Workloads []workload `json:"workloads"`
}

type workload struct {
	Name string `json:"name"`
	// Untraced holds the end-to-end metrics (--trace 0), Traced the
	// per-layer metrics (--trace 1).
	Untraced run `json:"untraced"`
	Traced   run `json:"traced"`
}

// run is one perfbench invocation: the conditions it measured under
// and its figures, keyed by BENCHMARK.json metric name.
type run struct {
	Conditions conditions        `json:"conditions"`
	Figures    map[string]figure `json:"figures"`
}

// conditions are the fields of perfbench's conditions line that say
// where and how a run measured.
type conditions struct {
	Nproc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Go         string  `json:"go"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

// figure is one metric's summary over a run's samples, as perfbench
// prints it. Timing marks a figure that depends on host timing; the
// rest are exact simulated counts.
type figure struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	Timing bool    `json:"timing,omitempty"`
}

func main() {
	var (
		out  = flag.String("o", "BENCH_explore.json", "ledger path: written by a capture, read as the baseline by -gate")
		gate = flag.Bool("gate", false, "compare a fresh capture against the ledger at -o and exit 1 on a regression")
	)
	flag.Parse()
	sp, err := readSpec(specPath)
	if err != nil {
		fatal(err)
	}
	var base *ledger
	if *gate {
		// Read the baseline first: a missing or malformed one fails
		// before minutes of measuring.
		if base, err = readLedger(*out); err != nil {
			fatal(err)
		}
	}
	cur, err := capture(sp)
	if err != nil {
		fatal(err)
	}
	if !*gate {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchjson: wrote %s\n", *out)
		return
	}
	lines, failures := compare(sp, base, cur)
	for _, l := range lines {
		fmt.Println("benchjson: gate:", l)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson: gate: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchjson: gate: ok against %s\n", *out)
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp := &spec{}
	if err := json.Unmarshal(data, sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(sp.Command) == 0 || sp.RunSeconds <= 0 || len(sp.Workloads) == 0 {
		return nil, fmt.Errorf("%s names no command, run_seconds or workloads", path)
	}
	return sp, nil
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l := &ledger{}
	if err := json.Unmarshal(data, l); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if l.Version != 5 {
		return nil, fmt.Errorf("%s is ledger version %d, want 5", path, l.Version)
	}
	return l, nil
}

// capture runs every workload untraced and traced and collects the
// ledger.
func capture(sp *spec) (*ledger, error) {
	l := &ledger{Version: 5}
	for _, w := range sp.Workloads {
		e := workload{Name: w.Name}
		for trace, dst := range []*run{&e.Untraced, &e.Traced} {
			names := sp.EndToEnd
			if trace == 1 {
				names = sp.PerLayer
			}
			args := append(slices.Clone(sp.Command[1:]),
				"--workload", w.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(sp.RunSeconds, 'f', -1, 64),
				"--trace", strconv.Itoa(trace))
			fmt.Fprintf(os.Stderr, "benchjson: %s --trace %d\n", w.Name, trace)
			cmd := exec.Command(sp.Command[0], args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s --trace %d: %w", w.Name, trace, err)
			}
			r, err := parseRun(stdout, names)
			if err != nil {
				return nil, fmt.Errorf("%s --trace %d: %w", w.Name, trace, err)
			}
			*dst = r
		}
		l.Workloads = append(l.Workloads, e)
	}
	return l, nil
}

// parseRun copies the named metrics and the conditions out of
// perfbench's stdout: the line {"conditions": {...}, "detail":
// {name: figure}} it prints before the result line.
func parseRun(stdout []byte, names []metricSpec) (run, error) {
	var line struct {
		Conditions *conditions        `json:"conditions"`
		Detail     map[string]*figure `json:"detail"`
	}
	for _, ln := range bytes.Split(stdout, []byte("\n")) {
		if json.Unmarshal(ln, &line) == nil && line.Conditions != nil && line.Detail != nil {
			break
		}
		line.Conditions, line.Detail = nil, nil
	}
	if line.Conditions == nil {
		return run{}, fmt.Errorf("no conditions line in perfbench output")
	}
	r := run{Conditions: *line.Conditions, Figures: map[string]figure{}}
	for _, m := range names {
		f := line.Detail[m.Name]
		if f == nil {
			return run{}, fmt.Errorf("conditions line has no figure %s", m.Name)
		}
		r.Figures[m.Name] = *f
	}
	return r, nil
}

// compare gates cur against base. It returns one line per figure and
// the failures among them:
//   - a workload or figure on one side only fails;
//   - a figure whose unit or timing flag changed fails;
//   - an exact figure fails unless its median equals the baseline's;
//   - an end-to-end timing metric fails when its median is worse than
//     the baseline median by more than bound × |baseline median| plus
//     the baseline's q3 − q1;
//   - a per-layer timing figure is recorded, not gated.
func compare(sp *spec, base, cur *ledger) (lines, failures []string) {
	bounds := map[string]metricSpec{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m
	}
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		lines = append(lines, msg+": FAIL")
		failures = append(failures, msg)
	}
	for _, w := range sp.Workloads {
		b, c := base.find(w.Name), cur.find(w.Name)
		if b == nil || c == nil {
			fail("%s: workload missing from the baseline or the capture", w.Name)
			continue
		}
		for _, pair := range [][2]*run{{&b.Untraced, &c.Untraced}, {&b.Traced, &c.Traced}} {
			br, cr := pair[0], pair[1]
			if br.Conditions != cr.Conditions {
				lines = append(lines, fmt.Sprintf("%s: note: conditions differ: baseline %+v, now %+v", w.Name, br.Conditions, cr.Conditions))
			}
			for _, name := range slices.Sorted(maps.Keys(cr.Figures)) {
				if _, ok := br.Figures[name]; !ok {
					fail("%s %s: not in the baseline", w.Name, name)
				}
			}
			for _, name := range slices.Sorted(maps.Keys(br.Figures)) {
				bf := br.Figures[name]
				cf, ok := cr.Figures[name]
				id := w.Name + " " + name
				switch m, e2e := bounds[name]; {
				case !ok:
					fail("%s: missing from the capture", id)
				case bf.Unit != cf.Unit || bf.Timing != cf.Timing:
					fail("%s: kind changed from %s timing=%v to %s timing=%v", id, bf.Unit, bf.Timing, cf.Unit, cf.Timing)
				case !bf.Timing:
					if cf.Median != bf.Median {
						fail("%s: exact %v, baseline %v", id, cf.Median, bf.Median)
					} else {
						lines = append(lines, fmt.Sprintf("%s: exact %v: ok", id, cf.Median))
					}
				case e2e:
					worse := cf.Median - bf.Median
					if m.Better == "higher" {
						worse = -worse
					}
					allowed := m.Bound*math.Abs(bf.Median) + (bf.Q3 - bf.Q1)
					msg := fmt.Sprintf("%s: median %.4g %s, baseline %.4g (q1 %.4g, q3 %.4g), worse by %.4g, allowed %.4g",
						id, cf.Median, cf.Unit, bf.Median, bf.Q1, bf.Q3, worse, allowed)
					if worse > allowed {
						fail("%s", msg)
					} else {
						lines = append(lines, msg+": ok")
					}
				default:
					lines = append(lines, fmt.Sprintf("%s: timing %.4g %s, baseline %.4g: recorded", id, cf.Median, cf.Unit, bf.Median))
				}
			}
		}
	}
	return lines, failures
}

func (l *ledger) find(name string) *workload {
	for i := range l.Workloads {
		if l.Workloads[i].Name == name {
			return &l.Workloads[i]
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}
