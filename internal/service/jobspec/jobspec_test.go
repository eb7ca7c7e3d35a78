package jobspec_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/check"
	"repro/internal/service/jobspec"
)

func TestSpecValidate(t *testing.T) {
	good := &jobspec.Spec{Kind: jobspec.KindCheck, Check: &jobspec.Check{
		Meta: artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 8}, Mode: jobspec.ModeAll}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []*jobspec.Spec{
		{},
		{Kind: "mystery"},
		{Kind: jobspec.KindCheck},
		{Kind: jobspec.KindSoak},
		{Kind: jobspec.KindCheck, Check: good.Check, Soak: &jobspec.Soak{}},
		{Kind: jobspec.KindCheck, Check: &jobspec.Check{Meta: artifact.Meta{Workload: "nope"}, Mode: "all"}},
		{Kind: jobspec.KindCheck, Check: &jobspec.Check{Meta: good.Check.Meta, Mode: "mystery"}},
		{Kind: jobspec.KindCheck, Check: &jobspec.Check{Meta: good.Check.Meta, Mode: "all", Reduction: "mystery"}},
		{Kind: jobspec.KindCheck, Check: &jobspec.Check{Meta: good.Check.Meta, Mode: "all", Budget: -1}},
		{Kind: jobspec.KindSoak, Soak: &jobspec.Soak{Workload: "nope"}},
		{Kind: jobspec.KindSoak, Soak: &jobspec.Soak{Runs: -1}},
		{Kind: jobspec.KindLint},
		{Kind: jobspec.KindLint, Lint: &jobspec.Lint{}, Check: good.Check},
		{Kind: jobspec.KindLint, Lint: &jobspec.Lint{Patterns: []string{"internal/mem"}}},
		{Kind: jobspec.KindLint, Lint: &jobspec.Lint{Parallelism: -1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	orig := &jobspec.Spec{Kind: jobspec.KindSoak, Soak: &jobspec.Soak{
		Workload: "lockcounter", N: 2, V: 2, Quantum: 4, WaitFreeBound: 60,
		Runs: 100, Seed: 7, MaxCrashes: 1, KeepGoing: true}}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := jobspec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got.Soak != *orig.Soak || got.Kind != orig.Kind {
		t.Fatalf("round trip mismatch: %+v != %+v", got.Soak, orig.Soak)
	}
	if _, err := jobspec.Parse([]byte("{not json")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := jobspec.Parse([]byte(`{"kind":"check"}`)); err == nil {
		t.Fatal("kind/payload mismatch accepted")
	}
	if _, err := jobspec.Parse(append(data, ` {}`...)); err == nil {
		t.Fatal("data after the spec accepted")
	}
	typo := `{"kind":"check","check":{"meta":{"workload":"unicons","n":2,"v":1,"quantum":8},"mode":"all","stop_at_frist":true}}`
	if _, err := jobspec.Parse([]byte(typo)); err == nil || !strings.Contains(err.Error(), "stop_at_frist") {
		t.Fatalf("misspelt field: err %v, want one naming stop_at_frist", err)
	}
}

func TestCheckOptionsMapping(t *testing.T) {
	spec := &jobspec.Check{
		Meta: artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 8, WaitFreeBound: 40},
		Mode: jobspec.ModeAll, MaxSchedules: 123, Parallelism: 3, Reduction: "full",
		StopAtFirst: true, Minimize: true, ShrinkBudget: 9,
		RunDeadlineMS: 1500, MemSoftMB: 2,
	}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.MaxSchedules != 123 || opts.Parallelism != 3 || !opts.StopAtFirst {
		t.Fatalf("basic fields not mapped: %+v", opts)
	}
	if opts.WaitFreeBound != 40 {
		t.Fatalf("WaitFreeBound not taken from Meta: %d", opts.WaitFreeBound)
	}
	if opts.Reduction != check.ReductionFull {
		t.Fatalf("reduction not mapped: %v", opts.Reduction)
	}
	if opts.RunDeadline != 1500*time.Millisecond || opts.MemSoftLimit != 2<<20 {
		t.Fatalf("unit conversions wrong: deadline %v, mem %d", opts.RunDeadline, opts.MemSoftLimit)
	}
	if opts.ArtifactMeta == nil || !opts.Minimize || opts.ShrinkBudget != 9 {
		t.Fatalf("minimize plumbing not mapped: %+v", opts)
	}
	if opts.ArtifactMeta.WaitFreeBound != 40 {
		t.Fatal("artifact meta lost the wait-free bound")
	}
}

func TestCheckDurable(t *testing.T) {
	meta := artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 8}
	cases := []struct {
		mode, red string
		want      bool
	}{
		{jobspec.ModeAll, "", true},
		{jobspec.ModeAll, "none", true},
		{jobspec.ModeBudget, "", true},
		{jobspec.ModeFuzz, "", false},
		{jobspec.ModeAll, "full", false},
		{jobspec.ModeBudget, "sleepset", false},
	}
	for _, c := range cases {
		spec := &jobspec.Check{Meta: meta, Mode: c.mode, Reduction: c.red}
		if got := spec.Durable(); got != c.want {
			t.Errorf("Durable(mode=%s, reduction=%q) = %v, want %v", c.mode, c.red, got, c.want)
		}
	}
}

func TestSoakConfigAndIdentity(t *testing.T) {
	spec := &jobspec.Soak{Workload: "lockcounter", N: 2, V: 2, Quantum: 4, WaitFreeBound: 60,
		Runs: 50, Seed: 11, MaxCrashes: 1, KeepGoing: true}
	if got, want := spec.ResolvedCrashSeed(), int64(11)^0x5deece66d; got != want {
		t.Fatalf("derived crash seed %d, want %d", got, want)
	}
	cfg := spec.Config()
	if cfg.BaseSeed != 11 || cfg.CrashSeed != spec.ResolvedCrashSeed() || cfg.MaxCrashes != 1 {
		t.Fatalf("seeds not mapped: %+v", cfg)
	}
	if cfg.Workload != "lockcounter" || cfg.N != 2 || cfg.V != 2 || cfg.Quantum != 4 || cfg.WaitFreeBound != 60 {
		t.Fatalf("workload params not mapped: %+v", cfg)
	}
	if cfg.StopOnViolation {
		t.Fatal("KeepGoing should clear StopOnViolation")
	}

	// The identity a durable campaign persists must reconstruct the spec.
	id := campaign.Identity{BaseSeed: 11, CrashSeed: spec.ResolvedCrashSeed(), MaxCrashes: 1,
		Workload: "lockcounter", N: 2, V: 2, Quantum: 4, WaitFreeBound: 60}
	got := jobspec.SoakFromIdentity(id)
	if got.Workload != spec.Workload || got.N != spec.N || got.V != spec.V ||
		got.Quantum != spec.Quantum || got.WaitFreeBound != spec.WaitFreeBound ||
		got.Seed != spec.Seed || got.CrashSeed != spec.ResolvedCrashSeed() || got.MaxCrashes != spec.MaxCrashes {
		t.Fatalf("identity round trip mismatch: %+v", got)
	}
}

func TestLintSpec(t *testing.T) {
	empty := &jobspec.Spec{Kind: jobspec.KindLint, Lint: &jobspec.Lint{}}
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty lint spec rejected: %v", err)
	}
	if got := empty.Lint.ResolvedPatterns(); len(got) != 1 || got[0] != "./..." {
		t.Fatalf("default patterns = %v, want [./...]", got)
	}
	if got := empty.Describe(); got != "lint ./..." {
		t.Fatalf("Describe() = %q", got)
	}
	scoped := &jobspec.Spec{Kind: jobspec.KindLint, Lint: &jobspec.Lint{
		Patterns: []string{"./internal/mem", "./internal/sim/..."}, NoTests: true}}
	if err := scoped.Validate(); err != nil {
		t.Fatalf("scoped lint spec rejected: %v", err)
	}
	data, err := json.Marshal(scoped)
	if err != nil {
		t.Fatal(err)
	}
	got, err := jobspec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != jobspec.KindLint || got.Lint == nil || !got.Lint.NoTests ||
		len(got.Lint.Patterns) != 2 || got.Lint.Patterns[1] != "./internal/sim/..." {
		t.Fatalf("round trip mismatch: %+v", got.Lint)
	}
}

func TestExplicitCrashSeedWins(t *testing.T) {
	spec := &jobspec.Soak{Seed: 3, CrashSeed: 99}
	if spec.ResolvedCrashSeed() != 99 {
		t.Fatal("explicit crash seed overridden")
	}
}
