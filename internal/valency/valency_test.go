package valency_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/unicons"
	"repro/internal/valency"
)

// fig3Scenario builds an n-process Fig. 3 consensus at quantum q.
func fig3Scenario(n, q int) valency.Scenario {
	return func(ch sim.Chooser) (*sim.System, func(error) valency.Outcome) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: q, Chooser: ch, MaxSteps: 1 << 16})
		obj := unicons.New("cons")
		outs := make([]mem.Word, n)
		for i := 0; i < n; i++ {
			i := i
			sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
				AddInvocation(func(c *sim.Ctx) { outs[i] = obj.Decide(c, mem.Word(i+1)) })
		}
		return sys, func(runErr error) valency.Outcome {
			if runErr != nil {
				return valency.Outcome{}
			}
			for _, o := range outs {
				if o != outs[0] || o == mem.Bottom {
					return valency.Outcome{}
				}
			}
			return valency.Outcome{Decision: outs[0], Valid: true}
		}
	}
}

// TestFig3ValencyStructure reproduces the valency-argument shape for a
// CORRECT algorithm: the initial state is bivalent (either proposal can
// win), critical states exist where the decision gets locked in, every
// leaf decides, and bivalence cannot persist to the end of the tree.
func TestFig3ValencyStructure(t *testing.T) {
	res := valency.Analyze(fig3Scenario(2, unicons.MinQuantum), 100000)
	if res.Truncated {
		t.Fatal("analysis truncated")
	}
	if res.Violations != 0 {
		t.Fatalf("correct algorithm shows %d violating leaves", res.Violations)
	}
	if len(res.Decisions) != 2 {
		t.Fatalf("expected both proposals decidable, got %v", res.Decisions)
	}
	if res.Bivalent == 0 {
		t.Fatal("initial state should be bivalent")
	}
	if res.Critical == 0 {
		t.Fatal("no critical states: the decision is never locked in?")
	}
	t.Logf("Fig. 3 Q=8: %s", res)
}

// TestFig3ValencyViolationsBelowQuantum shows the dual: below the
// quantum bound the (deviation-bounded) schedule tree contains
// violating leaves — the adversary need not even keep the run bivalent,
// it can break agreement outright. The full tree at Q=1 is far too
// large, so the analysis covers the ≤3-deviation subtree, which is
// where the earlier explorer found the disagreement.
func TestFig3ValencyViolationsBelowQuantum(t *testing.T) {
	res := valency.AnalyzeBudget(fig3Scenario(3, 1), 3, 100000)
	if res.Violations == 0 {
		t.Fatalf("no violations at Q=1: %s", res)
	}
	t.Logf("Fig. 3 Q=1 (budget 3): %s", res)
}

// exhaustionScenario is the Theorem 3/Fig. 6 engine: n processes on p
// processors invoke a single C-consensus object directly and return its
// response; with n > C some leaves must return ⊥ (violations).
func exhaustionScenario(n, p, c int) valency.Scenario {
	return func(ch sim.Chooser) (*sim.System, func(error) valency.Outcome) {
		sys := sim.New(sim.Config{Processors: p, Quantum: 1, Chooser: ch, MaxSteps: 1 << 14})
		obj := mem.NewConsObject("O", c)
		outs := make([]mem.Word, n)
		for i := 0; i < n; i++ {
			i := i
			sys.AddProcess(sim.ProcSpec{Processor: i % p, Priority: 1}).
				AddInvocation(func(cx *sim.Ctx) { outs[i] = cx.CCons(obj, mem.Word(i+1)) })
		}
		return sys, func(runErr error) valency.Outcome {
			if runErr != nil {
				return valency.Outcome{}
			}
			for _, o := range outs {
				if o != outs[0] || o == mem.Bottom {
					return valency.Outcome{}
				}
			}
			return valency.Outcome{Decision: outs[0], Valid: true}
		}
	}
}

// TestExhaustionValency reproduces the Fig. 6 situation: with more
// invokers than the consensus number, EVERY schedule ends in a
// violation (the late invoker always learns nothing), while with n ≤ C
// none does.
func TestExhaustionValency(t *testing.T) {
	bad := valency.Analyze(exhaustionScenario(3, 2, 2), 100000)
	if bad.Violations != bad.Leaves {
		t.Fatalf("n=3 > C=2: want all %d leaves violating, got %d", bad.Leaves, bad.Violations)
	}
	good := valency.Analyze(exhaustionScenario(2, 2, 2), 100000)
	if good.Violations != 0 {
		t.Fatalf("n=2 <= C=2: want no violations, got %d", good.Violations)
	}
	if len(good.Decisions) < 2 {
		t.Fatalf("n=2: both proposals should be reachable: %v", good.Decisions)
	}
	t.Logf("n>C: %s", bad)
	t.Logf("n<=C: %s", good)
}

// TestAnalyzeSummaries pins the exact summary of cmd/valency
// configurations, truncated ones included: walking the trees through
// the check explorers must visit the same schedules, in the same order,
// as the enumeration the figures were first recorded with. A scenario
// that panics must fail loudly, not count as a violating leaf.
func TestAnalyzeSummaries(t *testing.T) {
	panicky := func(ch sim.Chooser) (*sim.System, func(error) valency.Outcome) {
		sys, _ := fig3Scenario(2, unicons.MinQuantum)(ch)
		return sys, func(error) valency.Outcome { panic("scenario bug") }
	}
	for _, tc := range []struct {
		name        string
		scen        valency.Scenario
		budget, max int
		want        string
	}{
		{"fig3 -n 2 -q 8", fig3Scenario(2, 8), 0, 100000,
			"leaves=114 prefixes=113 bivalent=17 critical=4 maxBivalentDepth=6 violations=0 decisions=[1×57][2×57]"},
		{"fig3 -n 3 -q 1 -budget 3", fig3Scenario(3, 1), 3, 100000,
			"leaves=4605 prefixes=27528 bivalent=109 critical=30 maxBivalentDepth=10 violations=2 decisions=[1×2853][2×841][3×909]"},
		{"fig3 -n 3 -q 2 -budget 3 -max 50", fig3Scenario(3, 2), 3, 50,
			"leaves=50 prefixes=495 bivalent=9 critical=3 maxBivalentDepth=4 violations=0 decisions=[1×21][2×7][3×22] (truncated)"},
		{"fig3 -n 3 -q 8 -max 10", fig3Scenario(3, 8), 0, 10,
			"leaves=10 prefixes=24 bivalent=0 critical=0 maxBivalentDepth=0 violations=0 decisions=[1×10] (truncated)"},
		{"fig3 -n 2 -q 2", fig3Scenario(2, 2), 0, 100000,
			"leaves=1296 prefixes=1295 bivalent=43 critical=10 maxBivalentDepth=8 violations=42 decisions=[1×627][2×627]"},
		{"exhaust -n 3 -p 2 -c 2", exhaustionScenario(3, 2, 2), 0, 100000,
			"leaves=6 prefixes=4 bivalent=0 critical=0 maxBivalentDepth=0 violations=6 decisions="},
		{"panicking scenario", panicky, 0, 100000, "panic: scenario bug"},
		{"panicking scenario -budget 1", panicky, 1, 100000, "panic: scenario bug"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := func() (s string) {
				defer func() {
					if r := recover(); r != nil {
						s = fmt.Sprint(r)
						if strings.Contains(s, "scenario bug") {
							s = "panic: scenario bug"
						}
					}
				}()
				if tc.budget > 0 {
					return valency.AnalyzeBudget(tc.scen, tc.budget, tc.max).String()
				}
				return valency.Analyze(tc.scen, tc.max).String()
			}()
			if got != tc.want {
				t.Fatalf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestAnalyzeTruncation checks that the leaf cap stops the walk and
// marks the result truncated.
func TestAnalyzeTruncation(t *testing.T) {
	res := valency.Analyze(fig3Scenario(3, unicons.MinQuantum), 10)
	if !res.Truncated || res.Leaves != 10 {
		t.Fatalf("leaves=%d truncated=%v, want 10/true", res.Leaves, res.Truncated)
	}
}

// TestResultString covers the renderer.
func TestResultString(t *testing.T) {
	res := valency.Analyze(fig3Scenario(2, unicons.MinQuantum), 100000)
	s := res.String()
	if s == "" {
		t.Fatal("empty summary")
	}
	fmt.Println("summary:", s)
}
