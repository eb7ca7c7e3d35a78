package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRunUniConsensus(t *testing.T) {
	res, err := core.RunUniConsensus(core.UniConsensusOpts{
		N: 5, V: 2, Quantum: 8, Scheduler: "random:seed=3", Trace: true,
	})
	if err != nil {
		t.Fatalf("RunUniConsensus: %v", err)
	}
	if !res.Agreed {
		t.Fatalf("disagreement: %v", res.Decisions)
	}
	if res.WorstOpStmts != 8 {
		t.Fatalf("worst op = %d statements, want 8", res.WorstOpStmts)
	}
	if !strings.Contains(res.Trace, "p0") {
		t.Fatal("trace missing process row")
	}
}

func TestRunUniConsensusBadScheduler(t *testing.T) {
	if _, err := core.RunUniConsensus(core.UniConsensusOpts{N: 2, Quantum: 8, Scheduler: "nope"}); err == nil {
		t.Fatal("bad scheduler accepted")
	}
}

func TestRunMultiConsensusFig7(t *testing.T) {
	res, err := core.RunMultiConsensus(core.MultiConsensusOpts{
		P: 2, K: 1, M: 2, V: 2, Quantum: 2048, Scheduler: "random:seed=1",
	})
	if err != nil {
		t.Fatalf("RunMultiConsensus: %v", err)
	}
	if !res.Agreed {
		t.Fatalf("disagreement: %v", res.Decisions)
	}
	if len(res.Decisions) != 4 {
		t.Fatalf("decisions = %d, want 4", len(res.Decisions))
	}
}

func TestRunMultiConsensusFig9(t *testing.T) {
	res, err := core.RunMultiConsensus(core.MultiConsensusOpts{
		P: 2, K: 0, M: 3, V: 1, Quantum: 8, Scheduler: "rotate", Fair: true,
	})
	if err != nil {
		t.Fatalf("RunMultiConsensus fair: %v", err)
	}
	if !res.Agreed {
		t.Fatalf("disagreement: %v", res.Decisions)
	}
}

func TestRunCASWorkload(t *testing.T) {
	res, err := core.RunCASWorkload(core.CASWorkloadOpts{
		N: 4, V: 2, OpsPer: 3, Quantum: 32, Scheduler: "random:seed=5",
	})
	if err != nil {
		t.Fatalf("RunCASWorkload: %v", err)
	}
	if res.Final != res.Want {
		t.Fatalf("final = %d, want %d", res.Final, res.Want)
	}
	if res.WorstOpStmts <= 0 || res.Steps <= 0 {
		t.Fatalf("bad stats: %+v", res)
	}
}
