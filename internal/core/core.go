// Package core assembles the paper's algorithms into runnable
// scenarios: it builds a simulated hybrid-scheduled system, wires in the
// chosen algorithm and workload, runs it, and reports outcomes. The
// cmd/ binaries, the examples, and parts of the experiment harness are
// thin layers over this package.
package core

import (
	"errors"
	"fmt"

	"repro/internal/hybridcas"
	"repro/internal/mem"
	"repro/internal/multicons"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/unicons"
)

// newChooser builds the scheduler a Scheduler option names, in the
// sched.ParseModelSpec grammar: "rtc", "rotate", "random:seed=7",
// "stagger:period=8,phase=2", "script" (candidate 0 at every decision),
// or any other registered model.
func newChooser(spec string) (sim.Chooser, error) {
	ms, err := sched.ParseModelSpec(spec)
	if err != nil {
		return nil, err
	}
	return sched.NewFromSpec(ms)
}

// ConsensusResult reports one consensus scenario run.
type ConsensusResult struct {
	// Decisions holds each process's decision, in process order.
	Decisions []mem.Word
	// Agreed reports whether all decisions are equal and non-⊥.
	Agreed bool
	// Steps is the total statements executed.
	Steps int64
	// WorstOpStmts is the largest per-invocation statement count.
	WorstOpStmts int64
	// Preemptions is the total same-priority preemptions.
	Preemptions int
	// Trace, if recording was requested, renders the interleaving.
	Trace string
}

func summarize(sys *sim.System, outs []mem.Word, rec *trace.Recorder) *ConsensusResult {
	res := &ConsensusResult{Decisions: outs, Agreed: true}
	for _, v := range outs {
		if v == mem.Bottom || v != outs[0] {
			res.Agreed = false
		}
	}
	res.Steps = sys.Steps()
	for _, p := range sys.Processes() {
		if p.MaxInvStmts() > res.WorstOpStmts {
			res.WorstOpStmts = p.MaxInvStmts()
		}
		res.Preemptions += p.Preemptions()
	}
	if rec != nil {
		res.Trace = rec.Render(trace.RenderOptions{Ops: true})
	}
	return res
}

// UniConsensusOpts parameterizes RunUniConsensus.
type UniConsensusOpts struct {
	N         int    // processes
	V         int    // priority levels (processes cycle through 1..V)
	Quantum   int    // scheduling quantum
	Scheduler string // sched.ParseModelSpec spec, e.g. "random:seed=7"
	Trace     bool   // record and render the interleaving
}

// RunUniConsensus runs the Fig. 3 uniprocessor consensus with N
// processes proposing 1..N.
func RunUniConsensus(opts UniConsensusOpts) (*ConsensusResult, error) {
	ch, err := newChooser(opts.Scheduler)
	if err != nil {
		return nil, err
	}
	var rec *trace.Recorder
	cfg := sim.Config{Processors: 1, Quantum: opts.Quantum, Chooser: ch, MaxSteps: 1 << 20}
	if opts.Trace {
		rec = trace.NewRecorder(0)
		cfg.Observer = rec
	}
	sys := sim.New(cfg)
	obj := unicons.New("cons")
	outs := make([]mem.Word, opts.N)
	for i := 0; i < opts.N; i++ {
		i := i
		v := 1
		if opts.V > 1 {
			v = 1 + i%opts.V
		}
		sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: v, Name: fmt.Sprintf("p%d", i)}).
			AddInvocation(func(c *sim.Ctx) { outs[i] = obj.Decide(c, mem.Word(i+1)) })
	}
	if err := sys.Run(); err != nil && !errors.Is(err, sim.ErrStepLimit) {
		return nil, err
	}
	return summarize(sys, outs, rec), nil
}

// MultiConsensusOpts parameterizes RunMultiConsensus.
type MultiConsensusOpts struct {
	P         int // processors
	K         int // C = P + K
	M         int // processes per processor
	V         int // priority levels
	Quantum   int
	Scheduler string
	Fair      bool // run Fig. 9 instead of Fig. 7
	Trace     bool
}

// RunMultiConsensus runs the Fig. 7 (or, with Fair, Fig. 9)
// multiprocessor consensus with P×M processes proposing 1..P·M.
func RunMultiConsensus(opts MultiConsensusOpts) (*ConsensusResult, error) {
	ch, err := newChooser(opts.Scheduler)
	if err != nil {
		return nil, err
	}
	var rec *trace.Recorder
	cfg := sim.Config{Processors: opts.P, Quantum: opts.Quantum, Chooser: ch, MaxSteps: 1 << 23}
	if opts.Trace {
		rec = trace.NewRecorder(0)
		cfg.Observer = rec
	}
	sys := sim.New(cfg)
	var decide func(c *sim.Ctx, val mem.Word) mem.Word
	if opts.Fair {
		decide = multicons.NewFair("mc", opts.P, opts.V, opts.K).Decide
	} else {
		decide = multicons.New(multicons.Config{
			Name: "mc", P: opts.P, K: opts.K, M: opts.M, V: opts.V,
		}).Decide
	}
	n := opts.P * opts.M
	outs := make([]mem.Word, n)
	id := 0
	for i := 0; i < opts.P; i++ {
		for j := 0; j < opts.M; j++ {
			me := id
			sys.AddProcess(sim.ProcSpec{
				Processor: i,
				Priority:  1 + j%opts.V,
				Name:      fmt.Sprintf("p%d.%d", i, j),
			}).AddInvocation(func(c *sim.Ctx) { outs[me] = decide(c, mem.Word(me+1)) })
			id++
		}
	}
	if err := sys.Run(); err != nil && !errors.Is(err, sim.ErrStepLimit) {
		return nil, err
	}
	return summarize(sys, outs, rec), nil
}

// CASWorkloadOpts parameterizes RunCASWorkload.
type CASWorkloadOpts struct {
	N         int // processes
	V         int // priority levels
	OpsPer    int // increments per process
	Quantum   int
	Scheduler string
}

// CASWorkloadResult reports a Fig. 5 counter workload.
type CASWorkloadResult struct {
	Final        mem.Word
	Want         mem.Word
	Steps        int64
	WorstOpStmts int64
	MaxWalk      int
}

// RunCASWorkload drives the Fig. 5 C&S object through a counter
// workload: each process performs OpsPer successful increments via CAS
// retry loops.
func RunCASWorkload(opts CASWorkloadOpts) (*CASWorkloadResult, error) {
	ch, err := newChooser(opts.Scheduler)
	if err != nil {
		return nil, err
	}
	sys := sim.New(sim.Config{Processors: 1, Quantum: opts.Quantum, Chooser: ch, MaxSteps: 1 << 22})
	obj := hybridcas.New("cas", opts.V, 0)
	for i := 0; i < opts.N; i++ {
		p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%opts.V})
		for k := 0; k < opts.OpsPer; k++ {
			p.AddInvocation(func(c *sim.Ctx) {
				//repro:bound unbounded lock-free C&S retry workload: per-invocation progress is unbounded by design — the practically-wait-free layer measures exactly this gap
				for {
					v := obj.Read(c)
					if obj.CompareAndSwap(c, v, v+1) {
						return
					}
				}
			})
		}
	}
	if err := sys.Run(); err != nil {
		return nil, err
	}
	res := &CASWorkloadResult{
		Final:   obj.Peek(),
		Want:    mem.Word(opts.N * opts.OpsPer),
		Steps:   sys.Steps(),
		MaxWalk: obj.MaxWalk(),
	}
	for _, p := range sys.Processes() {
		if p.MaxInvStmts() > res.WorstOpStmts {
			res.WorstOpStmts = p.MaxInvStmts()
		}
	}
	return res, nil
}
