// Command hybridsim runs the paper's algorithms on the simulated
// hybrid-scheduled system from command-line flags.
//
// Usage:
//
//	hybridsim -alg fig3 -n 8 -v 3 -q 8 -sched random:seed=7
//	hybridsim -alg fig5 -n 6 -v 4 -ops 3 -q 32 -sched rotate
//	hybridsim -alg fig7 -p 3 -k 1 -m 2 -v 2 -q 2048 -sched random:seed=1
//	hybridsim -alg fig9 -p 2 -k 0 -m 4 -v 2 -q 8 -sched rotate
//	hybridsim -alg fig3 -n 4 -v 1 -q 8 -sched stagger:period=8,phase=2
//
// -sched takes the scheduler-model grammar of cmd/checker -sched-model
// (sched.ParseModelSpec); "script" with no decisions always picks the
// first runnable candidate.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hybridsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		alg      = flag.String("alg", "fig3", "algorithm: fig3|fig5|fig7|fig9")
		n        = flag.Int("n", 4, "processes (fig3/fig5)")
		p        = flag.Int("p", 2, "processors (fig7/fig9)")
		k        = flag.Int("k", 0, "consensus-number surplus K, C=P+K (fig7/fig9)")
		m        = flag.Int("m", 2, "processes per processor (fig7/fig9)")
		v        = flag.Int("v", 1, "priority levels")
		ops      = flag.Int("ops", 2, "operations per process (fig5)")
		q        = flag.Int("q", 8, "scheduling quantum (statements)")
		schedStr = flag.String("sched", "random:seed=1", "scheduler model (sched.ParseModelSpec grammar), e.g. script, rtc, rotate, random:seed=7, stagger:period=8,phase=2")
		showTr   = flag.Bool("trace", false, "render the interleaving timeline")
	)
	flag.Parse()

	switch *alg {
	case "fig3":
		res, err := core.RunUniConsensus(core.UniConsensusOpts{
			N: *n, V: *v, Quantum: *q, Scheduler: *schedStr, Trace: *showTr,
		})
		if err != nil {
			return err
		}
		fmt.Printf("fig3 consensus: N=%d V=%d Q=%d sched=%s\n", *n, *v, *q, *schedStr)
		fmt.Printf("decisions: %v  agreed=%v\n", res.Decisions, res.Agreed)
		fmt.Printf("steps=%d worst-op=%d stmts, preemptions=%d\n", res.Steps, res.WorstOpStmts, res.Preemptions)
		if *showTr {
			fmt.Print(res.Trace)
		}
	case "fig5":
		res, err := core.RunCASWorkload(core.CASWorkloadOpts{
			N: *n, V: *v, OpsPer: *ops, Quantum: *q, Scheduler: *schedStr,
		})
		if err != nil {
			return err
		}
		fmt.Printf("fig5 C&S counter: N=%d V=%d ops=%d Q=%d sched=%s\n", *n, *v, *ops, *q, *schedStr)
		fmt.Printf("final=%d want=%d steps=%d worst-op=%d stmts, max head walk=%d\n",
			res.Final, res.Want, res.Steps, res.WorstOpStmts, res.MaxWalk)
		if res.Final != res.Want {
			return fmt.Errorf("counter mismatch: %d != %d", res.Final, res.Want)
		}
	case "fig7", "fig9":
		res, err := core.RunMultiConsensus(core.MultiConsensusOpts{
			P: *p, K: *k, M: *m, V: *v, Quantum: *q,
			Scheduler: *schedStr, Fair: *alg == "fig9", Trace: *showTr,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s consensus: P=%d C=%d M=%d V=%d Q=%d sched=%s\n",
			*alg, *p, *p+*k, *m, *v, *q, *schedStr)
		fmt.Printf("decisions: %v  agreed=%v\n", res.Decisions, res.Agreed)
		fmt.Printf("steps=%d worst-op=%d stmts, preemptions=%d\n", res.Steps, res.WorstOpStmts, res.Preemptions)
		if *showTr {
			fmt.Print(res.Trace)
		}
	default:
		return fmt.Errorf("unknown -alg %q", *alg)
	}
	return nil
}
