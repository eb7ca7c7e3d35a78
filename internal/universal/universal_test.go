package universal_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/multicons"
	"repro/internal/sim"
	"repro/internal/unicons"
	"repro/internal/universal"
)

// counterBuilder: n processes across V levels each increment opsPer
// times; returns must be a permutation of 0..n*opsPer-1.
func counterBuilder(n, levels, opsPer, quantum int) check.Builder {
	return func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: quantum, Chooser: ch, MaxSteps: 1 << 20})
		ctr := universal.NewCounter("ctr", 0)
		rets := make([][]mem.Word, n)
		for i := 0; i < n; i++ {
			i := i
			p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%levels})
			for k := 0; k < opsPer; k++ {
				p.AddInvocation(func(c *sim.Ctx) {
					rets[i] = append(rets[i], ctr.Inc(c))
				})
			}
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			var all []int
			for i := range rets {
				for k := 1; k < len(rets[i]); k++ {
					if rets[i][k] <= rets[i][k-1] {
						return fmt.Errorf("process %d returns not increasing: %v", i, rets[i])
					}
				}
				for _, v := range rets[i] {
					all = append(all, int(v))
				}
			}
			sort.Ints(all)
			for k, v := range all {
				if v != k {
					return fmt.Errorf("returns not a permutation: %v", all)
				}
			}
			if got := ctr.Peek(); got != mem.Word(n*opsPer) {
				return fmt.Errorf("final = %d, want %d", got, n*opsPer)
			}
			return nil
		}
		return sys, verify
	}
}

func TestCounterExhaustiveTwoProcs(t *testing.T) {
	res := check.ExploreBudget(counterBuilder(2, 2, 1, unicons.MinQuantum*2), 3,
		check.Options{MaxSchedules: 100000})
	if !res.OK() {
		t.Fatalf("violation after %d schedules: %+v", res.Schedules, res.First())
	}
	t.Logf("verified %d schedules (truncated=%v)", res.Schedules, res.Truncated)
}

func TestCounterFuzz(t *testing.T) {
	for _, cfg := range []struct{ n, levels, ops int }{
		{2, 1, 4}, {3, 3, 3}, {6, 2, 2},
	} {
		res := check.Fuzz(counterBuilder(cfg.n, cfg.levels, cfg.ops, 32), 200, check.Options{})
		if !res.OK() {
			t.Fatalf("cfg=%+v: violation: %+v", cfg, res.First())
		}
	}
}

// TestQueueFIFO fuzzes producers and consumers: dequeued items must
// respect per-producer order and conserve items.
func TestQueueFIFO(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		const producers, perProd = 3, 3
		sys := sim.New(sim.Config{Processors: 1, Quantum: 32, Chooser: ch, MaxSteps: 1 << 20})
		q := universal.NewQueue("q")
		var deqs []mem.Word
		for i := 0; i < producers; i++ {
			i := i
			p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%2})
			for k := 0; k < perProd; k++ {
				k := k
				p.AddInvocation(func(c *sim.Ctx) {
					q.Enq(c, mem.Word(i*100+k))
				})
			}
		}
		cons := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 2})
		for k := 0; k < producers*perProd; k++ {
			cons.AddInvocation(func(c *sim.Ctx) {
				deqs = append(deqs, q.Deq(c))
			})
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			// Per-producer FIFO order among non-empty dequeues.
			lastSeq := map[int]int{0: -1, 1: -1, 2: -1}
			got := 0
			for _, v := range deqs {
				if v == universal.QueueEmpty {
					continue
				}
				got++
				prod, seq := int(v)/100, int(v)%100
				if seq <= lastSeq[prod] {
					return fmt.Errorf("producer %d items out of order: %v", prod, deqs)
				}
				lastSeq[prod] = seq
			}
			if got+q.PeekLen() != producers*perProd {
				return fmt.Errorf("items lost: dequeued %d + remaining %d != %d",
					got, q.PeekLen(), producers*perProd)
			}
			return nil
		}
		return sys, verify
	}
	res := check.Fuzz(build, 300, check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
}

// TestQueueMixedConservation fuzzes processes that each both enqueue and
// dequeue, at the minimum quantum: processes preempted inside a chain
// replay resume and apply operations another process has already
// replayed past. Every run must complete and conserve items.
func TestQueueMixedConservation(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: unicons.MinQuantum, Chooser: ch, MaxSteps: 1 << 20})
		q := universal.NewQueue("q")
		enqs, deqs := 0, 0
		for i := 0; i < 6; i++ {
			i := i
			p := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1 + i%2})
			for k := 0; k < 3; k++ {
				enq := (i+k)%2 == 0
				p.AddInvocation(func(c *sim.Ctx) {
					if enq {
						q.Enq(c, mem.Word(i))
						enqs++
					} else if q.Deq(c) != universal.QueueEmpty {
						deqs++
					}
				})
			}
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			if deqs+q.PeekLen() != enqs {
				return fmt.Errorf("items not conserved: %d dequeued + %d left != %d enqueued", deqs, q.PeekLen(), enqs)
			}
			return nil
		}
		return sys, verify
	}
	if res := check.Fuzz(build, 300, check.Options{}); !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
}

// TestQueueDeqEmpty checks the empty-queue return.
func TestQueueDeqEmpty(t *testing.T) {
	sys := sim.New(sim.Config{Processors: 1, Quantum: 32})
	q := universal.NewQueue("q")
	var first, second mem.Word
	sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1}).
		AddInvocation(func(c *sim.Ctx) {
			first = q.Deq(c)
			q.Enq(c, 42)
			second = q.Deq(c)
		})
	if err := sys.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if first != universal.QueueEmpty {
		t.Errorf("Deq on empty = %d, want QueueEmpty", first)
	}
	if second != 42 {
		t.Errorf("Deq = %d, want 42", second)
	}
}

// TestMultiCounter exercises the multiprocessor universal object: the
// Theorem 4 universality claim made executable. Increments from
// processes on different processors must linearize.
func TestMultiCounter(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		cfg := multicons.Config{Name: "mctr", P: 2, K: 0, M: 2, V: 1}
		sys := sim.New(sim.Config{Processors: cfg.P, Quantum: 4096, Chooser: ch, MaxSteps: 1 << 22})
		ctr := universal.NewMultiCounter(cfg, 0)
		const n, opsPer = 4, 2
		rets := make([][]mem.Word, n)
		for i := 0; i < n; i++ {
			i := i
			p := sys.AddProcess(sim.ProcSpec{Processor: i % cfg.P, Priority: 1})
			for k := 0; k < opsPer; k++ {
				p.AddInvocation(func(c *sim.Ctx) {
					rets[i] = append(rets[i], ctr.Inc(c))
				})
			}
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			var all []int
			for i := range rets {
				for _, v := range rets[i] {
					all = append(all, int(v))
				}
			}
			sort.Ints(all)
			for k, v := range all {
				if v != k {
					return fmt.Errorf("returns not a permutation: %v", all)
				}
			}
			if got := ctr.Peek(); got != n*opsPer {
				return fmt.Errorf("final = %d, want %d", got, n*opsPer)
			}
			return nil
		}
		return sys, verify
	}
	res := check.Fuzz(build, 20, check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
}

// TestCounterGetLinearizes checks Get interleaved with Inc.
func TestCounterGetLinearizes(t *testing.T) {
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		sys := sim.New(sim.Config{Processors: 1, Quantum: 32, Chooser: ch, MaxSteps: 1 << 20})
		ctr := universal.NewCounter("ctr", 0)
		var gets []mem.Word
		inc := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 1})
		for k := 0; k < 5; k++ {
			inc.AddInvocation(func(c *sim.Ctx) { ctr.Inc(c) })
		}
		rd := sys.AddProcess(sim.ProcSpec{Processor: 0, Priority: 2})
		for k := 0; k < 5; k++ {
			rd.AddInvocation(func(c *sim.Ctx) { gets = append(gets, ctr.Get(c)) })
		}
		verify := func(runErr error) error {
			if runErr != nil {
				return fmt.Errorf("run failed: %w", runErr)
			}
			for i := 1; i < len(gets); i++ {
				if gets[i] < gets[i-1] {
					return fmt.Errorf("gets ran backwards: %v", gets)
				}
			}
			if len(gets) > 0 && gets[len(gets)-1] > 5 {
				return fmt.Errorf("get exceeds total increments: %v", gets)
			}
			return nil
		}
		return sys, verify
	}
	res := check.Fuzz(build, 300, check.Options{})
	if !res.OK() {
		t.Fatalf("violation: %+v", res.First())
	}
}
