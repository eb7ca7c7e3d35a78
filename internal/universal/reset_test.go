package universal_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/multicons"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/universal"
)

// resetKind is one object type under TestResetMatchesFresh: make builds
// a fresh object and returns process i's invocation body, a post-run
// summary of the object's contents, and the object's Reset.
type resetKind struct {
	name       string
	processors int
	quantum    int
	make       func() (op func(c *sim.Ctx, i int), summary func() int, reset func())
}

// TestResetMatchesFresh: after a pooled run on another schedule has
// grown its chain, Reset must leave each object type exactly as a fresh
// build would. The rerun must match a fresh run in statement count,
// memory fingerprint and final contents. The registered workloads cover
// Counter and Queue; Stack and MultiCounter are covered only here.
func TestResetMatchesFresh(t *testing.T) {
	kinds := []resetKind{
		{"counter", 1, 32, func() (func(*sim.Ctx, int), func() int, func()) {
			ct := universal.NewCounter("c", 0)
			return func(c *sim.Ctx, _ int) { ct.Inc(c) }, func() int { return int(ct.Peek()) }, ct.Reset
		}},
		{"queue", 1, 32, func() (func(*sim.Ctx, int), func() int, func()) {
			q := universal.NewQueue("q")
			op := func(c *sim.Ctx, i int) {
				if i%2 == 0 {
					q.Enq(c, mem.Word(i))
				} else {
					q.Deq(c)
				}
			}
			return op, q.PeekLen, q.Reset
		}},
		{"stack", 1, 32, func() (func(*sim.Ctx, int), func() int, func()) {
			s := universal.NewStack("s")
			op := func(c *sim.Ctx, i int) {
				if i%2 == 0 {
					s.Push(c, mem.Word(i))
				} else {
					s.Pop(c)
				}
			}
			return op, s.PeekLen, s.Reset
		}},
		{"multicounter", 2, 4096, func() (func(*sim.Ctx, int), func() int, func()) {
			ct := universal.NewMultiCounter(multicons.Config{Name: "m", P: 2, K: 0, M: 2, V: 1}, 0)
			return func(c *sim.Ctx, _ int) { ct.Inc(c) }, func() int { return int(ct.Peek()) }, ct.Reset
		}},
	}
	build := func(k resetKind, ch sim.Chooser) (*sim.System, func() int) {
		sys := sim.New(sim.Config{Processors: k.processors, Quantum: k.quantum, Chooser: ch, MaxSteps: 1 << 22})
		op, summary, reset := k.make()
		for i := 0; i < 4; i++ {
			i := i
			p := sys.AddProcess(sim.ProcSpec{Processor: i % k.processors, Priority: 1})
			for j := 0; j < 2; j++ {
				p.AddInvocation(func(c *sim.Ctx) { op(c, i) })
			}
		}
		sys.OnReset(reset)
		return sys, summary
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				fresh, freshSummary := build(k, sched.NewRandom(seed))
				if err := fresh.Run(); err != nil {
					t.Fatalf("seed %d: fresh run: %v", seed, err)
				}
				rnd := sched.NewRandom(seed + 100)
				pooled, pooledSummary := build(k, rnd)
				if err := pooled.Run(); err != nil {
					t.Fatalf("seed %d: first pooled run: %v", seed, err)
				}
				rnd.Reseed(seed)
				pooled.Reset()
				if err := pooled.Run(); err != nil {
					t.Fatalf("seed %d: pooled rerun: %v", seed, err)
				}
				if pooled.Steps() != fresh.Steps() || pooled.MemFingerprint() != fresh.MemFingerprint() ||
					pooledSummary() != freshSummary() {
					t.Fatalf("seed %d: pooled rerun has %d steps, memory fingerprint %x, contents %d; fresh run has %d, %x, %d",
						seed, pooled.Steps(), pooled.MemFingerprint(), pooledSummary(),
						fresh.Steps(), fresh.MemFingerprint(), freshSummary())
				}
			}
		})
	}
}
