package check

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sched"
	"repro/internal/sim"
)

// poolMetas gives every registered workload a configuration whose
// replays grow its run-time storage: universal and qlocal chains,
// hybridcas cell stores, Fig. 7 election tables, and in soakmix the
// reclaiming C&S and the queue's item log.
var poolMetas = map[string]artifact.Meta{
	"unicons":     {Workload: "unicons", N: 3, V: 1, Quantum: 8, MaxSteps: 1 << 16},
	"multicons":   {Workload: "multicons", P: 2, M: 2, V: 2, K: 1, Quantum: 64, MaxSteps: 1 << 20},
	"hybridcas":   {Workload: "hybridcas", N: 3, V: 2, Quantum: 8},
	"universal":   {Workload: "universal", N: 3, V: 2, Quantum: 8},
	"lockcounter": {Workload: "lockcounter", N: 2, V: 2, Quantum: 4, MaxSteps: 2000},
	"soakmix":     {Workload: "soakmix", N: 5, V: 2, Quantum: 8, WorkSeed: 133},
}

// poolMeta returns name's pooled-replay configuration, failing the test
// for a registered workload that has none.
func poolMeta(t *testing.T, name string) artifact.Meta {
	t.Helper()
	meta, ok := poolMetas[name]
	if !ok {
		t.Fatalf("workload %q has no entry in poolMetas", name)
	}
	return meta
}

// decisionVectors returns count seeded decision vectors of the given
// length with choices in [0, 3); the Script clamps out-of-range ones.
func decisionVectors(seed int64, count, length int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, count)
	for i := range out {
		out[i] = make([]int, length)
		for j := range out[i] {
			out[i][j] = rng.Intn(3)
		}
	}
	return out
}

// TestPooledReplayAllocFree pins the allocation guarantee of pooled
// exploration for every registered workload: once a warm-up has grown
// every reusable buffer and every shared object's storage to its
// largest size, the steady-state replay loop — Script reset, pooled
// System reset, run, verify — performs zero heap allocations per
// schedule. A regression here (an OnReset hook that rebuilds an object,
// a fresh slice or map per run, a new closure on the hot path) is the
// kind of cost that silently erodes explorer throughput. Only clean
// schedules are timed: a violation allocates its error report by
// design.
func TestPooledReplayAllocFree(t *testing.T) {
	for _, name := range artifact.Workloads() {
		meta := poolMeta(t, name)
		t.Run(name, func(t *testing.T) {
			build, err := BuilderFor(meta)
			if err != nil {
				t.Fatal(err)
			}
			r := newRunner(build)
			script := &sched.Script{}
			replay := func(decisions []int) error {
				script.Reset(decisions)
				_, verify, runErr := r.run(script)
				return verify(runErr)
			}
			var clean [][]int
			for _, dec := range decisionVectors(1, 24, 32) {
				if replay(dec) == nil {
					clean = append(clean, dec)
				}
			}
			if !r.pooled {
				t.Fatalf("%s did not produce a reusable system; pooling is off", name)
			}
			if len(clean) < 4 {
				t.Fatalf("only %d of 24 warm-up schedules were clean", len(clean))
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				dec := clean[i%len(clean)]
				i++
				if verr := replay(dec); verr != nil {
					t.Fatalf("replay %v: unexpected violation: %v", dec, verr)
				}
			})
			if allocs != 0 {
				t.Fatalf("pooled replay loop allocates %v objects per schedule; want 0", allocs)
			}
		})
	}
}

// fpScript is a Script that also records the system fingerprint at
// every decision point.
type fpScript struct {
	sched.Script
	fps []uint64
}

func (s *fpScript) Pick(d sim.Decision) int {
	s.fps = append(s.fps, d.Sys.Fingerprint())
	return s.Script.Pick(d)
}

func (s *fpScript) reset(decisions []int) {
	s.Script.Reset(decisions)
	s.fps = s.fps[:0]
}

// runOutcome is what one schedule's run shows to an explorer.
type runOutcome struct {
	steps    int64
	crashed  int
	invStmts [][]int64
	fps      []uint64
	verdict  string
}

func outcomeOf(sys *sim.System, verify Verify, runErr error, ch *fpScript) runOutcome {
	o := runOutcome{steps: sys.Steps(), crashed: sys.CrashedCount(), fps: append([]uint64(nil), ch.fps...)}
	for _, p := range sys.Processes() {
		o.invStmts = append(o.invStmts, append([]int64(nil), p.InvStmts()...))
	}
	if verr := verify(runErr); verr != nil {
		o.verdict = verr.Error()
	}
	return o
}

// TestPooledMatchesFresh shows that resetting shared objects in place
// behaves exactly like rebuilding them. For every registered workload,
// with and without a planned crash, each seeded decision vector is run
// on a fresh build and, after Reset, on a pooled system that has just
// run a longer schedule (so its storage has grown past what the vector
// needs). Both runs must agree on statement count, crash count,
// per-process invocation lengths, the fingerprint at every decision and
// the verdict.
func TestPooledMatchesFresh(t *testing.T) {
	for _, name := range artifact.Workloads() {
		base := poolMeta(t, name)
		t.Run(name, func(t *testing.T) {
			crashed := base
			crashed.Crashes = []sched.CrashPoint{{Proc: 1, Step: 40}}
			for _, meta := range []artifact.Meta{base, crashed} {
				build, err := BuilderFor(meta)
				if err != nil {
					t.Fatal(err)
				}
				pooledCh := &fpScript{}
				pooled, pooledVerify := build(pooledCh)
				if !pooled.Reusable() {
					t.Fatalf("%s did not produce a reusable system", name)
				}
				longer := decisionVectors(2, 6, 96)
				for i, dec := range decisionVectors(3, 6, 24) {
					freshCh := &fpScript{}
					freshCh.reset(dec)
					fresh, freshVerify := build(freshCh)
					want := outcomeOf(fresh, freshVerify, fresh.Run(), freshCh)
					fresh.Close()

					pooledCh.reset(longer[i])
					pooled.Reset()
					pooled.Run()
					pooledCh.reset(dec)
					pooled.Reset()
					got := outcomeOf(pooled, pooledVerify, pooled.Run(), pooledCh)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("crashes %v, decisions %v: pooled run differs from a fresh build\npooled: %+v\nfresh:  %+v",
							meta.Crashes, dec, got, want)
					}
				}
				pooled.Close()
			}
		})
	}
}

// TestWSDequeStress hammers one wsDeque with its owner and several
// thieves and checks every pushed item is consumed exactly once —
// nothing lost, nothing double-taken. Run under `go test -race` (the
// CI race job) this doubles as the memory-safety smoke test for the
// steal path, including ring growth while thieves hold the retired
// ring.
func TestWSDequeStress(t *testing.T) {
	const (
		items   = 50000
		thieves = 4
	)
	d := newWSDeque[int]()
	taken := make([]atomic.Int32, items)
	var consumed atomic.Int64
	consume := func(v *int) {
		if n := taken[*v].Add(1); n != 1 {
			t.Errorf("item %d consumed %d times", *v, n)
		}
		consumed.Add(1)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, retry := d.steal()
				if v != nil {
					consume(v)
					continue
				}
				if !retry {
					select {
					case <-stop:
						// Drain once more after the owner is done so no
						// item is stranded between the emptiness check
						// and the close.
						for {
							v, retry := d.steal()
							if v != nil {
								consume(v)
							} else if !retry {
								return
							}
						}
					default:
					}
				}
			}
		}()
	}
	vals := make([]int, items)
	for i := 0; i < items; i++ {
		vals[i] = i
		d.push(&vals[i])
		// Interleave owner pops so the bottom races the thieves' top.
		if i%3 == 0 {
			if v := d.pop(); v != nil {
				consume(v)
			}
		}
	}
	for {
		v := d.pop()
		if v == nil {
			break
		}
		consume(v)
	}
	close(stop)
	wg.Wait()
	// The owner's final pop loop can observe nil on a lost race while a
	// thief still holds the last item, so only after all goroutines
	// join is the total meaningful.
	if n := consumed.Load(); n != items {
		t.Fatalf("consumed %d of %d items", n, items)
	}
	for i := range taken {
		if taken[i].Load() != 1 {
			t.Fatalf("item %d consumed %d times; want exactly 1", i, taken[i].Load())
		}
	}
}

// TestSleepDeadlockAccounting pins the audited semantics of the
// ReductionStats sleep counters (renamed from the misleading
// sleep_pruned_runs in bench schema v3): on a sleep-set exploration
// that exercises the reduction heavily, all savings are skipped
// branches and no run aborts in sleep deadlock — the granted process
// is never asleep while enabled, and its departure wakes everyone (see
// the SleepDeadlockRuns doc). If a workload change ever makes deadlock
// reachable here, this test fails and the stat's documentation must be
// revisited rather than silently drifting.
func TestSleepDeadlockAccounting(t *testing.T) {
	build, err := BuilderFor(artifact.Meta{Workload: "unicons", N: 2, V: 1, Quantum: 0, MaxSteps: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	res := ExploreAll(build, Options{Parallelism: 1, MaxSchedules: 1 << 22, Reduction: ReductionSleepSet})
	if res.Truncated || res.Interrupted {
		t.Fatalf("exploration did not complete: %+v", res)
	}
	rs := res.Reduction
	if rs == nil {
		t.Fatal("no ReductionStats on a reduced exploration")
	}
	if rs.SleepSkippedBranches == 0 {
		t.Error("sleep-set reduction skipped no branches; the config no longer exercises the reduction")
	}
	if rs.SleepDeadlockRuns != 0 {
		t.Errorf("SleepDeadlockRuns = %d; the documented unreachability argument no longer holds — update the stat docs",
			rs.SleepDeadlockRuns)
	}
}
