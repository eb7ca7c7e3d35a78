package check

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Reduction selects which exploration reductions are active. Both
// reductions preserve verdicts: a reduced exploration that runs to
// completion reports a violation if and only if the plain exploration
// does (see DESIGN.md §10 for the soundness argument). They do not
// preserve violation counts — equivalent interleavings of the same bug
// collapse into one representative — so ViolationsTotal under reduction
// is a lower bound on the plain count.
type Reduction int

const (
	// ReductionNone preserves the historical plain enumeration exactly.
	ReductionNone Reduction = iota
	// ReductionSleepSet enables sleep-set partial-order reduction in
	// ExploreAll: sibling branches whose next statements commute with
	// everything executed since are never spawned. ExploreBudget ignores
	// it (its schedules are identified by switch words, not decision
	// prefixes).
	ReductionSleepSet
	// ReductionFingerprint enables visited-state fingerprint pruning in
	// ExploreAll and ExploreBudget: a run reaching a state a canonically
	// earlier run already covered with at least the same freedom aborts.
	ReductionFingerprint
	// ReductionFull enables both.
	ReductionFull
)

func (r Reduction) sleepSets() bool {
	return r == ReductionSleepSet || r == ReductionFull
}

func (r Reduction) fingerprints() bool {
	return r == ReductionFingerprint || r == ReductionFull
}

// String implements fmt.Stringer (and the flag.Value convention used by
// cmd/checker).
func (r Reduction) String() string {
	switch r {
	case ReductionNone:
		return "none"
	case ReductionSleepSet:
		return "sleepset"
	case ReductionFingerprint:
		return "fingerprint"
	case ReductionFull:
		return "full"
	default:
		return fmt.Sprintf("Reduction(%d)", int(r))
	}
}

// ParseReduction parses the CLI spelling of a Reduction.
func ParseReduction(s string) (Reduction, error) {
	switch s {
	case "none":
		return ReductionNone, nil
	case "sleepset":
		return ReductionSleepSet, nil
	case "fingerprint":
		return ReductionFingerprint, nil
	case "full":
		return ReductionFull, nil
	default:
		return ReductionNone, fmt.Errorf("check: unknown reduction %q (want none, sleepset, fingerprint, or full)", s)
	}
}

// ReductionStats reports what the reductions did during one exploration.
type ReductionStats struct {
	// Mode is the Reduction the exploration ran with.
	Mode string
	// SleepDeadlockRuns counts runs aborted mid-schedule because every
	// enabled candidate was asleep (sched.Reduced.SleepDeadlock): the
	// whole continuation was covered by earlier sibling subtrees. This
	// was misleadingly reported as sleep_pruned_runs before bench
	// schema v3; virtually all sleep-set savings are skipped branches
	// (SleepSkippedBranches), and 0 here is the expected value: a
	// deadlock needs EVERY candidate asleep, but the process granted
	// the preceding statement is never asleep (running a process wakes
	// its own entries, and branches are only spawned to awake
	// candidates), so as long as it stays enabled there is an awake
	// candidate, and when it departs — invocation end, completion,
	// crash — the access is globally dependent and wakes everyone. Only
	// a workload whose running process blocks mid-invocation without a
	// globally-dependent access could trigger it; no registered
	// workload does.
	SleepDeadlockRuns int
	// SleepSkippedBranches counts subtree children never spawned because
	// the branch candidate was asleep at its decision point.
	SleepSkippedBranches int64
	// FingerprintPrunedRuns counts runs aborted on reaching a state a
	// canonically earlier visit already covered.
	FingerprintPrunedRuns int
	// CacheHits counts fingerprint-cache lookups that found an entry
	// (whether or not the entry justified pruning).
	CacheHits int64
	// CacheEntries is the number of cache entries live at the end.
	CacheEntries int
	// CacheEvictions counts FIFO evictions forced by the cache's
	// fpCacheCap entry cap. Evictions only reduce pruning, never
	// soundness.
	CacheEvictions int64
}

// unboundedBudget is the deviation budget reported for ExploreAll
// subtrees, which may deviate at every remaining decision.
const unboundedBudget = math.MaxInt

// fpEntry is one visited-state record: the canonical identity of the
// visit (its taken-decision vector), the sleep set it ran under, and the
// deviation budget it had. A later visit of the same state may be pruned
// only if this visit is strictly more canonical, explored at least as
// freely (superset budget, subset sleep), and is not simply the same
// run's own earlier pass through a default-continuation cycle.
type fpEntry struct {
	key    []int
	sleep  []sched.SleepEntry
	budget int
}

// fpCache is the bounded visited-fingerprint cache shared by all
// workers of one exploration. Eviction is FIFO by insertion order:
// deterministic, and sound because dropping an entry only forgoes
// pruning. With Parallelism > 1 the insert/lookup interleaving across
// workers is timing-dependent, so reduced-mode schedule counts (never
// verdicts) can vary run-to-run; Parallelism: 1 restores byte-identical
// counts.
type fpCache struct {
	mu sync.Mutex
	// noLock elides the mutex on the single-worker path (Parallelism
	// 1), where visit() is on the per-decision hot loop and even an
	// uncontended lock pair is measurable.
	noLock    bool
	capacity  int
	entries   map[uint64]fpEntry
	order     []uint64 // FIFO insertion ring
	head      int
	hits      int64
	evictions int64
	// keyChunk is the current slab for entry key copies: keys are
	// immutable once inserted (the replace path reuses the entry's own
	// slice), so carving them out of shared chunks cuts one heap object
	// per visited state to 1/keyChunkSize amortized. FIFO eviction
	// retires keys in roughly insertion order, so dead keys cluster in
	// the oldest chunks and a chunk is collected once its window of
	// entries has been evicted.
	keyChunk []int
}

const keyChunkSize = 4096

// fpCacheCap caps the visited-fingerprint cache of one exploration, in
// entries. Overflow evicts FIFO, which only forgoes pruning.
const fpCacheCap = 1 << 20

func newFPCache(capacity int) *fpCache {
	// The map is NOT pre-sized to capacity: fpCacheCap is 2^20
	// entries, and clearing that many empty buckets up front costs more
	// than entire small explorations (it was 75% of reduced-mode CPU on
	// the bench workload). capacity only bounds eviction; the map grows
	// to fit actual use.
	hint := capacity / 4
	if hint > 1024 {
		hint = 1024
	}
	return &fpCache{
		capacity: capacity,
		entries:  make(map[uint64]fpEntry, hint),
	}
}

// putKey copies key into the current chunk, returning a stable
// full-capacity subslice.
func (c *fpCache) putKey(key []int) []int {
	if len(c.keyChunk)+len(key) > cap(c.keyChunk) {
		n := keyChunkSize
		if len(key) > n {
			n = len(key)
		}
		c.keyChunk = make([]int, 0, n)
	}
	ks := len(c.keyChunk)
	c.keyChunk = append(c.keyChunk, key...)
	return c.keyChunk[ks:len(c.keyChunk):len(c.keyChunk)]
}

// compareKey orders taken-decision vectors lexicographically with a
// proper prefix before its extensions — a well-founded total order on
// visits, which the pruning induction needs.
func compareKey(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// isPrefix reports whether a is a proper prefix of b.
func isPrefix(a, b []int) bool {
	if len(a) >= len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sleepSubset reports whether every entry of a is present in b.
func sleepSubset(a, b []sched.SleepEntry) bool {
	for _, e := range a {
		found := false
		for _, f := range b {
			if e == f {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// visit records or consults the cache for state fingerprint fp reached
// by the run identified by taken, and reports whether the run may be
// pruned here. taken and sleep are only valid during the call (they are
// copied on insert).
//
// The rules, each load-bearing for soundness:
//
//   - miss: insert, never prune — the current run claims the state.
//   - hit with an entry whose key is a proper prefix of taken: the
//     run's own earlier pass (a default-continuation cycle); pruning
//     would cut deviations past this point that nobody else generates,
//     so the run continues (and, like the plain explorer, terminates
//     via MaxSteps if the cycle is real).
//   - hit with a strictly smaller key: the earlier visitor's subtree
//     covers ours if its budget was at least ours and its sleep set at
//     most ours; then prune. Induction over the well-founded key order
//     bottoms out at the minimal visitor, which is never pruned.
//   - hit with a strictly larger key: the current run is the more
//     canonical visitor; it replaces the entry and continues.
func (c *fpCache) visit(fp uint64, taken []int, sleep []sched.SleepEntry, budget int) bool {
	if !c.noLock {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	e, ok := c.entries[fp]
	if !ok {
		c.insert(fp, taken, sleep, budget)
		return false
	}
	c.hits++
	switch cmp := compareKey(e.key, taken); {
	case cmp == 0:
		return false
	case cmp < 0:
		if isPrefix(e.key, taken) {
			return false
		}
		return e.budget >= budget && sleepSubset(e.sleep, sleep)
	default:
		// The current run is the more canonical visitor: replace the
		// entry in place, reusing its slices (they belong to this entry
		// alone, so truncate-and-append cannot alias another visitor).
		e.key = append(e.key[:0], taken...)
		e.sleep = append(e.sleep[:0], sleep...)
		e.budget = budget
		c.entries[fp] = e
		return false
	}
}

func (c *fpCache) insert(fp uint64, taken []int, sleep []sched.SleepEntry, budget int) {
	if len(c.entries) >= c.capacity {
		victim := c.order[c.head]
		c.order[c.head] = fp
		c.head = (c.head + 1) % len(c.order)
		delete(c.entries, victim)
		c.evictions++
	} else {
		c.order = append(c.order, fp)
	}
	var sleepCopy []sched.SleepEntry
	if len(sleep) > 0 {
		sleepCopy = append(sleepCopy, sleep...)
	}
	c.entries[fp] = fpEntry{
		key:    c.putKey(taken),
		sleep:  sleepCopy,
		budget: budget,
	}
}

// shed empties the cache under memory pressure (the collector's
// degradation ladder). Sound for the same reason FIFO eviction is:
// dropping entries only forgoes pruning, so later runs re-execute work
// instead of being cut off — verdicts are unaffected. The noLock fast
// path is safe here too: at Parallelism 1 shed runs on the single
// exploring goroutine, between runs.
func (c *fpCache) shed() {
	if !c.noLock {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	c.entries = make(map[uint64]fpEntry, 64)
	c.order = nil
	c.head = 0
	c.keyChunk = nil
}

func (c *fpCache) stats() (hits, evictions int64, entries int) {
	if !c.noLock {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return c.hits, c.evictions, len(c.entries)
}

// pruneFunc adapts the cache to the chooser-side sched.PruneFunc
// contract: the state key folds the chooser's private steering state
// (PruneInfo.Extra) into the system fingerprint, since two states equal
// in the system but steered differently have different futures.
func (c *fpCache) pruneFunc() sched.PruneFunc {
	return func(info sched.PruneInfo) bool {
		fp := mem.Mix(info.Decision.Sys.Fingerprint(), info.Extra)
		return c.visit(fp, info.Taken, info.Sleep, info.Budget)
	}
}

// redItem identifies one ExploreAll subtree: the decision prefix (the
// schedule at its root is prefix followed by default decisions) and the
// sleep set in effect immediately after its branch decision (always
// empty without sleep sets).
type redItem struct {
	prefix []int
	sleep  []sched.SleepEntry
}

// redHooks drives ExploreAll with the footprint-aware Reduced chooser,
// whose snapshot arenas are reused across every schedule the worker
// executes. The schedule tree is partitioned into decision-prefix
// subtrees: an item's children are every single-point deviation at or
// after len(prefix), which together with the root run cover the
// subtree exactly once. Reductions only remove work: asleep branches
// are never spawned, all-asleep and revisited-state runs abort early,
// and an aborted run still seeds its children for the decisions it
// completed.
type redHooks struct {
	c  *collector
	ch sched.Reduced
}

func (h *redHooks) reset(item *redItem) sim.Chooser {
	h.ch.Reset(item.prefix, item.sleep)
	return &h.ch
}

func (h *redHooks) aliased(item *redItem) bool {
	return h.ch.Clamped || len(h.ch.Fanouts) < len(item.prefix)
}

func (h *redHooks) key(item *redItem) schedKey { return prefixKey(item.prefix) }

func (h *redHooks) describe(item *redItem) string {
	return fmt.Sprintf("decisions=%v", item.prefix)
}

func (h *redHooks) taken(*redItem) []int { return h.ch.Taken }

func (h *redHooks) pruned() *atomic.Int64 {
	switch {
	case h.ch.Pruned:
		return &h.c.redFPPruned
	case h.ch.SleepDeadlock:
		return &h.c.redSleepPruned
	}
	return nil
}

func (h *redHooks) children(item *redItem, push func(*redItem)) {
	ch := &h.ch
	base := len(item.prefix)
	// Children are slab-allocated: one counting pass sizes three exact
	// backing arrays (items, prefixes, sleep sets) and tallies the asleep
	// branches it never spawns, then the fill pass
	// carves three-index subslices out of them. Exact capacities mean
	// the fill appends never reallocate, so &items[k] pointers and slab
	// subslices stay stable, and a schedule's whole frontier costs three
	// heap objects instead of three per child.
	children, prefixInts, sleepEnts, asleep := 0, 0, 0, int64(0)
	for i := base; i < len(ch.Taken); i++ {
		snap := ch.Snaps[i-base]
		for j := range snap.Cands {
			if j == snap.Taken {
				continue
			}
			if snap.Cands[j].Asleep {
				asleep++
				continue
			}
			children++
			prefixInts += i + 1
			if ch.SleepSets {
				sleepEnts += len(snap.Sleep)
				for m := 0; m < j; m++ {
					if cm := snap.Cands[m]; !cm.Asleep && cm.FpKnown {
						sleepEnts++
					}
				}
			}
		}
	}
	if asleep > 0 {
		h.c.redSleepSkipped.Add(asleep)
	}
	if children == 0 {
		return
	}
	items := make([]redItem, 0, children)
	prefixSlab := make([]int, 0, prefixInts)
	sleepSlab := make([]sched.SleepEntry, 0, sleepEnts)
	for i := base; i < len(ch.Taken); i++ {
		snap := ch.Snaps[i-base]
		for j := len(snap.Cands) - 1; j >= 0; j-- {
			if j == snap.Taken || snap.Cands[j].Asleep {
				continue
			}
			ps := len(prefixSlab)
			prefixSlab = append(prefixSlab, ch.Taken[:i]...)
			prefixSlab = append(prefixSlab, j)
			var childSleep []sched.SleepEntry
			if ch.SleepSets {
				// The child wakes after its earlier siblings: it inherits
				// this decision's live sleep set plus every awake sibling
				// explored before it (the taken branch and awake branches
				// at smaller indices), so their orderings are never
				// re-derived. Siblings with unknown footprints (arrivals)
				// cannot be represented and are simply not slept on. The
				// copy detaches the child from the chooser's snapshot
				// arena, which the next Reset reuses.
				ss := len(sleepSlab)
				sleepSlab = append(sleepSlab, snap.Sleep...)
				for m := 0; m < j; m++ {
					cm := snap.Cands[m]
					if !cm.Asleep && cm.FpKnown {
						sleepSlab = append(sleepSlab, sched.SleepEntry{Proc: cm.Proc, Processor: cm.Processor, Fp: cm.Fp})
					}
				}
				childSleep = sleepSlab[ss:len(sleepSlab):len(sleepSlab)]
			}
			items = append(items, redItem{
				prefix: prefixSlab[ps:len(prefixSlab):len(prefixSlab)],
				sleep:  childSleep,
			})
			push(&items[len(items)-1])
		}
	}
}
