package check

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
)

// schedKey canonically orders schedules: lexicographic over the
// elements, with a proper prefix ordered before its extensions. For
// ExploreAll the key is the decision-vector prefix (work prefixes end
// in a non-zero digit, so this matches zero-padded vector order); for
// ExploreBudget it is the flattened (index, choice) switch word; for
// Fuzz it is the seed.
type schedKey []int64

func keyLess(a, b schedKey) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// prefixKey is the schedule key of an ExploreAll decision-vector prefix.
func prefixKey(prefix []int) schedKey {
	key := make(schedKey, len(prefix))
	for i, d := range prefix {
		key[i] = int64(d)
	}
	return key
}

// switchKey is the schedule key of an ExploreBudget switch word.
func switchKey(switches []switchPoint) schedKey {
	key := make(schedKey, 0, 2*len(switches))
	for _, sw := range switches {
		key = append(key, sw.d, int64(sw.choice))
	}
	return key
}

type keyedViolation struct {
	key schedKey
	v   Violation
}

// collector aggregates run outcomes across workers: it enforces
// MaxSchedules via atomic slot claims, merges violations in canonical
// schedule order, drives cooperative cancellation for StopAtFirst, and
// emits Progress snapshots.
type collector struct {
	opts        Options
	ctx         context.Context
	maxSched    int64
	maxViol     int
	claimed     atomic.Int64 // schedule slots claimed (bounded by maxSched)
	counted     atomic.Int64 // schedules executed and counted
	violTotal   atomic.Int64
	aliased     atomic.Int64
	stepLimited atomic.Int64
	steals      atomic.Int64 // work items taken from another worker's deque

	// Reduction tallies (zero when Options.Reduction is ReductionNone).
	redSleepPruned  atomic.Int64
	redFPPruned     atomic.Int64
	redSleepSkipped atomic.Int64
	timedOut        atomic.Int64 // runs skipped by the RunDeadline watchdog
	truncated       atomic.Bool
	interrupted     atomic.Bool
	stop            atomic.Bool

	// Degradation-ladder state (Options.MemSoftLimit); see frontier.go.
	memSoft      uint64
	allowed      atomic.Int32 // workers allowed to claim new work
	cache        *fpCache     // sheddable fingerprint cache, may be nil
	cacheShed    bool         // under mu
	degradeFloor bool         // under mu
	degradations []string     // under mu

	mu      sync.Mutex
	viols   []keyedViolation // sorted by key, capped at maxViol
	fronts  []keyedFrontier  // exported frontier items (ExportFrontier)
	measure *measureAcc      // merged measurement histogram (Options.Measure)

	start     time.Time
	progEvery int64
}

func newCollector(opts Options) *collector {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	c := &collector{
		opts:     opts,
		ctx:      ctx,
		maxSched: int64(opts.maxSchedules()),
		maxViol:  opts.maxViolations(),
		memSoft:  opts.MemSoftLimit,
		//repro:allow walltime start feeds only Result.Elapsed and progress reporting, never replayed output
		start:     time.Now(),
		progEvery: opts.progressEvery(),
	}
	c.allowed.Store(int32(opts.parallelism()))
	return c
}

// stopped reports whether the exploration should stop claiming work,
// polling Options.Context for cancellation.
func (c *collector) stopped() bool {
	if c.stop.Load() {
		return true
	}
	if c.ctx.Err() != nil {
		c.interrupted.Store(true)
		c.stop.Store(true)
		return true
	}
	return false
}

// claim reserves one schedule slot; on failure the exploration is
// truncated and cancelled.
func (c *collector) claim() bool {
	if c.stopped() {
		return false
	}
	if c.claimed.Add(1) > c.maxSched {
		c.claimed.Add(-1)
		c.truncated.Store(true)
		c.stop.Store(true)
		return false
	}
	return true
}

// unclaim releases a slot whose run turned out to be a clamped alias of
// another schedule.
func (c *collector) unclaim() {
	c.claimed.Add(-1)
	c.aliased.Add(1)
}

// release frees a slot claimed by a run a reduction pruned: a covered
// partial replay is neither a schedule nor an alias, so it never counts
// against MaxSchedules.
func (c *collector) release() {
	c.claimed.Add(-1)
}

// reductionStats assembles the ReductionStats for a finished reduced
// exploration (c.cache is nil without fingerprint pruning).
func (c *collector) reductionStats(mode Reduction) *ReductionStats {
	rs := &ReductionStats{
		Mode:                  mode.String(),
		SleepDeadlockRuns:     int(c.redSleepPruned.Load()),
		SleepSkippedBranches:  c.redSleepSkipped.Load(),
		FingerprintPrunedRuns: int(c.redFPPruned.Load()),
	}
	if c.cache != nil {
		rs.CacheHits, rs.CacheEvictions, rs.CacheEntries = c.cache.stats()
	}
	return rs
}

// count records one executed schedule, polls memory pressure, and
// emits progress when due.
func (c *collector) count() {
	n := c.counted.Add(1)
	if n%c.progEvery == 0 {
		c.memPressure()
	}
	if c.opts.Progress != nil && n%c.progEvery == 0 {
		//repro:allow walltime elapsed feeds only ProgressInfo/Result.Elapsed diagnostics, never replayed output
		elapsed := time.Since(c.start)
		info := ProgressInfo{Schedules: n, Violations: c.violTotal.Load(), Elapsed: elapsed}
		if s := elapsed.Seconds(); s > 0 {
			info.SchedulesPerSec = float64(n) / s
		}
		c.mu.Lock()
		c.opts.Progress(info)
		c.mu.Unlock()
	}
}

// violation merges one violation into the canonically ordered, capped
// list and triggers StopAtFirst cancellation. decisions, if non-nil, is
// the run's canonical decision vector (ownership passes to the
// collector).
func (c *collector) violation(key schedKey, schedule string, err error, decisions []int) {
	c.violTotal.Add(1)
	c.mu.Lock()
	i := sort.Search(len(c.viols), func(i int) bool { return keyLess(key, c.viols[i].key) })
	if i < c.maxViol {
		c.viols = append(c.viols, keyedViolation{})
		copy(c.viols[i+1:], c.viols[i:])
		c.viols[i] = keyedViolation{key: key, v: Violation{Schedule: schedule, Err: err, Decisions: decisions}}
		if len(c.viols) > c.maxViol {
			c.viols = c.viols[:c.maxViol]
		}
	}
	c.mu.Unlock()
	if c.opts.StopAtFirst {
		c.stop.Store(true)
	}
}

// canonDecisions copies a taken decision vector into canonical script
// form: trailing zeros are trimmed, since past the script's end a replay
// picks candidate 0 anyway. The result is never nil — an all-zeros run
// canonicalizes to the empty (but present) vector, distinguishing it
// from a run whose decisions could not be captured.
func canonDecisions(taken []int) []int {
	n := len(taken)
	for n > 0 && taken[n-1] == 0 {
		n--
	}
	out := make([]int, n)
	copy(out, taken[:n])
	return out
}

// outcome runs the builder's verifier and the collector-level property
// checks over one completed run, merging everything into a single
// violation error (nil for a clean run). Step-limit aborts are tallied
// in Result.StepLimited and suppressed as violations when the verifier
// merely echoes them; a verifier error distinct from the abort — or a
// WaitFreeBound hit on the aborted run — still counts.
func (c *collector) outcome(sys *sim.System, verify Verify, runErr error) error {
	limited := errors.Is(runErr, sim.ErrStepLimit)
	if limited {
		c.stepLimited.Add(1)
	}
	verr := verify(runErr)
	if verr != nil && limited && errors.Is(verr, sim.ErrStepLimit) {
		verr = nil
	}
	return errors.Join(verr, c.waitFree(sys))
}

// waitFree enforces Options.WaitFreeBound on one completed run: every
// live (non-crashed) process must have executed at most the bound of
// its own statements within any single invocation, finished or not.
func (c *collector) waitFree(sys *sim.System) error {
	b := c.opts.WaitFreeBound
	if b <= 0 {
		return nil
	}
	for _, p := range sys.Processes() {
		if p.Crashed() {
			continue
		}
		if n := p.WorstInvStmts(); n > b {
			return fmt.Errorf("check: wait-freedom violated: %s executed %d of its own statements in one invocation (bound %d)",
				p.Name(), n, b)
		}
	}
	return nil
}

// protectedRun invokes f, converting a panic anywhere in the builder,
// the run, or the verifier into a violation error so one bad schedule
// cannot kill the whole exploration. describe names the run for the
// error text; it is invoked only on panic, which keeps schedule-string
// formatting off the hot path.
func protectedRun(describe func() string, f func() error) (verr error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			verr = fmt.Errorf("check: panic on schedule %s: %v\n%s", describe(), r, debug.Stack())
		}
	}()
	return f(), false
}

func (c *collector) result() *Result {
	res := &Result{
		Schedules:       int(c.counted.Load()),
		ViolationsTotal: int(c.violTotal.Load()),
		Truncated:       c.truncated.Load(),
		Aliased:         int(c.aliased.Load()),
		StepLimited:     int(c.stepLimited.Load()),
		Steals:          c.steals.Load(),
		Interrupted:     c.interrupted.Load(),
		TimedOutRuns:    int(c.timedOut.Load()),
	}
	c.mu.Lock()
	res.Degradations = c.degradations
	if c.opts.Measure {
		m := c.measure
		if m == nil {
			m = newMeasureAcc() // measured exploration with zero runs
		}
		res.Progress = m.stats()
	}
	c.mu.Unlock()
	viols := c.viols
	if c.opts.StopAtFirst && len(viols) > 1 {
		viols = viols[:1]
	}
	for _, kv := range viols {
		res.Violations = append(res.Violations, kv.v)
	}
	c.forensics(res)
	return res
}

// chooserSlot lets a pooled system swap per-schedule choosers without
// rebuilding: the probe build wires the system's Config.Chooser to the
// slot (possibly wrapped, e.g. by a crash injector), and the worker
// points the slot at each schedule's chooser before each rerun. The
// slot implements sim.Crasher by delegation and reports via
// CrashesArmed whether the inner chooser can actually inject faults, so
// the kernel skips the per-step Crashes call for ordinary choosers.
type chooserSlot struct {
	ch      sim.Chooser
	crasher sim.Crasher
}

func (s *chooserSlot) set(ch sim.Chooser) {
	s.ch = ch
	s.crasher, _ = ch.(sim.Crasher)
}

// Pick implements sim.Chooser.
func (s *chooserSlot) Pick(d sim.Decision) int { return s.ch.Pick(d) }

// Crashes implements sim.Crasher.
func (s *chooserSlot) Crashes(d sim.Decision) []*sim.Process {
	if s.crasher == nil {
		return nil
	}
	return s.crasher.Crashes(d)
}

// CrashesArmed reports whether the current inner chooser can inject
// faults (see sim.Config.Chooser's crash-arming protocol).
func (s *chooserSlot) CrashesArmed() bool {
	if s.crasher == nil {
		return false
	}
	if ca, ok := s.crasher.(interface{ CrashesArmed() bool }); ok {
		return ca.CrashesArmed()
	}
	return true
}

// runner executes one schedule after another for a single worker,
// pooling the built system across replays when the builder constructs
// a reusable one (a system with sim.System.OnReset hooks registered —
// every registered artifact workload). The first run probes: the
// system is built once around a chooserSlot; if it reports Reusable,
// every later run swaps the slot to that schedule's chooser and Resets
// the system instead of rebuilding. Every registered workload's hook
// resets its shared objects in place — keeping their grown storage,
// restoring initial values outside any Ctx so the incremental memory
// fingerprint restarts at 0 with System.Reset, keeping names and ids,
// and using no sync.Pool — so once a warm-up has grown every chain, a
// pooled run allocates nothing (TestPooledReplayAllocFree) and behaves
// exactly like a fresh build (TestPooledMatchesFresh). Builders that
// register no reset hooks keep the historical build-per-run behaviour
// — and its build-count semantics, on which alias detection for
// non-reentrant builders relies. Every system a runner builds is
// closed: a fresh one as soon as attempt has judged its run (a run
// that stopped early leaves its process coroutines parked), the pooled
// one by close when the worker exits.
type runner struct {
	build  Builder
	slot   chooserSlot
	sys    *sim.System // the pooled system
	fresh  *sim.System // the last build-per-run system, until attempt closes it
	verify Verify
	probed bool
	pooled bool
}

func newRunner(build Builder) *runner { return &runner{build: build} }

// run executes one schedule under ch on the pooled or a fresh system.
func (r *runner) run(ch sim.Chooser) (*sim.System, Verify, error) {
	if r.pooled {
		r.slot.set(ch)
		r.sys.Reset()
		return r.sys, r.verify, r.sys.Run()
	}
	var sys *sim.System
	var verify Verify
	if !r.probed {
		r.probed = true
		r.slot.set(ch)
		sys, verify = r.build(&r.slot)
		if sys.Reusable() {
			r.pooled, r.sys, r.verify = true, sys, verify
			return sys, verify, sys.Run()
		}
	} else {
		sys, verify = r.build(ch)
	}
	r.fresh = sys
	return sys, verify, sys.Run()
}

// close discards the pooled system: after a panic left it in an
// unknown state (the next run re-probes from a fresh build), and when
// the worker exits.
func (r *runner) close() {
	if r.sys != nil {
		r.sys.Close()
	}
	r.probed, r.pooled, r.sys, r.verify = false, false, nil, nil
}

// attempt executes one schedule under the per-run protocol's retry
// rule, shared by every explorer. reset rewinds the schedule's chooser
// for each try, and the run goes through the watchdog; a run that times
// out is retried once from scratch. judge sees each run that finished
// within its deadline and returns its violation (nil for a clean run).
// A panic in the builder, the run or judge becomes the violation and
// discards the pooled system. timedOut reports a schedule that timed
// out on both tries.
func (r *runner) attempt(dog *watchdog, reset func() sim.Chooser, judge func(*sim.System, Verify, error) error,
	describe func() string) (verr error, panicked, timedOut bool) {
	for try := 0; ; try++ {
		ch := dog.arm(reset())
		verr, panicked = protectedRun(describe, func() error {
			sys, verify, runErr := r.run(ch)
			if dog.fired() {
				return nil // timed out; handled below
			}
			return judge(sys, verify, runErr)
		})
		if r.fresh != nil {
			r.fresh.Close()
			r.fresh = nil
		}
		if panicked {
			r.close()
			return verr, true, false
		}
		if !dog.fired() {
			return verr, false, false
		}
		if try > 0 {
			return nil, false, true
		}
	}
}

// treeHooks is what a tree explorer supplies to the shared treeWorker:
// the parts of one schedule's run that depend on the explorer's work
// item and chooser. The worker owns the per-run protocol; each hooks
// value owns one worker's chooser.
type treeHooks[T any] interface {
	// reset rewinds the chooser to replay item's schedule.
	reset(item *T) sim.Chooser
	// aliased reports whether the last run replayed a schedule other
	// than item's: a scripted decision was clamped or never reached,
	// which only a builder that is not a deterministic function of the
	// decision sequence can cause.
	aliased(item *T) bool
	// key and describe name item's schedule: its canonical merge key
	// and its replayable Violation.Schedule text.
	key(item *T) schedKey
	describe(item *T) string
	// taken is the decision vector of the last run.
	taken(item *T) []int
	// pruned returns the collector tally of the reduction that cut the
	// last run short, or nil when the run completed.
	pruned() *atomic.Int64
	// children pushes the subtrees below item left uncovered by the
	// last run, in descending canonical order: pops come LIFO off the
	// bottom of the frontier, so the lexicographically smallest subtree
	// is popped first and a single worker reproduces the sequential
	// enumeration order exactly.
	children(item *T, push func(*T))
}

// treeWorker is one tree-explorer worker: the system runner, the
// watchdog and the explorer's hooks, all reused across every schedule
// the worker executes.
type treeWorker[T any] struct {
	c      *collector
	r      *runner
	dog    *watchdog
	export func(*T)
	h      treeHooks[T]
}

// process executes the schedule at the root of item's subtree and
// pushes the subtree's children. The per-run protocol: claim a
// MaxSchedules slot (or export the item), run it under attempt, then
// count a timed-out run, unclaim an aliased one, record a violation,
// release and tally a pruned run or count a complete one, and descend.
func (w *treeWorker[T]) process(item *T, push func(*T)) {
	c, h := w.c, w.h
	if !c.claim() {
		// The subtree was never entered; with ExportFrontier it moves to
		// the frontier instead of being dropped.
		if w.export != nil {
			w.export(item)
		}
		return
	}
	describe := func() string { return h.describe(item) }
	verr, panicked, timedOut := w.r.attempt(w.dog,
		func() sim.Chooser { return h.reset(item) },
		func(sys *sim.System, verify Verify, runErr error) error {
			if errors.Is(runErr, sim.ErrPickAbort) || h.aliased(item) {
				return nil // pruned or aliased: not an outcome (see below)
			}
			return c.outcome(sys, verify, runErr)
		}, describe)
	if timedOut {
		// Skip the schedule (and its subtree) rather than hang; the run
		// still occupies its MaxSchedules slot.
		c.timedOut.Add(1)
		c.count()
		return
	}
	if !panicked && h.aliased(item) {
		// Skip an aliased replay rather than double-count it, and do not
		// descend into the aliased subtree. A pruned run cannot look
		// aliased: pruning fires only past the scripted decisions.
		c.unclaim()
		return
	}
	if verr != nil {
		var dec []int
		if !panicked {
			dec = canonDecisions(h.taken(item))
		}
		c.violation(h.key(item), describe(), verr, dec)
	}
	if tally := h.pruned(); tally != nil && !panicked {
		// A pruned run is a covered partial replay, not a schedule: free
		// its MaxSchedules slot, tally it, and still descend into the
		// children of the decisions it did complete.
		c.release()
		tally.Add(1)
	} else {
		c.count()
	}
	// After a panic the chooser's record is unreliable, so the subtree
	// below this schedule is not descended into; the violation records
	// the abandoned schedule. When exporting a frontier, a stop must not
	// drop this run's children: they are pushed anyway, and the
	// worker's drain pass moves them to the frontier.
	if panicked || (c.stopped() && w.export == nil) {
		return
	}
	h.children(item, push)
}

// exploreTree runs one tree exploration from roots (the root subtree,
// or a seeded frontier's subtrees) over opts.Parallelism treeWorkers,
// each with its own hooks from newHooks. It validates SeedFrontier
// against explorer, sets up the fingerprint cache for
// Options.Reduction, exports unexplored items through exportItem under
// Options.ExportFrontier, and assembles the Result. Reduced
// explorations neither seed nor export a frontier: they prune against
// cross-run state (sleep sets, the fingerprint cache) that a frontier
// cannot carry.
func exploreTree[T any](build Builder, opts Options, explorer string, budget int, roots []*T,
	exportItem func(*collector, *T), newHooks func(*collector) treeHooks[T]) *Result {
	checkSeed(opts, explorer)
	c := newCollector(opts)
	if opts.Reduction.fingerprints() {
		c.cache = newFPCache(fpCacheCap)
		c.cache.noLock = opts.parallelism() == 1
	}
	var export func(*T)
	if opts.ExportFrontier && opts.Reduction == ReductionNone {
		export = func(item *T) { exportItem(c, item) }
	}
	explore(c, roots, opts.parallelism(), export, func() (func(*T, func(*T)), func()) {
		w := &treeWorker[T]{c: c, r: newRunner(build), dog: newWatchdog(opts), export: export, h: newHooks(c)}
		return w.process, w.r.close
	})
	res := c.result()
	if opts.Reduction != ReductionNone {
		res.Reduction = c.reductionStats(opts.Reduction)
	}
	if export != nil {
		if f := c.frontierResult(explorer, budget); !f.Empty() {
			res.Frontier = f
		}
	}
	return res
}

// prefixItem identifies one plain-ExploreAll subtree: the schedule at
// its root is prefix followed by implicit zeros.
type prefixItem struct {
	prefix []int
}

// ExploreAll exhaustively enumerates the full schedule tree (every
// choice at every decision point) up to opts.MaxSchedules schedules,
// fanning disjoint decision-vector subtrees out over
// opts.Parallelism workers.
func ExploreAll(build Builder, opts Options) *Result {
	if opts.Reduction != ReductionNone {
		return exploreTree(build, opts, "all", 0, []*redItem{{}}, nil, func(c *collector) treeHooks[redItem] {
			h := &redHooks{c: c, ch: sched.Reduced{SleepSets: opts.Reduction.sleepSets(), Budget: unboundedBudget}}
			if c.cache != nil {
				h.ch.Prune = c.cache.pruneFunc()
			}
			return h
		})
	}
	return exploreTree(build, opts, "all", 0, seedItemsAll(opts.SeedFrontier), (*collector).exportAll,
		func(*collector) treeHooks[prefixItem] { return &allHooks{} })
}

// allHooks drives plain ExploreAll with a replay Script: no snapshot
// arena, no sleep sets, no cache. The schedule at the root of an item
// is its prefix followed by implicit zeros, and its children are every
// single-point deviation at or after len(prefix). Together with the
// root run those exactly cover the subtree, so each schedule is
// executed once.
type allHooks struct {
	script sched.Script
}

func (h *allHooks) reset(item *prefixItem) sim.Chooser {
	h.script.Reset(item.prefix)
	return &h.script
}

func (h *allHooks) aliased(item *prefixItem) bool {
	return h.script.Clamped || len(h.script.Fanouts) < len(item.prefix)
}

func (h *allHooks) key(item *prefixItem) schedKey { return prefixKey(item.prefix) }

func (h *allHooks) describe(item *prefixItem) string {
	return fmt.Sprintf("decisions=%v", item.prefix)
}

// taken is the prefix itself: an unaliased run replays it exactly and
// then picks candidate 0, which canonDecisions trims.
func (h *allHooks) taken(item *prefixItem) []int { return item.prefix }

func (h *allHooks) pruned() *atomic.Int64 { return nil }

// children are slab-allocated — exact capacities sized by a counting
// pass, so the fill never reallocates, item pointers and prefix
// subslices stay stable, and the whole frontier of one schedule costs
// two heap objects. A child's prefix is item's prefix, zeros up to the
// deviation point (the slab is freshly zeroed memory), then the
// deviating choice; the three-index subslicing keeps it detached from
// its neighbors' (appends force a copy).
func (h *allHooks) children(item *prefixItem, push func(*prefixItem)) {
	prefix, fanouts := item.prefix, h.script.Fanouts
	children, prefixInts := 0, 0
	for i := len(prefix); i < len(fanouts); i++ {
		if n := fanouts[i] - 1; n > 0 {
			children += n
			prefixInts += n * (i + 1)
		}
	}
	if children == 0 {
		return
	}
	items := make([]prefixItem, 0, children)
	prefixSlab := make([]int, 0, prefixInts)
	for i := len(prefix); i < len(fanouts); i++ {
		for choice := fanouts[i] - 1; choice >= 1; choice-- {
			ps := len(prefixSlab)
			prefixSlab = prefixSlab[:ps+i+1]
			copy(prefixSlab[ps:], prefix)
			prefixSlab[ps+i] = choice
			items = append(items, prefixItem{prefix: prefixSlab[ps:len(prefixSlab):len(prefixSlab)]})
			push(&items[len(items)-1])
		}
	}
}

// switchPoint is one directed deviation of an ExploreBudget schedule.
type switchPoint struct {
	d      int64
	choice int
}

// budgetItem identifies one ExploreBudget subtree: the deviations
// applied so far (sorted by decision index), the remaining deviation
// budget, and the first decision index at which further deviations may
// be placed (keeping every ≤budget-deviation schedule covered exactly
// once).
type budgetItem struct {
	switches []switchPoint
	budget   int
	minIndex int64
}

// ExploreBudget exhaustively enumerates schedules that deviate from the
// default continue-current-process schedule in at most budget decision
// points, fanning disjoint deviation subtrees out over
// opts.Parallelism workers. Deviation points are discovered lazily and
// placed in increasing order, so every ≤budget-deviation schedule is
// covered exactly once.
func ExploreBudget(build Builder, budget int, opts Options) *Result {
	return exploreTree(build, opts, "budget", budget, seedItemsBudget(opts.SeedFrontier, budget), (*collector).exportBudget,
		func(c *collector) treeHooks[budgetItem] {
			h := &budgetHooks{c: c}
			if c.cache != nil {
				// The chooser consults the cache only past the last directed
				// switch, where the run is a pure default continuation from a
				// state the fingerprint fully identifies (plus the chooser's
				// current-process steering, folded in via PruneInfo.Extra).
				h.ch.Prune = c.cache.pruneFunc()
			}
			return h
		})
}

// budgetHooks drives ExploreBudget with a BudgetedSwitch chooser.
type budgetHooks struct {
	c  *collector
	ch sched.BudgetedSwitch
}

func (h *budgetHooks) reset(item *budgetItem) sim.Chooser {
	h.ch.Reset(item.budget)
	for _, sw := range item.switches {
		h.ch.SwitchAt[sw.d] = sw.choice
	}
	return &h.ch
}

// aliased: a clamped switch, or a last switch the run never reached.
func (h *budgetHooks) aliased(item *budgetItem) bool {
	return h.ch.Clamped || (len(item.switches) > 0 && item.switches[len(item.switches)-1].d >= h.ch.Decision)
}

func (h *budgetHooks) key(item *budgetItem) schedKey { return switchKey(item.switches) }

func (h *budgetHooks) describe(*budgetItem) string {
	return fmt.Sprintf("switches=%v", h.ch.SwitchAt)
}

func (h *budgetHooks) taken(*budgetItem) []int { return h.ch.Taken }

func (h *budgetHooks) pruned() *atomic.Int64 {
	if h.ch.Pruned {
		return &h.c.redFPPruned
	}
	return nil
}

// children places one more deviation at every decision at or after
// item.minIndex with a recorded choice — for a pruned run that excludes
// the abort decision, whose deviations the cached visitor covers.
func (h *budgetHooks) children(item *budgetItem, push func(*budgetItem)) {
	if item.budget == 0 {
		return
	}
	taken := h.ch.Taken
	for d := int64(len(taken)) - 1; d >= item.minIndex; d-- {
		for choice := h.ch.Fanouts[d] - 1; choice >= 0; choice-- {
			if choice == taken[d] {
				continue
			}
			push(&budgetItem{
				switches: append(item.switches[:len(item.switches):len(item.switches)], switchPoint{d: d, choice: choice}),
				budget:   item.budget - 1,
				minIndex: d + 1,
			})
		}
	}
}

// Fuzz runs nSeeds seeded pseudo-random schedules, sharding the seed
// range over opts.Parallelism workers. Options.SchedModel swaps the
// schedule source for a registered scheduler model; Options.Measure
// additionally accumulates the empirical progress-bound report into
// Result.Progress.
func Fuzz(build Builder, nSeeds int, opts Options) *Result {
	if opts.SchedModel != nil {
		if err := opts.SchedModel.Validate(); err != nil {
			panic(err) // builder misuse: specs from user input are validated upstream
		}
	}
	c := newCollector(opts)
	n := int64(nSeeds)
	if n > c.maxSched {
		n = c.maxSched
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < opts.parallelism(); w++ {
		wg.Add(1)
		//repro:allow goroutine sanctioned fuzz worker pool; seeds partition by atomic counter and results merge in canonical seed order
		go func() {
			defer wg.Done()
			r := newRunner(build)
			defer r.close()
			dog := newWatchdog(opts)
			var rec *sched.Record
			if c.opts.needDecisions() {
				rec = sched.NewRecord(nil)
			}
			var acc *measureAcc
			if c.opts.Measure {
				acc = newMeasureAcc()
				defer func() { c.mergeMeasure(acc) }()
			}
			// Schedule source: one Reseedable chooser reseeded in place
			// per run — a Random on the raw seed when no model is set, a
			// single-node model on its derived run seed — or a full
			// per-run rebuild for wrapper and non-reseedable specs.
			spec := opts.SchedModel
			var fast sched.Reseedable
			runSeed := func(seed int64) int64 { return seed }
			if spec == nil {
				fast = sched.NewRandom(0)
			} else if spec.Inner == nil {
				base, _ := sched.NewFromSpec(spec)
				fast, _ = base.(sched.Reseedable)
				runSeed = func(seed int64) int64 { return sched.RunSeed(spec.Seed, seed) }
			}
			chooserFor := func(seed int64) sim.Chooser {
				var ch sim.Chooser
				if fast != nil {
					fast.Reseed(runSeed(seed))
					ch = fast
				} else {
					var err error
					if ch, err = sched.NewFromSpec(spec.WithRunSeed(seed)); err != nil {
						panic(err) // unreachable: spec validated at entry
					}
				}
				if rec != nil {
					rec.Reset(ch)
					ch = rec
				}
				return ch
			}
			for {
				if c.stopped() {
					return
				}
				seed := next.Add(1) - 1
				if seed >= n {
					return
				}
				describe := func() string { return fmt.Sprintf("seed=%d", seed) }
				verr, panicked, timedOut := r.attempt(dog,
					func() sim.Chooser { return chooserFor(seed) },
					func(sys *sim.System, verify Verify, runErr error) error {
						out := c.outcome(sys, verify, runErr)
						if acc != nil {
							acc.observe(sys)
						}
						return out
					}, describe)
				if timedOut {
					c.timedOut.Add(1)
					c.count()
					continue
				}
				if verr != nil {
					var dec []int
					if rec != nil && !panicked {
						dec = canonDecisions(rec.Taken)
					}
					c.violation(schedKey{seed}, describe(), verr, dec)
				}
				c.count()
			}
		}()
	}
	wg.Wait()
	// The seed range was cut by MaxSchedules; as in the tree explorers,
	// a StopAtFirst hit reports the violation rather than truncation.
	if int64(nSeeds) > c.maxSched && !(opts.StopAtFirst && c.violTotal.Load() > 0) {
		c.truncated.Store(true)
	}
	return c.result()
}
