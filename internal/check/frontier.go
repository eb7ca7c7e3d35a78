package check

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
)

// SwitchRec is one directed deviation of an ExploreBudget frontier
// item, in its serializable form.
type SwitchRec struct {
	// Decision is the decision index the deviation applies at.
	Decision int64 `json:"d"`
	// Choice is the candidate index taken there.
	Choice int `json:"c"`
}

// FrontierItem is one unexplored subtree of an interrupted exploration,
// in serializable form. Exactly one of the two shapes is populated:
// Prefix for ExploreAll subtrees, Switches/Budget/MinIndex for
// ExploreBudget subtrees.
type FrontierItem struct {
	// Prefix is the ExploreAll decision-vector prefix rooting the
	// subtree (the root schedule is prefix followed by implicit zeros).
	Prefix []int `json:"prefix,omitempty"`
	// Switches are the ExploreBudget deviations applied so far.
	Switches []SwitchRec `json:"switches,omitempty"`
	// Budget is the remaining deviation budget of the subtree.
	Budget int `json:"budget,omitempty"`
	// MinIndex is the first decision index at which further deviations
	// may be placed.
	MinIndex int64 `json:"min_index,omitempty"`
}

// Frontier is the checkpointable remainder of an interrupted
// exploration: a set of disjoint unexplored subtrees whose union,
// together with the schedules already executed, exactly covers the full
// schedule space. A Frontier exported by an interrupted run (see
// Options.ExportFrontier) can be fed back via Options.SeedFrontier to
// continue exactly where the exploration left off: the resumed leg
// executes precisely the schedules the interrupted leg did not, so
// summing Schedules and merging Violations across legs reproduces the
// uninterrupted exploration.
//
// Frontier export/seed is supported for the plain (ReductionNone)
// ExploreAll and ExploreBudget explorers: reduced explorations carry
// cross-run pruning state (sleep sets, the fingerprint cache) that a
// frontier snapshot cannot soundly capture, so the reduced paths ignore
// ExportFrontier and panic on a SeedFrontier.
type Frontier struct {
	// Explorer identifies the explorer the frontier belongs to:
	// "all" (ExploreAll) or "budget" (ExploreBudget).
	Explorer string `json:"explorer"`
	// Budget echoes the ExploreBudget root budget (diagnostic only; each
	// item carries its own remaining budget).
	Budget int `json:"budget,omitempty"`
	// Items are the unexplored subtrees, in canonical schedule order.
	Items []FrontierItem `json:"items"`
	// Schedules echoes how many schedules the interrupted leg executed
	// before exporting (diagnostic only).
	Schedules int `json:"schedules"`
}

// Empty reports whether the frontier holds no pending work.
func (f *Frontier) Empty() bool { return f == nil || len(f.Items) == 0 }

// keyedFrontier pairs an exported item with its canonical schedule key
// so the Result's frontier is ordered deterministically (for a
// deterministic interruption point — e.g. MaxSchedules at
// Parallelism 1 — the exported frontier is then byte-identical
// run-to-run).
type keyedFrontier struct {
	key  schedKey
	item FrontierItem
}

// exportAll records one unexplored ExploreAll subtree.
func (c *collector) exportAll(item *prefixItem) {
	prefix := append([]int(nil), item.prefix...)
	c.exportItem(keyedFrontier{key: prefixKey(prefix), item: FrontierItem{Prefix: prefix}})
}

// exportBudget records one unexplored ExploreBudget subtree.
func (c *collector) exportBudget(item *budgetItem) {
	fi := FrontierItem{Budget: item.budget, MinIndex: item.minIndex}
	for _, sw := range item.switches {
		fi.Switches = append(fi.Switches, SwitchRec{Decision: sw.d, Choice: sw.choice})
	}
	c.exportItem(keyedFrontier{key: switchKey(item.switches), item: fi})
}

func (c *collector) exportItem(kf keyedFrontier) {
	c.mu.Lock()
	c.fronts = append(c.fronts, kf)
	c.mu.Unlock()
}

// frontierResult assembles the exported frontier in canonical order.
func (c *collector) frontierResult(explorer string, budget int) *Frontier {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.fronts, func(i, j int) bool { return keyLess(c.fronts[i].key, c.fronts[j].key) })
	f := &Frontier{Explorer: explorer, Budget: budget, Schedules: int(c.counted.Load())}
	for _, kf := range c.fronts {
		f.Items = append(f.Items, kf.item)
	}
	return f
}

// checkSeed validates that a seeded frontier was exported by the
// explorer now consuming it (a frontier's items only make sense to the
// explorer whose subtree shape they encode) and that the exploration is
// unreduced (a frontier cannot carry the pruning state it would need).
func checkSeed(opts Options, explorer string) {
	f := opts.SeedFrontier
	if f != nil && f.Explorer != "" && f.Explorer != explorer {
		panic(fmt.Sprintf("check: SeedFrontier exported by the %q explorer fed to %q", f.Explorer, explorer))
	}
	if f != nil && opts.Reduction != ReductionNone {
		panic(fmt.Sprintf("check: SeedFrontier fed to %q under Reduction %s (frontiers are ReductionNone only)", explorer, opts.Reduction))
	}
}

// seedItemsAll converts a seeded frontier back into ExploreAll work
// items (the zero frontier yields the root subtree).
func seedItemsAll(f *Frontier) []*prefixItem {
	if f == nil {
		return []*prefixItem{{}}
	}
	items := make([]*prefixItem, len(f.Items))
	for i, fi := range f.Items {
		items[i] = &prefixItem{prefix: fi.Prefix}
	}
	return items
}

// seedItemsBudget converts a seeded frontier back into ExploreBudget
// work items.
func seedItemsBudget(f *Frontier, budget int) []*budgetItem {
	if f == nil {
		return []*budgetItem{{budget: budget}}
	}
	items := make([]*budgetItem, len(f.Items))
	for i, fi := range f.Items {
		it := &budgetItem{budget: fi.Budget, minIndex: fi.MinIndex}
		for _, sw := range fi.Switches {
			it.switches = append(it.switches, switchPoint{d: sw.Decision, choice: sw.Choice})
		}
		items[i] = it
	}
	return items
}

// watchdog is one worker's per-run deadline state (nil when
// Options.RunDeadline is unset: every method is nil-receiver safe, so
// the plain path pays nothing).
type watchdog struct {
	wd       sched.Watchdog
	deadline time.Duration
}

func newWatchdog(opts Options) *watchdog {
	if opts.RunDeadline <= 0 {
		return nil
	}
	return &watchdog{deadline: opts.RunDeadline}
}

// arm wraps ch for one run attempt, starting the deadline clock.
func (g *watchdog) arm(ch sim.Chooser) sim.Chooser {
	if g == nil {
		return ch
	}
	//repro:allow walltime per-run watchdog deadline; a fired deadline is counted in TimedOutRuns, never replayed output
	start := time.Now()
	g.wd.Rearm(ch)
	g.wd.Stop = func() bool {
		//repro:allow walltime per-run watchdog deadline; a fired deadline is counted in TimedOutRuns, never replayed output
		return time.Since(start) > g.deadline
	}
	return &g.wd
}

// fired reports whether the last armed run was cut off.
func (g *watchdog) fired() bool { return g != nil && g.wd.Fired }

// Degradation ladder: when Options.MemSoftLimit is set, the collector
// polls the heap every ProgressEvery schedules and, while over the
// limit, takes one mitigation step per poll: first shed the fingerprint
// cache (reduced modes only — dropping entries only forgoes pruning,
// never soundness), then halve the number of workers allowed to claim
// new work, down to one. Each step is recorded in Result.Degradations.
// Steps never affect verdicts; under reduction they can increase the
// schedule count (less pruning), and parked workers only shrink the
// live frontier footprint.

// memPressure polls the heap (called from count() at progress
// boundaries) and takes at most one degradation step.
func (c *collector) memPressure() {
	if c.memSoft == 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc <= c.memSoft {
		return
	}
	c.mu.Lock()
	event := ""
	switch {
	case !c.cacheShed && c.cache != nil:
		c.cacheShed = true
		c.cache.shed()
		event = fmt.Sprintf("memory pressure: heap %dMB over soft limit %dMB; shed fingerprint cache", ms.HeapAlloc>>20, c.memSoft>>20)
	default:
		if n := c.allowed.Load(); n > 1 {
			c.allowed.Store((n + 1) / 2)
			event = fmt.Sprintf("memory pressure: heap %dMB over soft limit %dMB; stepped workers %d -> %d", ms.HeapAlloc>>20, c.memSoft>>20, n, (n+1)/2)
		} else if !c.degradeFloor {
			c.degradeFloor = true
			event = fmt.Sprintf("memory pressure: heap %dMB over soft limit %dMB with all mitigations applied; continuing at minimum", ms.HeapAlloc>>20, c.memSoft>>20)
		}
	}
	if event != "" {
		c.degradations = append(c.degradations, event)
	}
	c.mu.Unlock()
	if event != "" {
		runtime.GC()
	}
}

// parked reports whether worker w has been parked by the degradation
// ladder: it must stop claiming new work (its queued items remain
// stealable). Worker 0 never parks, so the exploration always
// progresses.
func (c *collector) parked(w int) bool {
	return w > 0 && int32(w) >= c.allowed.Load()
}
