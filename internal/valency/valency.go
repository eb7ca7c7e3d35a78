// Package valency computationally reproduces the structure of the
// paper's lower-bound proof (§4.1, Appendix A, Fig. 6/Fig. 10): a
// valency analysis of consensus scenarios over the schedule tree.
//
// A schedule prefix is x-valent if every completion decides x, bivalent
// if at least two different decisions are reachable, and violating if
// some completion disagrees internally or returns ⊥. The proof of
// Theorem 3 works by showing the adversary can hold the execution in
// bivalent states forever; dually, for a correct wait-free algorithm
// every maximal path leaves bivalence in bounded depth through a
// "critical" state — a bivalent prefix all of whose successors are
// univalent — where the decisive symmetry-breaking step happens (the
// object O in Fig. 6).
//
// Analyze and AnalyzeBudget do not walk the schedule tree themselves:
// they run check.ExploreAll and check.ExploreBudget (sequentially, in
// canonical order), record every completed run's decision vector and
// outcome into a trie of prefixes, and classify every prefix. Feasible
// for tiny configurations only, like the proofs it mirrors.
package valency

import (
	"fmt"
	"sort"

	"repro/internal/check"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Outcome reports one completed run of a scenario.
type Outcome struct {
	// Decision is the agreed value, meaningful only when Valid.
	Decision mem.Word
	// Valid is false for runs that disagreed, decided ⊥, or failed.
	Valid bool
}

// Scenario builds a fresh system wired to the chooser and returns a
// function that computes the run's Outcome after Run completes.
type Scenario func(ch sim.Chooser) (*sim.System, func(runErr error) Outcome)

// Result summarizes a schedule-tree valency analysis.
type Result struct {
	// Leaves is the number of maximal schedules explored.
	Leaves int
	// Prefixes is the number of internal decision points.
	Prefixes int
	// Bivalent is the number of bivalent prefixes.
	Bivalent int
	// Critical is the number of critical states: bivalent prefixes whose
	// every child subtree is univalent or violating.
	Critical int
	// MaxBivalentDepth is the deepest bivalent prefix (decision index).
	MaxBivalentDepth int
	// Violations is the number of violating leaves.
	Violations int
	// Decisions counts leaves per decided value.
	Decisions map[mem.Word]int
	// Truncated reports whether the leaf cap stopped the enumeration.
	Truncated bool
}

// String renders a compact summary.
func (r *Result) String() string {
	var vals []mem.Word
	for v := range r.Decisions {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := fmt.Sprintf("leaves=%d prefixes=%d bivalent=%d critical=%d maxBivalentDepth=%d violations=%d decisions=",
		r.Leaves, r.Prefixes, r.Bivalent, r.Critical, r.MaxBivalentDepth, r.Violations)
	for _, v := range vals {
		s += fmt.Sprintf("[%d×%d]", v, r.Decisions[v])
	}
	if r.Truncated {
		s += " (truncated)"
	}
	return s
}

// node is one prefix in the replayed schedule tree.
type node struct {
	children map[int]*node
	outcomes map[mem.Word]int // decided value → leaf count below
	depth    int
	leaf     bool
}

func newNode(depth int) *node {
	return &node{children: map[int]*node{}, outcomes: map[mem.Word]int{}, depth: depth}
}

// observe counts one leaf below n (a violating leaf decides nothing).
func (n *node) observe(out Outcome) {
	if out.Valid {
		n.outcomes[out.Decision]++
	}
}

// Analyze enumerates up to maxLeaves maximal schedules of the scenario
// and classifies every prefix's valency.
func Analyze(s Scenario, maxLeaves int) *Result {
	return analyze(s, maxLeaves, check.ExploreAll)
}

// AnalyzeBudget analyzes the subtree of schedules deviating from the
// default continue-current-process schedule in at most budget places
// (the schedules check.ExploreBudget enumerates). Valency
// classifications are relative to the explored subtree.
func AnalyzeBudget(s Scenario, budget, maxLeaves int) *Result {
	return analyze(s, maxLeaves, func(build check.Builder, opts check.Options) *check.Result {
		return check.ExploreBudget(build, budget, opts)
	})
}

// analyze runs explore over the scenario and records each of its first
// maxLeaves completed runs into the prefix trie. The exploration is
// sequential, because the trie is not thread-safe and a leaf cap must
// cut the canonical enumeration order. The builder records decisions
// through its own sched.Record rather than the explorer's chooser,
// which on a probe run is a slot the explorer re-points later. The
// verifier never reports a violation, so every violation in the check
// result is a contained panic of the scenario: it is raised again.
func analyze(s Scenario, maxLeaves int, explore func(check.Builder, check.Options) *check.Result) *Result {
	if maxLeaves <= 0 {
		maxLeaves = 100000
	}
	root := newNode(0)
	res := &Result{Decisions: map[mem.Word]int{}}
	build := func(ch sim.Chooser) (*sim.System, check.Verify) {
		rec := sched.NewRecord(ch)
		sys, outcome := s(rec)
		return sys, func(runErr error) error {
			res.record(root, rec.Taken, outcome(runErr))
			return nil
		}
	}
	cres := explore(build, check.Options{Parallelism: 1, MaxSchedules: maxLeaves, StopAtFirst: true})
	if v := cres.First(); v != nil {
		panic(v.Err)
	}
	res.Truncated = cres.Truncated
	res.classify(root)
	return res
}

// record adds one completed run, identified by its decision vector, to
// the trie and the leaf tallies.
func (res *Result) record(root *node, taken []int, out Outcome) {
	res.Leaves++
	if out.Valid {
		res.Decisions[out.Decision]++
	} else {
		res.Violations++
	}
	n := root
	n.observe(out)
	for _, d := range taken {
		child, ok := n.children[d]
		if !ok {
			child = newNode(n.depth + 1)
			n.children[d] = child
		}
		n = child
		n.observe(out)
	}
	n.leaf = true
}

// classify walks the trie computing the summary statistics.
func (res *Result) classify(root *node) {
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf && len(n.children) == 0 {
			return
		}
		res.Prefixes++
		if len(n.outcomes) >= 2 {
			res.Bivalent++
			if n.depth > res.MaxBivalentDepth {
				res.MaxBivalentDepth = n.depth
			}
			critical := true
			for _, ch := range n.children {
				if len(ch.outcomes) >= 2 {
					critical = false
					break
				}
			}
			if critical {
				res.Critical++
			}
		}
		for _, ch := range n.children {
			walk(ch)
		}
	}
	walk(root)
}
