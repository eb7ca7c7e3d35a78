// Package minimize shrinks counterexample bundles to minimal kernels.
//
// The shrinker is a deterministic fixpoint of reduction passes over a
// script-mode artifact bundle: ddmin-style chunk removal over the
// decision vector, per-decision lowering toward candidate 0, crash-point
// removal, and quantum/priority-level lowering — each candidate edit is
// accepted only if a full fresh replay still fails the property. The
// paper's own arguments (the Fig. 6/10 valency proofs, Theorem 1's
// Q ≥ 8 bound) rest on adversarial schedules of a handful of decisions;
// this package mechanically reduces multi-thousand-step violating runs
// to that scale.
//
// Soundness rule: every accepted candidate is re-verified by replaying
// it through internal/artifact from scratch, and the final bundle is
// re-captured (error text and trace re-rendered) from one more fresh
// execution. No cached verdict is ever trusted.
package minimize

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/sched"
)

// DefaultBudget is the replay budget a zero Options.Budget selects.
// Shrinking is post-processing on already-found violations, so the
// default is sized to finish a bundle in well under a second.
const DefaultBudget = 500

// Options configures one Shrink.
type Options struct {
	// Budget caps the number of candidate replays (0 = DefaultBudget,
	// < 0 = unlimited). When the budget runs out the best bundle found
	// so far is returned; Stats.BudgetExhausted reports the truncation.
	Budget int
	// Match decides which replay outcomes count as "still failing".
	// nil accepts any property violation, which shrinks hardest; pin it
	// (e.g. to a substring of the original error) to preserve a
	// specific failure kind through the reduction.
	Match func(err error) bool
}

// Stats describes what one Shrink did.
type Stats struct {
	// Tried and Accepted count candidate replays and accepted edits.
	Tried    int
	Accepted int
	// FromDecisions/ToDecisions are the decision-vector lengths before
	// and after (after normalization to script mode).
	FromDecisions int
	ToDecisions   int
	// FromSteps/ToSteps are the executed statement counts before/after.
	FromSteps int64
	ToSteps   int64
	// FromCrashes/ToCrashes count planned crash points before/after.
	FromCrashes int
	ToCrashes   int
	// FromQuantum/ToQuantum and FromLevels/ToLevels track config
	// lowering.
	FromQuantum int
	ToQuantum   int
	FromLevels  int
	ToLevels    int
	// BudgetExhausted reports that the replay budget ran out before the
	// reduction reached a fixpoint.
	BudgetExhausted bool
}

func (s *Stats) String() string {
	return fmt.Sprintf("decisions %d→%d, steps %d→%d, crashes %d→%d, Q %d→%d, levels %d→%d (%d candidates, %d accepted%s)",
		s.FromDecisions, s.ToDecisions, s.FromSteps, s.ToSteps,
		s.FromCrashes, s.ToCrashes, s.FromQuantum, s.ToQuantum,
		s.FromLevels, s.ToLevels, s.Tried, s.Accepted,
		map[bool]string{true: ", budget exhausted", false: ""}[s.BudgetExhausted])
}

// shrinker carries the current best counterexample and the budget.
type shrinker struct {
	opts  Options
	stats Stats

	meta artifact.Meta
	dec  []int
	rep  *artifact.Report
}

// Shrink reduces a failing bundle to a minimal still-failing bundle.
// Bundles not already in script mode are first normalized. The returned
// bundle's Err and Trace come from a final fresh execution of the
// minimized schedule. Shrink fails up front if the input bundle does not
// (or no longer does) fail its property.
func Shrink(b *artifact.Bundle, opts Options) (*artifact.Bundle, *Stats, error) {
	b, err := artifact.Normalize(b)
	if err != nil {
		return nil, nil, err
	}
	dec, _ := b.Script()
	if opts.Budget == 0 {
		opts.Budget = DefaultBudget
	}
	match := opts.Match
	if match == nil {
		match = func(error) bool { return true }
	}

	s := &shrinker{opts: opts, meta: b.Meta, dec: append([]int(nil), dec...)}

	// Establish the baseline: the input must fail before we shrink it.
	rep, ok := s.replay(s.meta, s.dec)
	if rep == nil {
		return nil, nil, fmt.Errorf("minimize: replay budget too small to verify the input bundle")
	}
	if !ok {
		return nil, nil, fmt.Errorf("minimize: bundle does not fail its property (outcome: %v)", rep.Err)
	}
	s.accept(s.meta, s.dec, rep)
	s.stats.FromDecisions = len(s.dec)
	s.stats.FromSteps = rep.Steps
	s.stats.FromCrashes = len(s.meta.Crashes)
	s.stats.FromQuantum = s.meta.Quantum
	s.stats.FromLevels = s.meta.V

	// Fixpoint over the reduction passes: each pass may enable further
	// reductions in the others (a removed crash point shortens the run,
	// a lowered quantum removes preemption decisions, ...).
	for {
		before := s.stats.Accepted
		s.ddmin()
		s.lowerDecisions()
		s.dropCrashes()
		s.lowerQuantum()
		s.lowerLevels()
		if s.stats.Accepted == before || s.exhausted() {
			break
		}
	}

	s.stats.ToDecisions = len(s.dec)
	s.stats.ToSteps = s.rep.Steps
	s.stats.ToCrashes = len(s.meta.Crashes)
	s.stats.ToQuantum = s.meta.Quantum
	s.stats.ToLevels = s.meta.V
	s.stats.BudgetExhausted = s.exhausted()

	// Never trust a cached result: the returned bundle is re-captured
	// from one final fresh execution of the minimized schedule.
	min, frep, err := artifact.Capture(s.meta, artifact.Sched{Decisions: s.dec})
	if err != nil {
		return nil, nil, err
	}
	if frep.Err == nil || !match(frep.Err) {
		return nil, nil, fmt.Errorf("minimize: final re-verification diverged (nondeterministic workload?): %v", frep.Err)
	}
	return min, &s.stats, nil
}

func (s *shrinker) exhausted() bool {
	return s.opts.Budget > 0 && s.stats.Tried >= s.opts.Budget
}

// replay runs one candidate from scratch and reports whether it still
// fails per Match. A nil report means the budget is exhausted.
func (s *shrinker) replay(meta artifact.Meta, dec []int) (*artifact.Report, bool) {
	if s.exhausted() {
		return nil, false
	}
	s.stats.Tried++
	rep, err := artifact.Replay(&artifact.Bundle{Version: artifact.Version, Meta: meta,
		Sched: artifact.Sched{Decisions: dec}}, artifact.ReplayOptions{})
	if err != nil {
		// Unknown workload etc. — cannot happen for candidates derived
		// from a bundle that already replayed, but fail closed.
		return &artifact.Report{Err: err}, false
	}
	match := s.opts.Match
	if match == nil {
		match = func(error) bool { return true }
	}
	return rep, rep.Err != nil && match(rep.Err)
}

// accept installs a still-failing candidate as the current best, first
// canonicalizing the decision vector against the observed fan-outs:
// indices past the last decision point are dead, decisions above their
// fan-out are clamped to the alias actually executed, and trailing
// zeros are dropped (past the script's end the replay picks 0 anyway).
// These rewrites only relabel the identical run, so no re-verification
// is needed.
func (s *shrinker) accept(meta artifact.Meta, dec []int, rep *artifact.Report) {
	if len(dec) > len(rep.Fanouts) {
		dec = dec[:len(rep.Fanouts)]
	}
	for i, f := range rep.Fanouts {
		if i < len(dec) && f > 0 && dec[i] > f-1 {
			dec[i] = f - 1
		}
	}
	n := len(dec)
	for n > 0 && dec[n-1] == 0 {
		n--
	}
	s.meta, s.dec, s.rep = meta, dec[:n:n], rep
}

// try replays (meta, dec) and accepts it if it still fails.
func (s *shrinker) try(meta artifact.Meta, dec []int) bool {
	rep, ok := s.replay(meta, dec)
	if !ok {
		return false
	}
	s.stats.Accepted++
	s.accept(meta, dec, rep)
	return true
}

// without returns dec with [lo,hi) removed.
func without(dec []int, lo, hi int) []int {
	out := make([]int, 0, len(dec)-(hi-lo))
	out = append(out, dec[:lo]...)
	return append(out, dec[hi:]...)
}

// ddmin is delta debugging over the decision vector: try dropping
// chunks, halving the chunk size whenever no chunk at the current
// granularity can go.
func (s *shrinker) ddmin() {
	chunk := (len(s.dec) + 1) / 2
	for chunk >= 1 && !s.exhausted() {
		removed := false
		for lo := 0; lo < len(s.dec); {
			hi := lo + chunk
			if hi > len(s.dec) {
				hi = len(s.dec)
			}
			if s.try(s.meta, without(s.dec, lo, hi)) {
				removed = true
				// s.dec shrank; retry the same offset.
				continue
			}
			if s.exhausted() {
				return
			}
			lo = hi
		}
		if !removed {
			chunk /= 2
		} else if chunk > len(s.dec) {
			chunk = len(s.dec)
		}
	}
}

// lowerDecisions tries to lower each remaining decision toward
// candidate 0 (the kernel's default pick), accepting the lowest value
// that still fails. Lower indices both read better and convert to
// trailing zeros that trim away.
func (s *shrinker) lowerDecisions() {
	for i := 0; i < len(s.dec); i++ {
		for v := 0; v < s.dec[i]; v++ {
			cand := append([]int(nil), s.dec...)
			cand[i] = v
			if s.try(s.meta, cand) {
				break
			}
			if s.exhausted() {
				return
			}
			if i >= len(s.dec) {
				break
			}
		}
	}
}

// dropCrashes tries to remove each planned crash point.
func (s *shrinker) dropCrashes() {
	for i := 0; i < len(s.meta.Crashes); {
		meta := s.meta
		meta.Crashes = append([]sched.CrashPoint(nil), s.meta.Crashes...)
		meta.Crashes = append(meta.Crashes[:i], meta.Crashes[i+1:]...)
		if len(meta.Crashes) == 0 {
			meta.Crashes = nil
		}
		if s.try(meta, append([]int(nil), s.dec...)) {
			continue
		}
		if s.exhausted() {
			return
		}
		i++
	}
}

// lowerQuantum walks the quantum down while the property still fails; a
// counterexample at a smaller Q is a strictly stronger exhibit against
// the quantum premise.
func (s *shrinker) lowerQuantum() {
	for s.meta.Quantum > 1 {
		meta := s.meta
		meta.Quantum--
		if !s.try(meta, append([]int(nil), s.dec...)) {
			return
		}
	}
}

// lowerLevels walks the priority-level count down while the property
// still fails, flattening priority structure the violation never needed.
func (s *shrinker) lowerLevels() {
	for s.meta.V > 1 {
		meta := s.meta
		meta.V--
		if !s.try(meta, append([]int(nil), s.dec...)) {
			return
		}
	}
}
