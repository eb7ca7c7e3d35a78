// Package multicons implements the paper's multiprocessor consensus
// algorithms: Fig. 7 (Theorem 4) — wait-free consensus for any number of
// processes on P hybrid-scheduled processors from C-consensus objects
// with C = P + K ≥ P — and Fig. 9 (§5) — the constant-quantum variant
// for fairly scheduled systems.
//
// # Fig. 7 structure
//
// Processes march through L consensus levels (Fig. 8), where
//
//	L = (K+1)·M·(1+P−K) + (P−K)²·M + 1
//
// and M is the maximum number of processes per processor. Each level
// holds one C-consensus object with P+K ports: two ports on processors
// 1..K, one on processors K+1..P. A process claims ports through its
// processor's per-priority Port counter (level-local Q-F&I/Q-C&S from
// package qlocal) and must then win the port's local consensus
// (package unicons, correct across priority levels) before invoking the
// level's C-consensus object. Winners publish the level's output in
// Outval and advance their priority's Lastpub pointer; later levels use
// the newest published output as input. The pigeonhole argument of
// Lemma 3 guarantees a deciding level — one with no access failure on
// any processor — provided the quantum meets Table 1's bound; all
// processes then return that level's value.
package multicons

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/qlocal"
	"repro/internal/sim"
	"repro/internal/unicons"
)

// Config parameterizes a Fig. 7 consensus instance.
type Config struct {
	// Name labels the instance's shared objects.
	Name string
	// P is the number of processors (≥ 1).
	P int
	// K sets the consensus number C = P + K of the per-level objects;
	// 0 ≤ K ≤ P.
	K int
	// M is the maximum number of processes on any processor (≥ 1).
	M int
	// V is the number of priority levels (≥ 1).
	V int
	// LOverride, if > 0, replaces the Lemma 3 level count — used by the
	// experiments that probe how many levels are really needed.
	LOverride int
}

// Levels returns the Lemma 3 level count L for the configuration:
// (K+1)M(1+P−K) + (P−K)²M + 1.
func (cfg Config) Levels() int {
	if cfg.LOverride > 0 {
		return cfg.LOverride
	}
	pk := cfg.P - cfg.K
	return (cfg.K+1)*cfg.M*(1+pk) + pk*pk*cfg.M + 1
}

// C returns the consensus number P + K of the per-level objects.
func (cfg Config) C() int { return cfg.P + cfg.K }

func (cfg Config) validate() {
	switch {
	case cfg.P < 1:
		panic(fmt.Sprintf("multicons: P must be >= 1, got %d", cfg.P))
	case cfg.K < 0 || cfg.K > cfg.P:
		panic(fmt.Sprintf("multicons: need 0 <= K <= P, got K=%d P=%d", cfg.K, cfg.P))
	case cfg.M < 1:
		panic(fmt.Sprintf("multicons: M must be >= 1, got %d", cfg.M))
	case cfg.V < 1:
		panic(fmt.Sprintf("multicons: V must be >= 1, got %d", cfg.V))
	}
}

// Algorithm is one instance of the Fig. 7 consensus algorithm. Every
// participating process calls Decide exactly once; the shared state is
// one-shot.
type Algorithm struct {
	cfg Config
	l   int

	levelObjs []*mem.ConsObject   // [1..L] C-consensus objects
	outval    [][]*mem.Reg        // [processor][1..L] published outputs
	port      [][]*qlocal.Object  // [processor][1..V] next-port counters
	lastpub   [][]*qlocal.Object  // [processor][1..V] newest published level
	elections [][]*unicons.Object // [processor][port] local consensus, grown on first use
	claims    [][]int             // [processor][level] port claims (lemma accounting)
}

// New returns a fresh Fig. 7 instance.
func New(cfg Config) *Algorithm {
	cfg.validate()
	a := &Algorithm{cfg: cfg, l: cfg.Levels()}
	a.levelObjs = make([]*mem.ConsObject, a.l+1)
	for l := 1; l <= a.l; l++ {
		a.levelObjs[l] = mem.NewConsObject(fmt.Sprintf("%s.cons[%d]", cfg.Name, l), cfg.C())
	}
	a.outval = make([][]*mem.Reg, cfg.P)
	a.port = make([][]*qlocal.Object, cfg.P)
	a.lastpub = make([][]*qlocal.Object, cfg.P)
	a.elections = make([][]*unicons.Object, cfg.P)
	for i := 0; i < cfg.P; i++ {
		a.outval[i] = mem.NewRegArray(fmt.Sprintf("%s.Outval[%d]", cfg.Name, i), a.l+1)
		a.port[i] = make([]*qlocal.Object, cfg.V+1)
		a.lastpub[i] = make([]*qlocal.Object, cfg.V+1)
		for v := 1; v <= cfg.V; v++ {
			// Port counters start at 1; Lastpub at 0 ("no published
			// value"), matching the paper's initialization.
			a.port[i][v] = qlocal.New(fmt.Sprintf("%s.Port[%d][%d]", cfg.Name, i, v), 1)
			a.lastpub[i][v] = qlocal.New(fmt.Sprintf("%s.Lastpub[%d][%d]", cfg.Name, i, v), 0)
		}
	}
	a.claims = make([][]int, cfg.P)
	for i := range a.claims {
		a.claims[i] = make([]int, a.l+1)
	}
	return a
}

// Reset restores the instance to its initial state for a pooled rerun
// (sim.System.OnReset hooks), keeping the election objects grown so
// far: a reset election is indistinguishable from one not yet created.
// Must not be called mid-run.
func (a *Algorithm) Reset() {
	for _, o := range a.levelObjs[1:] {
		o.Reset()
	}
	for i := range a.outval {
		mem.ResetRegs(a.outval[i])
		for v := 1; v <= a.cfg.V; v++ {
			a.port[i][v].Reset()
			a.lastpub[i][v].Reset()
		}
		for _, o := range a.elections[i] {
			if o != nil {
				o.Reset()
			}
		}
		clear(a.claims[i])
	}
}

// Config returns the instance's configuration.
func (a *Algorithm) Config() Config { return a.cfg }

// L returns the instance's level count.
func (a *Algorithm) L() int { return a.l }

// election returns the local consensus object for (processor, port),
// allocating lazily (runtime-side; ports are bounded by 2L+M).
func (a *Algorithm) election(processor, port int) *unicons.Object {
	es := a.elections[processor]
	if n := port + 1 - len(es); n > 0 {
		es = append(es, make([]*unicons.Object, n)...)
		a.elections[processor] = es
	}
	if es[port] == nil {
		es[port] = unicons.New(fmt.Sprintf("%s.elect[%d][%d]", a.cfg.Name, processor, port))
	}
	return es[port]
}

// Decide performs the Fig. 7 decide(val) operation for the calling
// process and returns the consensus value. val must not be ⊥ and must
// fit the qlocal value domain checks used internally (any word except ⊥
// is fine for the value itself; it is stored in plain registers).
func (a *Algorithm) Decide(c *sim.Ctx, val mem.Word) mem.Word {
	if val == mem.Bottom {
		panic("multicons: ⊥ is not a proposable value")
	}
	pr, pri := c.Processor(), c.Pri()
	if pri > a.cfg.V {
		panic(fmt.Sprintf("multicons: process priority %d exceeds configured V=%d", pri, a.cfg.V))
	}

	// Lines 1-2: return immediately if a decision is already published.
	if lastval := c.Read(a.outval[pr][a.l]); lastval != mem.Bottom {
		return lastval
	}
	// Line 3: processors 1..K have two ports per object.
	numports := 1
	if pr < a.cfg.K {
		numports = 2
	}
	// Line 4.
	input := val
	prevlevel, level := 0, 0

	// Lines 5-13: lower-priority processes may have made progress while
	// we were not running; absorb their Port and Lastpub counters. Reads
	// of other levels' counters are single register reads (WeakRead);
	// updates to our own level's counters use level-local C&S.
	for v := 1; v < pri; v++ {
		_, lowerport := a.port[pr][v].WeakRead(c)
		myport := a.port[pr][pri].Load(c)
		if lowerport > myport {
			a.port[pr][pri].CAS(c, myport, lowerport)
		}
		_, lowerpub := a.lastpub[pr][v].WeakRead(c)
		mypub := a.lastpub[pr][pri].Load(c)
		if lowerpub > mypub {
			a.lastpub[pr][pri].CAS(c, mypub, lowerpub)
		}
	}

	// Lines 14-34: proceed through the consensus levels.
	//repro:bound 2*l+m each iteration consumes a port or re-reads after a same-level loss: the port vector holds at most 2 ports per level per priority, and same-level interference re-runs a level at most M times (Lemma 3)
	for level <= a.l {
		// Lines 15-16: higher-priority processes may have preempted us
		// and decided.
		if lastval := c.Read(a.outval[pr][a.l]); lastval != mem.Bottom {
			return lastval
		}
		// Lines 17-18: determine the next port and its level.
		port := int(a.port[pr][pri].Load(c))
		level = (port-1)/numports + 1
		// Lines 19-25: claim a port. If the next port still belongs to
		// the level we just accessed (two-port processors), jump the
		// counter past that level while claiming atomically.
		if prevlevel == level {
			newport := port + numports
			if a.port[pr][pri].CAS(c, mem.Word(port), mem.Word(newport+1)) {
				port = newport
			} else {
				port = int(a.port[pr][pri].FetchInc(c))
			}
		} else {
			port = int(a.port[pr][pri].FetchInc(c))
		}
		// Line 26.
		level = (port-1)/numports + 1
		a.noteClaim(pr, level)
		// Lines 27-28: input is the newest published output, if any.
		publevel := int(a.lastpub[pr][pri].Load(c))
		if publevel != 0 {
			input = c.Read(a.outval[pr][publevel])
		}
		// Lines 29-33.
		if level <= a.l {
			// Line 30: local consensus grants the port to one process.
			me := mem.Word(c.ID() + 1)
			if a.election(pr, port).Decide(c, me) == me {
				// Line 31: invoke the level's C-consensus object. The
				// port discipline caps invocations at C, so ⊥ is
				// impossible here.
				output := c.CCons(a.levelObjs[level], input)
				if output == mem.Bottom {
					panic(fmt.Sprintf("multicons: level %d object exhausted (port discipline violated)", level))
				}
				// Lines 32-33: publish.
				c.Write(a.outval[pr][level], output)
				a.lastpub[pr][pri].CAS(c, mem.Word(publevel), mem.Word(level))
			}
		}
		// Line 34.
		prevlevel = level
	}
	// Lines 35-36.
	publevel := int(a.lastpub[pr][pri].Load(c))
	return c.Read(a.outval[pr][publevel])
}

// Invocations returns the per-level C-consensus invocation counts
// (index 1..L). Post-run inspection only.
func (a *Algorithm) Invocations() []int {
	out := make([]int, a.l+1)
	for l := 1; l <= a.l; l++ {
		//repro:allow post-run invocation counts are read only after the run completes
		out[l] = a.levelObjs[l].Invocations()
	}
	return out
}
