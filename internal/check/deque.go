package check

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// wsRing is one fixed-size power-of-two circular buffer of a wsDeque.
// Slots are atomic pointers so a thief's read of a slot the owner is
// concurrently recycling is well-defined (and race-detector clean); the
// top CAS decides who owns the element.
type wsRing[T any] struct {
	mask  int64
	elems []atomic.Pointer[T]
}

func newWSRing[T any](n int64) *wsRing[T] {
	return &wsRing[T]{mask: n - 1, elems: make([]atomic.Pointer[T], n)}
}

func (r *wsRing[T]) get(i int64) *T    { return r.elems[i&r.mask].Load() }
func (r *wsRing[T]) put(i int64, v *T) { r.elems[i&r.mask].Store(v) }
func (r *wsRing[T]) capacity() int64   { return int64(len(r.elems)) }

// wsDeque is a Chase–Lev work-stealing deque: the owning worker pushes
// and pops at the bottom (LIFO, preserving the explorer's depth-first
// canonical order and locality), thieves steal single items from the
// top (FIFO — the shallowest, largest subtrees, which keeps steals
// rare). Go's atomic operations are sequentially consistent, so the
// algorithm needs no explicit fences. When the ring fills, the owner
// grows it by copying the live window into a doubled ring; thieves
// holding the retired ring still read consistent values (the retired
// ring is never written again) and the top CAS arbitrates ownership.
type wsDeque[T any] struct {
	top    atomic.Int64
	bottom atomic.Int64
	ring   atomic.Pointer[wsRing[T]]
}

func newWSDeque[T any]() *wsDeque[T] {
	d := &wsDeque[T]{}
	d.ring.Store(newWSRing[T](64))
	return d
}

// push appends v at the bottom. Owner only.
func (d *wsDeque[T]) push(v *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t >= r.capacity() {
		nr := newWSRing[T](r.capacity() * 2)
		for i := t; i < b; i++ {
			nr.put(i, r.get(i))
		}
		d.ring.Store(nr)
		r = nr
	}
	r.put(b, v)
	d.bottom.Store(b + 1)
}

// pop removes and returns the bottom item, or nil when the deque is
// empty (or the last item was lost to a concurrent thief). Owner only.
func (d *wsDeque[T]) pop() *T {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom.
		d.bottom.Store(b + 1)
		return nil
	}
	v := d.ring.Load().get(b)
	if t == b {
		// Last item: race thieves via the top CAS, then reset to a
		// canonical empty state either way.
		if !d.top.CompareAndSwap(t, t+1) {
			v = nil
		}
		d.bottom.Store(b + 1)
	}
	return v
}

// steal removes and returns the top item. retry reports that the CAS
// lost a race (with the owner's pop of the last item or another thief)
// and the deque may still be non-empty. Any goroutine.
func (d *wsDeque[T]) steal() (v *T, retry bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	v = d.ring.Load().get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, true
	}
	return v, false
}

// wsEngine runs one parallel exploration: per-worker Chase–Lev deques,
// a pending-item count for termination detection, and the collector
// for cooperative cancellation.
type wsEngine[T any] struct {
	c       *collector
	deques  []*wsDeque[T]
	export  func(*T)     // non-nil when the frontier is exported on stop
	pending atomic.Int64 // items pushed but not yet fully processed
}

// worker is one worker's loop: drain the own deque bottom-first, then
// sweep the other workers' deques for a steal, then back off until
// either work appears or the frontier drains. pending is decremented
// only after an item's children are pushed, so it never reaches zero
// while reachable work remains.
//
// On a stop with frontier export active, the worker moves its own
// remaining deque items to the frontier before exiting; an item another
// worker stole concurrently is exported by that worker's process call
// (its claim fails), so every unexplored subtree lands in the frontier
// exactly once. A worker parked by the memory-pressure ladder simply
// exits: its queued items remain stealable by the survivors.
func (e *wsEngine[T]) worker(w int, process func(item *T, push func(*T))) {
	own := e.deques[w]
	push := func(item *T) {
		e.pending.Add(1)
		own.push(item)
	}
	idle := 0
	for {
		if e.c.stopped() {
			e.drain(own)
			return
		}
		if e.c.parked(w) {
			return
		}
		item := own.pop()
		if item == nil {
			item = e.steal(w)
		}
		if item == nil {
			if e.pending.Load() == 0 {
				return
			}
			if idle++; idle < 32 {
				runtime.Gosched()
			} else {
				//repro:allow walltime idle backoff between steal sweeps; affects only wall-clock, results merge in canonical order
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idle = 0
		process(item, push)
		e.pending.Add(-1)
	}
}

// drain exports every item left in the worker's own deque after a stop.
func (e *wsEngine[T]) drain(own *wsDeque[T]) {
	if e.export == nil {
		return
	}
	for {
		item := own.pop()
		if item == nil {
			return
		}
		e.export(item)
	}
}

// steal sweeps the other workers' deques starting after w.
func (e *wsEngine[T]) steal(w int) *T {
	n := len(e.deques)
	for off := 1; off < n; off++ {
		d := e.deques[(w+off)%n]
		for {
			item, retry := d.steal()
			if item != nil {
				e.c.steals.Add(1)
				return item
			}
			if !retry {
				break
			}
		}
	}
	return nil
}

// explore drives process over the frontier of schedule subtrees rooted
// at roots (a single root item for a fresh exploration, or a seeded
// frontier's subtrees for a resumed one). With parallelism 1 the
// frontier is a plain LIFO stack and the whole exploration runs on the
// calling goroutine — no worker pool, no synchronization beyond the
// collector's — reproducing the canonical sequential enumeration order
// exactly. Otherwise each of parallelism workers owns a deque and
// steals when dry. newWorker is called once per worker and returns
// that worker's process function, which owns all pooled per-worker
// state (system runner, choosers, scratch buffers), and its done
// step, run when the worker exits; process must push an item's
// children before returning. export, if non-nil, receives every item
// left unprocessed when the exploration stops early (the
// frontier-checkpoint hook).
func explore[T any](c *collector, roots []*T, parallelism int, export func(*T),
	newWorker func() (process func(item *T, push func(*T)), done func())) {
	if parallelism <= 1 {
		process, done := newWorker()
		defer done()
		// Reversed so the first root is popped (and explored) first,
		// preserving canonical order across a resume.
		stack := make([]*T, 0, len(roots))
		for i := len(roots) - 1; i >= 0; i-- {
			stack = append(stack, roots[i])
		}
		push := func(item *T) { stack = append(stack, item) }
		for len(stack) > 0 {
			if c.stopped() {
				if export != nil {
					for _, item := range stack {
						export(item)
					}
				}
				return
			}
			item := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			process(item, push)
		}
		return
	}
	e := &wsEngine[T]{c: c, deques: make([]*wsDeque[T], parallelism), export: export}
	for i := range e.deques {
		e.deques[i] = newWSDeque[T]()
	}
	e.pending.Store(int64(len(roots)))
	for i, root := range roots {
		e.deques[i%parallelism].push(root)
	}
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		//repro:allow goroutine sanctioned explorer worker pool; the collector merges results in canonical schedule order
		go func(w int) {
			defer wg.Done()
			process, done := newWorker()
			defer done()
			e.worker(w, process)
		}(w)
	}
	wg.Wait()
}
