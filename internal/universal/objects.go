package universal

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/multicons"
	"repro/internal/sim"
)

// Counter op encoding: low 4 bits select the operation, the rest carry
// the argument.
const (
	counterOpGet = 1
	counterOpAdd = 2
)

func counterApply(state any, op mem.Word) (any, mem.Word) {
	v := state.(mem.Word)
	switch op & 0xF {
	case counterOpGet:
		return v, v
	case counterOpAdd:
		return v + op>>4, v
	default:
		panic(fmt.Sprintf("universal: bad counter op %#x", op))
	}
}

// Counter is a wait-free shared counter for all priority levels of one
// hybrid-scheduled processor, built from reads and writes only.
type Counter struct{ o *Object }

// NewCounter returns a counter starting at initial.
func NewCounter(name string, initial mem.Word) *Counter {
	return &Counter{o: New(name, initial, counterApply)}
}

// Add atomically adds delta (≤ 28 bits) and returns the prior value.
func (ct *Counter) Add(c *sim.Ctx, delta mem.Word) mem.Word {
	if delta >= 1<<28 {
		panic(fmt.Sprintf("universal: counter delta %d exceeds 28 bits", delta))
	}
	return ct.o.Invoke(c, counterOpAdd|delta<<4)
}

// Inc atomically increments and returns the prior value.
func (ct *Counter) Inc(c *sim.Ctx) mem.Word { return ct.Add(c, 1) }

// Get returns the current value (a linearizable read-only operation).
func (ct *Counter) Get(c *sim.Ctx) mem.Word { return ct.o.Invoke(c, counterOpGet) }

// Peek returns the current value. Post-run inspection only.
func (ct *Counter) Peek() mem.Word { return ct.o.PeekState().(mem.Word) }

// Reset restores the initial value for a pooled rerun (sim.System.OnReset
// hooks). Must not be called mid-run.
func (ct *Counter) Reset() { ct.o.Reset() }

// Queue op encoding.
const (
	queueOpEnq = 1
	queueOpDeq = 2
)

// QueueEmpty is returned by Deq on an empty queue.
const QueueEmpty = mem.Word(1<<32 - 1)

// queueState is a queue value: the items log[head:tail] of its Queue's
// item log. Every state of one chain shares that log, because the
// chain orders all enqueues: the i-th enqueue always writes its item to
// log[i]. States are immutable and are handed out as pointers into the
// Queue's state arena, so once the arena has grown, memoizing a state
// allocates nothing.
type queueState struct{ head, tail int }

// emptyQueue is the initial state of every Queue.
var emptyQueue = &queueState{}

// Queue is a wait-free shared FIFO queue for all priority levels of one
// hybrid-scheduled processor, built from reads and writes only. Items
// are words of at most 28 bits.
type Queue struct {
	o      *Object
	log    []mem.Word   // enqueued items in chain order
	states []queueState // state arena, rewound by Reset
}

// NewQueue returns an empty queue.
func NewQueue(name string) *Queue {
	q := &Queue{}
	q.o = New(name, emptyQueue, q.apply)
	return q
}

// apply is the queue's sequential specification over the shared item
// log. It never mutates its argument. Processes replaying the chain at
// the same time may apply one enqueue more than once; each writes the
// same item to the same log slot, so the log is never truncated.
func (q *Queue) apply(state any, op mem.Word) (any, mem.Word) {
	s := *state.(*queueState)
	switch op & 0xF {
	case queueOpEnq:
		if s.tail < len(q.log) {
			q.log[s.tail] = op >> 4
		} else {
			q.log = append(q.log, op>>4)
		}
		ret := mem.Word(s.tail - s.head)
		s.tail++
		return q.state(s), ret
	case queueOpDeq:
		if s.head == s.tail {
			return state, QueueEmpty
		}
		s.head++
		return q.state(s), q.log[s.head-1]
	default:
		panic(fmt.Sprintf("universal: bad queue op %#x", op))
	}
}

// state stores s in the arena and returns its address. An arena that
// grows moves to a new array, leaving earlier states where they were.
func (q *Queue) state(s queueState) *queueState {
	q.states = append(q.states, s)
	return &q.states[len(q.states)-1]
}

// Enq appends item (≤ 28 bits) and returns the queue length before the
// append.
func (q *Queue) Enq(c *sim.Ctx, item mem.Word) mem.Word {
	if item >= 1<<28 {
		panic(fmt.Sprintf("universal: queue item %d exceeds 28 bits", item))
	}
	return q.o.Invoke(c, queueOpEnq|item<<4)
}

// Deq removes and returns the oldest item, or QueueEmpty if the queue is
// empty.
func (q *Queue) Deq(c *sim.Ctx) mem.Word { return q.o.Invoke(c, queueOpDeq) }

// PeekLen returns the current queue length. Post-run inspection only.
func (q *Queue) PeekLen() int {
	s := q.o.PeekState().(*queueState)
	return s.tail - s.head
}

// Reset empties the queue for a pooled rerun (sim.System.OnReset hooks),
// keeping the grown chain, log and state arena. Must not be called
// mid-run.
func (q *Queue) Reset() {
	q.o.Reset()
	q.log = q.log[:0]
	q.states = q.states[:0]
}

// Stack op encoding.
const (
	stackOpPush = 1
	stackOpPop  = 2
)

// StackEmpty is returned by Pop on an empty stack.
const StackEmpty = mem.Word(1<<32 - 1)

type stackState struct {
	items []mem.Word // persistent: never mutated in place
}

func stackApply(state any, op mem.Word) (any, mem.Word) {
	s := state.(stackState)
	switch op & 0xF {
	case stackOpPush:
		next := stackState{items: make([]mem.Word, len(s.items)+1)}
		copy(next.items, s.items)
		next.items[len(s.items)] = op >> 4
		return next, mem.Word(len(s.items))
	case stackOpPop:
		if len(s.items) == 0 {
			return s, StackEmpty
		}
		return stackState{items: s.items[:len(s.items)-1]}, s.items[len(s.items)-1]
	default:
		panic(fmt.Sprintf("universal: bad stack op %#x", op))
	}
}

// Stack is a wait-free shared LIFO stack for all priority levels of one
// hybrid-scheduled processor, built from reads and writes only. Items
// are words of at most 28 bits.
type Stack struct{ o *Object }

// NewStack returns an empty stack.
func NewStack(name string) *Stack {
	return &Stack{o: New(name, stackState{}, stackApply)}
}

// Push pushes item (≤ 28 bits) and returns the stack size before the
// push.
func (s *Stack) Push(c *sim.Ctx, item mem.Word) mem.Word {
	if item >= 1<<28 {
		panic(fmt.Sprintf("universal: stack item %d exceeds 28 bits", item))
	}
	return s.o.Invoke(c, stackOpPush|item<<4)
}

// Pop removes and returns the newest item, or StackEmpty if the stack is
// empty.
func (s *Stack) Pop(c *sim.Ctx) mem.Word { return s.o.Invoke(c, stackOpPop) }

// PeekLen returns the current stack size. Post-run inspection only.
func (s *Stack) PeekLen() int { return len(s.o.PeekState().(stackState).items) }

// Reset empties the stack for a pooled rerun (sim.System.OnReset hooks).
// Must not be called mid-run.
func (s *Stack) Reset() { s.o.Reset() }

// MultiCounter is a wait-free shared counter spanning P processors,
// built on Fig. 7 consensus over C-consensus objects.
type MultiCounter struct{ o *MultiObject }

// NewMultiCounter returns a multiprocessor counter starting at initial.
func NewMultiCounter(cfg multicons.Config, initial mem.Word) *MultiCounter {
	return &MultiCounter{o: NewMulti(cfg, initial, counterApply)}
}

// Add atomically adds delta (≤ 28 bits) and returns the prior value.
func (ct *MultiCounter) Add(c *sim.Ctx, delta mem.Word) mem.Word {
	if delta >= 1<<28 {
		panic(fmt.Sprintf("universal: counter delta %d exceeds 28 bits", delta))
	}
	return ct.o.Invoke(c, counterOpAdd|delta<<4)
}

// Inc atomically increments and returns the prior value.
func (ct *MultiCounter) Inc(c *sim.Ctx) mem.Word { return ct.Add(c, 1) }

// Peek returns the current value. Post-run inspection only.
func (ct *MultiCounter) Peek() mem.Word { return ct.o.PeekState().(mem.Word) }

// Reset restores the initial value for a pooled rerun (sim.System.OnReset
// hooks). Must not be called mid-run.
func (ct *MultiCounter) Reset() { ct.o.Reset() }
