// Package sim provides the discrete-event simulation core used by every
// timing model in the repository: an event queue ordered by (cycle, sequence
// number), bandwidth-limited resources, and simple latency pipes.
//
// Every event is a Handler plus two integer arguments, scheduled with
// Engine.Post; there is no closure form, so an event record holds no
// captured state and scheduling allocates nothing.
//
// All timing models in this repository are cycle-approximate and
// deterministic: two runs with identical inputs schedule identical event
// sequences. Determinism is guaranteed by breaking ties in event time with a
// monotonically increasing sequence number.
//
// The queue is a single-level timing wheel over pooled, intrusively-linked
// event records: events within wheelSpan (16384) cycles of the present
// live in per-cycle FIFO buckets (so same-cycle ordering is insertion
// order, which equals sequence order), and farther events wait in a small
// index min-heap keyed by (cycle, seq). Records are recycled through a
// free list, so steady-state scheduling allocates nothing. See
// docs/MODEL.md "Performance notes" for the ordering argument and for the
// count of far-ahead events that sets the span.
//
// Components keep event-carried state in a Pool and find it by address
// through an AddrTable, an open-addressed uint64 → int32 table, so the
// simulation's per-access bookkeeping makes no map operations and, once
// warm, no allocations.
package sim

import "math/bits"

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Handler is the engine's one form of scheduled work: Post stores the
// handler interface plus two integer arguments in a pooled event record, so
// every event (token delivery, bank wakeups, issue loops, decode
// completions) schedules without allocating a closure. Implementations are
// typically defined on a named pointer type of an existing struct, so
// posting reuses the struct's existing allocation, and the arguments carry
// the per-event state (an address, a pooled slot index).
type Handler interface {
	// OnEvent runs at the scheduled cycle with the arguments given to Post.
	OnEvent(now Cycle, a0, a1 uint64)
}

const (
	// wheelBits sets the window to 16384 cycles, wide enough for the
	// farthest common event: an L2 bank operation posted behind the
	// crossbar's request-port reservation, up to about 16k cycles ahead
	// under streaming load (docs/MODEL.md "Performance notes").
	wheelBits = 14
	// wheelSize is the number of per-cycle buckets; events scheduled within
	// wheelSpan cycles of the present go straight to their bucket.
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	wheelSpan = Cycle(wheelSize)
	occWords  = wheelSize / 64
)

// record is one pooled event. Records live in the engine's slab and link
// into bucket FIFOs (or the free list) through next; index 0 is a reserved
// sentinel so a zero link means "end of list".
type record struct {
	at   Cycle
	seq  uint64
	a0   uint64
	a1   uint64
	h    Handler
	next int32
}

// Engine owns simulated time. Components schedule handlers with Post and
// the engine runs them in deterministic (cycle, seq) order.
type Engine struct {
	now     Cycle
	seq     uint64
	pending int

	// slab holds every event record; free heads the recycled-record list.
	slab []record
	free int32

	// The wheel: bucketHead/bucketTail[s] list the events for the single
	// pending cycle congruent to s within the window [now, now+wheelSpan);
	// occ is the bucket-occupancy bitmap used to find the next cycle.
	bucketHead [wheelSize]int32
	bucketTail [wheelSize]int32
	occ        [occWords]uint64

	// overflow holds record indices for events at or beyond now+wheelSpan,
	// as a min-heap keyed by (at, seq). Records migrate into the wheel each
	// time now advances, before any new event can be inserted for their
	// cycle — which is what keeps bucket FIFO order equal to seq order.
	overflow []int32

	stepHook func(at Cycle)
}

// SetStepHook installs the engine's one observer, called once per Step
// with the cycle of the event about to run, after it is dequeued (so
// Pending already excludes it) and before time advances. A nil hook (the
// default) costs one predictable branch per event.
func (e *Engine) SetStepHook(fn func(at Cycle)) { e.stepHook = fn }

// NewEngine returns an engine positioned at cycle 0 with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports how many events are waiting to run.
func (e *Engine) Pending() int { return e.pending }

// alloc takes a record off the free list, growing the slab when empty.
func (e *Engine) alloc() int32 {
	idx := e.free
	if idx == 0 {
		if len(e.slab) == 0 {
			e.slab = append(e.slab, record{}) // index 0 is the list sentinel
		}
		e.slab = append(e.slab, record{})
		return int32(len(e.slab) - 1)
	}
	e.free = e.slab[idx].next
	return idx
}

// Post schedules h.OnEvent(at, a0, a1) without allocating: the handler and
// its arguments are stored in a pooled record. Scheduling in the past is
// treated as scheduling for the current cycle (the event still runs after
// all events already queued for that cycle, preserving causality).
func (e *Engine) Post(at Cycle, h Handler, a0, a1 uint64) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	idx := e.alloc()
	r := &e.slab[idx]
	r.at, r.seq, r.a0, r.a1, r.h = at, e.seq, a0, a1, h
	e.enqueue(idx, at)
}

// enqueue routes a filled record to its bucket or to the overflow heap.
func (e *Engine) enqueue(idx int32, at Cycle) {
	e.pending++
	if at-e.now < wheelSpan {
		e.bucketAppend(idx, at)
	} else {
		e.overflowPush(idx)
	}
}

// bucketAppend puts the record at the tail of its cycle's FIFO.
func (e *Engine) bucketAppend(idx int32, at Cycle) {
	slot := int(at) & wheelMask
	e.slab[idx].next = 0
	if e.bucketHead[slot] == 0 {
		e.bucketHead[slot] = idx
		e.occ[slot>>6] |= 1 << uint(slot&63)
	} else {
		e.slab[e.bucketTail[slot]].next = idx
	}
	e.bucketTail[slot] = idx
}

// migrate moves every overflow event now inside the wheel window onto the
// wheel. It must run each time now advances (including Run's park-at-limit)
// before any event executes or is inserted under the new window: overflow
// events carry smaller sequence numbers than any future insert for the same
// cycle, so appending them first keeps bucket FIFOs in sequence order.
func (e *Engine) migrate(now Cycle) {
	horizon := now + wheelSpan
	for len(e.overflow) > 0 && e.slab[e.overflow[0]].at < horizon {
		idx := e.overflowPop()
		e.bucketAppend(idx, e.slab[idx].at)
	}
}

// nextTime reports the cycle of the earliest pending event.
func (e *Engine) nextTime() (Cycle, bool) {
	start := int(e.now) & wheelMask
	if idx := e.bucketHead[start]; idx != 0 {
		return e.slab[idx].at, true
	}
	if slot := e.nextOccupied(start); slot >= 0 {
		return e.slab[e.bucketHead[slot]].at, true
	}
	if len(e.overflow) > 0 {
		return e.slab[e.overflow[0]].at, true
	}
	return 0, false
}

// nextOccupied scans the occupancy bitmap circularly from start. Because
// every pending wheel cycle lies within one span of now, circular slot
// distance equals cycle distance, so the first occupied slot is the
// earliest pending cycle.
func (e *Engine) nextOccupied(start int) int {
	w := start >> 6
	if word := e.occ[w] >> uint(start&63); word != 0 {
		return start + bits.TrailingZeros64(word)
	}
	for i := 1; i <= occWords; i++ {
		idx := (w + i) & (occWords - 1)
		if word := e.occ[idx]; word != 0 {
			return idx<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Step runs the single earliest event. It reports false when the queue is
// empty.
func (e *Engine) Step() bool {
	slot := int(e.now) & wheelMask
	idx := e.bucketHead[slot]
	if idx == 0 {
		at, ok := e.nextTime()
		if !ok {
			return false
		}
		e.migrate(at)
		slot = int(at) & wheelMask
		idx = e.bucketHead[slot]
	}
	r := &e.slab[idx]
	next := r.next
	e.bucketHead[slot] = next
	if next == 0 {
		e.bucketTail[slot] = 0
		e.occ[slot>>6] &^= 1 << uint(slot&63)
	}
	at, h, a0, a1 := r.at, r.h, r.a0, r.a1
	r.h = nil
	r.next = e.free
	e.free = idx
	e.pending--
	if e.stepHook != nil {
		e.stepHook(at)
	}
	e.now = at
	h.OnEvent(at, a0, a1)
	return true
}

// Run drains the event queue, advancing time until nothing remains or the
// cycle limit is exceeded. It returns the cycle at which it stopped.
//
// The two stopping conditions leave now in deliberately different states:
// parking at the limit (events remain beyond it) advances now to limit,
// while draining the queue empty leaves now at the last event's cycle. The
// machine relies on the latter — its end-of-run drain calls Run with a huge
// limit, and the audit layer's end-of-simulation cycle must be the last
// real event, not the sentinel limit. TestEngineRunSemantics pins both
// behaviours.
func (e *Engine) Run(limit Cycle) Cycle {
	for {
		at, ok := e.nextTime()
		if !ok {
			break
		}
		if at > limit {
			if e.now < limit {
				e.now = limit
				e.migrate(limit)
			}
			break
		}
		e.Step()
	}
	return e.now
}

// RunUntil drains events while cond keeps returning false, subject to the
// same cycle limit as Run. It returns true if cond was satisfied.
func (e *Engine) RunUntil(limit Cycle, cond func() bool) bool {
	for !cond() {
		at, ok := e.nextTime()
		if !ok || at > limit {
			return false
		}
		e.Step()
	}
	return true
}
