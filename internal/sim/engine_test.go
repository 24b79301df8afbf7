package sim

import (
	"testing"
	"testing/quick"
)

// fn adapts a closure to Handler, so tests can schedule ad-hoc work through
// Post, the engine's one scheduling form.
type fn func(now Cycle)

func (f fn) OnEvent(now Cycle, _, _ uint64) { f(now) }

// postFn schedules f at cycle at.
func postFn(e *Engine, at Cycle, f func(Cycle)) { e.Post(at, fn(f), 0, 0) }

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	postFn(e, 30, func(Cycle) { order = append(order, 3) })
	postFn(e, 10, func(Cycle) { order = append(order, 1) })
	postFn(e, 20, func(Cycle) { order = append(order, 2) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("engine stopped at cycle %d, want 30", e.Now())
	}
}

func TestEngineBreaksTiesInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		postFn(e, 5, func(Cycle) { order = append(order, i) })
	}
	e.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated FIFO: position %d got %d", i, v)
		}
	}
}

func TestEnginePastSchedulingClampsToNow(t *testing.T) {
	e := NewEngine()
	var ranAt Cycle
	postFn(e, 50, func(now Cycle) {
		postFn(e, 1, func(now Cycle) { ranAt = now }) // "1" is in the past
	})
	e.Run(100)
	if ranAt != 50 {
		t.Fatalf("past-scheduled event ran at %d, want clamped to 50", ranAt)
	}
}

func TestEngineRunHonorsLimit(t *testing.T) {
	e := NewEngine()
	ran := false
	postFn(e, 1000, func(Cycle) { ran = true })
	e.Run(100)
	if ran {
		t.Fatal("event beyond the limit must not run")
	}
	if e.Now() != 100 {
		t.Fatalf("engine should park at the limit, got %d", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		postFn(e, Cycle(i*10), func(Cycle) { count++ })
	}
	ok := e.RunUntil(1000, func() bool { return count >= 3 })
	if !ok {
		t.Fatal("RunUntil should have satisfied the condition")
	}
	if count != 3 {
		t.Fatalf("count = %d, want exactly 3 (stop as soon as satisfied)", count)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %d, want 30", e.Now())
	}
	if ok := e.RunUntil(1000, func() bool { return count >= 100 }); ok {
		t.Fatal("RunUntil cannot satisfy an unreachable condition")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func(now Cycle)
	recurse = func(now Cycle) {
		depth++
		if depth < 5 {
			postFn(e, e.Now()+7, recurse)
		}
	}
	postFn(e, 0, recurse)
	e.Run(1000)
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if e.Now() != 28 {
		t.Fatalf("now = %d, want 28", e.Now())
	}
}

func TestThrottledPortBandwidth(t *testing.T) {
	p := NewThrottledPort(32)
	// 64 bytes at 32 B/cycle = 2 cycles of link time.
	if got := p.Transfer(0, 64); got != 2 {
		t.Fatalf("delivery at %d, want 2", got)
	}
	// Second transfer queues behind the first.
	if got := p.Transfer(0, 64); got != 4 {
		t.Fatalf("second delivery at %d, want 4", got)
	}
	if p.BusyBytes() != 128 {
		t.Fatalf("busy = %d bytes, want 128", p.BusyBytes())
	}
}

func TestThrottledPortSubCycleSharing(t *testing.T) {
	// Four 8-byte messages share one 32 B/cycle slot: all deliver by the
	// end of cycle 1; a fifth spills into the next cycle.
	p := NewThrottledPort(32)
	for i := 0; i < 4; i++ {
		if got := p.Transfer(0, 8); got != 1 {
			t.Fatalf("message %d delivered at %d, want 1", i, got)
		}
	}
	if got := p.Transfer(0, 8); got != 2 {
		t.Fatalf("fifth message delivered at %d, want 2", got)
	}
}

func TestThrottledPortZeroByteTransferStillOccupies(t *testing.T) {
	p := NewThrottledPort(32)
	if got := p.Transfer(0, 0); got != 1 {
		t.Fatalf("zero-byte transfer delivered at %d, want 1 (minimum byte)", got)
	}
}

func TestBusyBytes(t *testing.T) {
	p := NewThrottledPort(32)
	p.Transfer(0, 64)
	if b := p.BusyBytes(); b != 64 {
		t.Fatalf("port busy bytes = %d, want 64", b)
	}
}

func TestStepAndPending(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue must report false")
	}
	postFn(e, e.Now()+5, func(Cycle) {})
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	if !e.Step() {
		t.Fatal("Step should run the event")
	}
	if e.Now() != 5 || e.Pending() != 0 {
		t.Fatalf("now=%d pending=%d", e.Now(), e.Pending())
	}
}

func TestEventOrderingProperty(t *testing.T) {
	// Events scheduled at arbitrary times always run in nondecreasing time
	// order, with FIFO order within a cycle.
	f := func(times []uint16) bool {
		e := NewEngine()
		type stamp struct {
			at  Cycle
			seq int
		}
		var ran []stamp
		for i, tm := range times {
			i, tm := i, tm
			postFn(e, Cycle(tm), func(now Cycle) {
				ran = append(ran, stamp{at: now, seq: i})
			})
		}
		e.Run(1 << 30)
		if len(ran) != len(times) {
			return false
		}
		for i := 1; i < len(ran); i++ {
			if ran[i].at < ran[i-1].at {
				return false
			}
			if ran[i].at == ran[i-1].at && ran[i].seq < ran[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRunSemantics pins Run's two deliberately different stopping
// states: parking at the limit (events remain beyond it) advances now to
// the limit, while draining the queue empty leaves now at the last event's
// cycle. The machine's end-of-run drain depends on the empty-drain case —
// it calls Run with a huge sentinel limit and then reads Now() as the true
// end of simulation.
func TestEngineRunSemantics(t *testing.T) {
	// Park: an event beyond the limit leaves now == limit.
	e := NewEngine()
	postFn(e, 30, func(Cycle) {})
	postFn(e, 500, func(Cycle) {})
	if got := e.Run(100); got != 100 {
		t.Fatalf("parked Run returned %d, want limit 100", got)
	}
	if e.Now() != 100 || e.Pending() != 1 {
		t.Fatalf("after park: now=%d pending=%d, want now=100 pending=1", e.Now(), e.Pending())
	}

	// Empty drain: now stays at the last event's cycle, not the limit.
	if got := e.Run(1_000_000); got != 500 {
		t.Fatalf("drained Run returned %d, want last event cycle 500", got)
	}
	if e.Now() != 500 || e.Pending() != 0 {
		t.Fatalf("after drain: now=%d pending=%d, want now=500 pending=0", e.Now(), e.Pending())
	}

	// Run on an already-empty queue does not advance time at all.
	if got := e.Run(1_000_000); got != 500 {
		t.Fatalf("empty Run returned %d, want unchanged 500", got)
	}
}
