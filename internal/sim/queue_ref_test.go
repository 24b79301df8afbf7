package sim

import (
	"container/heap"
	"testing"
)

// refEngine is the original container/heap event queue, kept here as the
// ordering oracle: the timing-wheel engine must execute any schedule in
// exactly the same (cycle, seq) order.

type refEvent struct {
	at  Cycle
	seq uint64
	fn  func(Cycle)
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }

type refEngine struct {
	now    Cycle
	seq    uint64
	events refHeap
}

func (e *refEngine) schedule(at Cycle, fn func(Cycle)) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.events, refEvent{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(refEvent)
	e.now = ev.at
	ev.fn(e.now)
	return true
}

// execRecord is one observed event execution.
type execRecord struct {
	at Cycle
	id uint64
}

// spawnPlan derives, purely from an event's id and the scenario seed, the
// offsets of the events it schedules when it runs — so both engines make
// identical scheduling decisions.
func spawnPlan(seed, id uint64) []int64 {
	rng := splitmix{mixRef(seed ^ id)}
	if rng.intn(3) == 0 {
		return nil
	}
	n := 1 + rng.intn(3)
	out := make([]int64, n)
	for i := range out {
		switch rng.intn(5) {
		case 0:
			out[i] = 0 // same-cycle tie
		case 1:
			out[i] = -int64(1 + rng.intn(20)) // past: clamps to now
		case 2:
			out[i] = int64(1 + rng.intn(64)) // near future
		case 3:
			out[i] = int64(1 + rng.intn(wheelSize-1)) // anywhere in the wheel
		default:
			out[i] = int64(wheelSize + rng.intn(10*wheelSize)) // overflow heap
		}
	}
	return out
}

// splitmix is a splitmix64 stream over mixRef. Seeding it is free, which
// matters here: spawnPlan seeds a fresh stream for every event it plans.
type splitmix struct{ state uint64 }

func (r *splitmix) intn(n int) int {
	r.state += 0x9e3779b97f4a7c15
	return int(mixRef(r.state) % uint64(n))
}

func mixRef(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// postLogger is the wheel engine's event handler: a0 is the event id, and
// the handler spawns that id's plan just like the reference's closures.
type postLogger struct {
	t *wheelDriver
}

func (p *postLogger) OnEvent(now Cycle, a0, _ uint64) { p.t.ran(now, a0) }

// wheelDriver runs a scenario on the timing-wheel engine.
type wheelDriver struct {
	eng    *Engine
	seed   uint64
	nextID uint64
	log    []execRecord
	ph     *postLogger
}

func (d *wheelDriver) schedule(at Cycle, id uint64) {
	d.eng.Post(at, d.ph, id, 0)
}

func (d *wheelDriver) ran(now Cycle, id uint64) {
	d.log = append(d.log, execRecord{at: now, id: id})
	for _, off := range spawnPlan(d.seed, id) {
		d.nextID++
		d.schedule(Cycle(int64(now)+off), d.nextID)
	}
}

// refDriver runs the same scenario on the reference heap.
type refDriver struct {
	eng    *refEngine
	seed   uint64
	nextID uint64
	log    []execRecord
}

func (d *refDriver) schedule(at Cycle, id uint64) {
	d.eng.schedule(at, func(now Cycle) { d.ran(now, id) })
}

func (d *refDriver) ran(now Cycle, id uint64) {
	d.log = append(d.log, execRecord{at: now, id: id})
	for _, off := range spawnPlan(d.seed, id) {
		d.nextID++
		d.schedule(Cycle(int64(now)+off), d.nextID)
	}
}

// TestQueueOrderMatchesReferenceHeap drives randomized self-expanding
// schedules — same-cycle ties, past-cycle clamps, wheel-window inserts, and
// far-future overflow events — through both queues and requires identical
// execution order.
func TestQueueOrderMatchesReferenceHeap(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		wd := &wheelDriver{eng: NewEngine(), seed: seed}
		wd.ph = &postLogger{t: wd}
		rd := &refDriver{eng: &refEngine{}, seed: seed}

		// Seed both with the same initial batch, including duplicate cycles.
		rng := splitmix{seed}
		for i := 0; i < 30; i++ {
			at := Cycle(rng.intn(3 * wheelSize))
			wd.nextID++
			wd.schedule(at, wd.nextID)
			rd.nextID++
			rd.schedule(at, rd.nextID)
		}

		const maxEvents = 20000
		for len(wd.log) < maxEvents && wd.eng.Step() {
		}
		for len(rd.log) < maxEvents && rd.eng.Step() {
		}

		if len(wd.log) != len(rd.log) {
			t.Fatalf("seed %d: wheel ran %d events, reference ran %d", seed, len(wd.log), len(rd.log))
		}
		for i := range wd.log {
			if wd.log[i] != rd.log[i] {
				t.Fatalf("seed %d: divergence at event %d: wheel %+v, reference %+v",
					seed, i, wd.log[i], rd.log[i])
			}
		}
	}
}

// TestQueueOrderAcrossRunPark checks that parking at a limit (which advances
// now without executing anything) does not perturb ordering relative to the
// reference, including overflow events migrating across the park.
func TestQueueOrderAcrossRunPark(t *testing.T) {
	e := NewEngine()
	r := &refEngine{}
	var elog, rlog []execRecord
	for i := uint64(0); i < 200; i++ {
		at := Cycle((i * 7919) % (5 * wheelSize))
		id := i
		postFn(e, at, func(now Cycle) { elog = append(elog, execRecord{now, id}) })
		r.schedule(at, func(now Cycle) { rlog = append(rlog, execRecord{now, id}) })
	}
	// Park repeatedly at limits that land between, on, and past events.
	for _, limit := range []Cycle{100, 101, wheelSize, wheelSize + 1, 3 * wheelSize, 10 * wheelSize} {
		e.Run(limit)
		for len(r.events) > 0 && r.events[0].at <= limit {
			r.Step()
		}
		// Schedule more work relative to the parked position.
		id := uint64(1000) + uint64(limit)
		postFn(e, e.Now()+5, func(now Cycle) { elog = append(elog, execRecord{now, id}) })
		r.now = e.Now()
		r.schedule(r.now+5, func(now Cycle) { rlog = append(rlog, execRecord{now, id}) })
	}
	e.Run(1 << 40)
	for r.Step() {
	}
	if len(elog) != len(rlog) {
		t.Fatalf("wheel ran %d events, reference ran %d", len(elog), len(rlog))
	}
	for i := range elog {
		if elog[i] != rlog[i] {
			t.Fatalf("divergence at %d: wheel %+v, reference %+v", i, elog[i], rlog[i])
		}
	}
}
