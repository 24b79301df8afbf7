package sim

import (
	"testing"

	"cachecraft/internal/obs"
)

// countHandler is a trivial pooled-event handler for alloc accounting.
type countHandler struct{ n uint64 }

func (h *countHandler) OnEvent(_ Cycle, a0, _ uint64) { h.n += a0 }

// TestPostStepZeroAllocs pins the tentpole guarantee: once the record pool
// is warm, scheduling and running pooled handler events allocates nothing.
func TestPostStepZeroAllocs(t *testing.T) {
	e := NewEngine()
	h := &countHandler{}
	// Warm the pool and the overflow heap's backing array.
	for i := 0; i < 64; i++ {
		e.Post(e.Now()+Cycle(i%7), h, 1, 0)
		e.Post(e.Now()+2*wheelSpan, h, 1, 0)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Post(e.Now()+3, h, 1, 0)
		e.Post(e.Now()+1, h, 1, 0)
		e.Post(e.Now()+wheelSpan+100, h, 1, 0) // overflow path
		e.Step()
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Post/Step allocated %.1f times per run, want 0", allocs)
	}
	if h.n == 0 {
		t.Fatal("handler never ran")
	}
}

// TestDepthProbeZeroAllocs is the probe layer's alloc guard: the engine
// hot path must stay allocation-free both with no step hook (the default
// — one nil check per Step) and with a step-hook subscriber feeding the
// queue depth into a preallocated obs.Series, as the machine observer's
// sim.queue_depth probe does on the -timeline path.
func TestDepthProbeZeroAllocs(t *testing.T) {
	run := func(e *Engine, h *countHandler) float64 {
		for i := 0; i < 64; i++ {
			e.Post(e.Now()+Cycle(i%7), h, 1, 0)
		}
		for e.Step() {
		}
		return testing.AllocsPerRun(1000, func() {
			e.Post(e.Now()+3, h, 1, 0)
			e.Post(e.Now()+1, h, 1, 0)
			e.Step()
			e.Step()
		})
	}

	t.Run("off", func(t *testing.T) {
		if allocs := run(NewEngine(), &countHandler{}); allocs != 0 {
			t.Fatalf("probe-off Step allocated %.1f times per run, want 0", allocs)
		}
	})
	t.Run("on", func(t *testing.T) {
		e := NewEngine()
		p := obs.NewProbesDepth(16, 32)
		depth := p.Series("sim.queue_depth", obs.Mean)
		e.SetStepHook(func(at Cycle) {
			depth.Add(uint64(at), float64(e.Pending()))
		})
		if allocs := run(e, &countHandler{}); allocs != 0 {
			t.Fatalf("probe-on Step allocated %.1f times per run, want 0", allocs)
		}
		p.Flush()
		if len(p.Snapshot()) == 0 {
			t.Fatal("depth probe never observed anything")
		}
	})
}

// TestPostReusesRecords checks that steady-state scheduling recycles
// event records instead of growing the slab.
func TestPostReusesRecords(t *testing.T) {
	e := NewEngine()
	h := &countHandler{}
	for i := 0; i < 32; i++ {
		e.Post(e.Now()+1, h, 0, 0)
	}
	for e.Step() {
	}
	slabLen := len(e.slab)
	for i := 0; i < 10000; i++ {
		e.Post(e.Now()+1, h, 0, 0)
		e.Step()
	}
	if len(e.slab) != slabLen {
		t.Fatalf("slab grew from %d to %d records under steady-state load", slabLen, len(e.slab))
	}
}
