package protect

import (
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

// SchemeSink observes controller-level events: every ReadMiss issued
// (with its completion) and every Writeback. The gpu machine's observer
// implements it and fans the events out to its subscribers.
type SchemeSink interface {
	// ReadMissIssued records a controller read and returns a token that
	// identifies it to ReadMissDone.
	ReadMissIssued(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class) uint64
	// ReadMissDone records the completion of a read issued at cycle
	// issued, so a sink can time the read without keeping its own state.
	ReadMissDone(issued, at sim.Cycle, token uint64)
	// WritebackIssued records a writeback handed to the controller.
	WritebackIssued(now sim.Cycle, lineAddr uint64, dirtyMask uint64)
}

// WrapObserved decorates a scheme so every ReadMiss and Writeback is
// reported to the sink before being forwarded. It is the scheme's one
// observation slot. The wrapper preserves the inner scheme's
// ReconstructionObserver capability so predictor feedback keeps flowing
// when the scheme is CacheCraft.
func WrapObserved(s Scheme, sink SchemeSink) Scheme {
	o := &observedScheme{inner: s, sink: sink}
	if ro, ok := s.(ReconstructionObserver); ok {
		return &observedObserver{observedScheme: o, ro: ro}
	}
	return o
}

type observedScheme struct {
	inner Scheme
	sink  SchemeSink
}

func (o *observedScheme) Name() string { return o.inner.Name() }

func (o *observedScheme) ReadMiss(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class, done func(sim.Cycle)) {
	token := o.sink.ReadMissIssued(now, lineAddr, mask, class)
	o.inner.ReadMiss(now, lineAddr, mask, class, func(at sim.Cycle) {
		o.sink.ReadMissDone(now, at, token)
		done(at)
	})
}

func (o *observedScheme) Writeback(now sim.Cycle, lineAddr uint64, dirtyMask uint64) {
	o.sink.WritebackIssued(now, lineAddr, dirtyMask)
	o.inner.Writeback(now, lineAddr, dirtyMask)
}

func (o *observedScheme) NeedsRMWFetch() bool { return o.inner.NeedsRMWFetch() }

func (o *observedScheme) Drain(now sim.Cycle) { o.inner.Drain(now) }

// observedObserver adds ReconstructionObserver forwarding for schemes that
// implement it (CacheCraft).
type observedObserver struct {
	*observedScheme
	ro ReconstructionObserver
}

func (o *observedObserver) ReconstructedUse(addr uint64, used bool) {
	o.ro.ReconstructedUse(addr, used)
}

var (
	_ Scheme                 = (*observedScheme)(nil)
	_ Scheme                 = (*observedObserver)(nil)
	_ ReconstructionObserver = (*observedObserver)(nil)
)
