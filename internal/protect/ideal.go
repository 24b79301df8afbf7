package protect

import (
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

// ideal is the analysis upper bound: redundancy handling is free (as if
// an infinite, zero-latency redundancy cache existed), so the only
// protection costs that remain are the ones no redundancy-side mechanism
// can remove — the decode latency and the fetch-before-partial-write that
// ECC's loss of DRAM write masking forces. The gap between a real scheme
// and ideal is the redundancy-traffic headroom left on the table; the gap
// between ideal and none is the floor cost of inline protection itself.
type ideal struct {
	env *Env
}

// NewIdeal builds the free-redundancy upper-bound controller.
func NewIdeal(env *Env) Scheme { return &ideal{env: env} }

// Name identifies the scheme.
func (s *ideal) Name() string { return "ideal" }

// ReadMiss fetches only the demanded sectors; the redundancy is assumed
// resident, so the read pays just the decode.
func (s *ideal) ReadMiss(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class, done func(sim.Cycle)) {
	join := s.env.NewJoin(now, sectorCount(s.env.Map.Geometry(), mask), lineAddr, true, done)
	s.env.ReadSectors(now, lineAddr, mask, class, join)
}

// Writeback writes the dirty data sectors; redundancy updates are free.
func (s *ideal) Writeback(now sim.Cycle, lineAddr uint64, dirtyMask uint64) {
	s.env.WriteSectors(now, lineAddr, dirtyMask)
}

// NeedsRMWFetch is true: even an infinite redundancy cache cannot restore
// DRAM write masking — the old sector data is still needed to recompute
// the sector's check bytes on a partial write.
func (s *ideal) NeedsRMWFetch() bool { return true }

// Drain has nothing to flush.
func (s *ideal) Drain(sim.Cycle) {}

var _ Scheme = (*ideal)(nil)
