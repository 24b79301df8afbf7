package protect

import (
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

// none is the unprotected baseline: reads fetch exactly the demanded
// sectors, writes go straight to DRAM with byte masking, and no redundancy
// traffic exists.
type none struct {
	env *Env
}

// NewNone builds the unprotected baseline controller.
func NewNone(env *Env) Scheme { return &none{env: env} }

// Name identifies the scheme.
func (s *none) Name() string { return "none" }

// ReadMiss fetches each requested sector and completes when all arrive.
func (s *none) ReadMiss(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class, done func(sim.Cycle)) {
	join := s.env.NewJoin(now, sectorCount(s.env.Map.Geometry(), mask), lineAddr, false, done)
	s.env.ReadSectors(now, lineAddr, mask, class, join)
}

// Writeback writes each dirty sector; DRAM write masking handles partial
// coverage, so no reads are needed.
func (s *none) Writeback(now sim.Cycle, lineAddr uint64, dirtyMask uint64) {
	s.env.WriteSectors(now, lineAddr, dirtyMask)
}

// NeedsRMWFetch is false: masked DRAM writes need no read.
func (s *none) NeedsRMWFetch() bool { return false }

// Drain has nothing to flush.
func (s *none) Drain(sim.Cycle) {}

var _ Scheme = (*none)(nil)
