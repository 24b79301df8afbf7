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
	geo := s.env.Map.Geometry()
	join := s.env.NewJoin(now, sectorCount(geo, mask), lineAddr, false, done)
	for sec := 0; sec < geo.SectorsPerLine(); sec++ {
		if mask&(1<<sec) == 0 {
			continue
		}
		s.env.SubmitTo(now, mem.Request{
			Addr:  s.env.Map.DataPhys(lineAddr + uint64(sec*geo.SectorBytes)),
			Bytes: geo.SectorBytes,
			Class: class,
		}, join)
	}
}

// Writeback writes each dirty sector; DRAM write masking handles partial
// coverage, so no reads are needed.
func (s *none) Writeback(now sim.Cycle, lineAddr uint64, dirtyMask uint64) {
	geo := s.env.Map.Geometry()
	base := lineAddr &^ RedTag
	for sec := 0; sec < geo.SectorsPerLine(); sec++ {
		if dirtyMask&(1<<sec) == 0 {
			continue
		}
		s.env.DRAM.Submit(now, mem.Request{
			Addr:  s.env.Map.DataPhys(base + uint64(sec*geo.SectorBytes)),
			Write: true,
			Bytes: geo.SectorBytes,
			Class: mem.Writeback,
		})
	}
}

// NeedsRMWFetch is false: masked DRAM writes need no read.
func (s *none) NeedsRMWFetch() bool { return false }

// Drain has nothing to flush.
func (s *none) Drain(sim.Cycle) {}

var _ Scheme = (*none)(nil)
