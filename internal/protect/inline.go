package protect

import (
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
)

// inlineNaive is inline ECC with no redundancy caching: the worst case the
// title's problem statement describes. Every read miss issues a second
// DRAM access for the granule's redundancy block; every writeback pays a
// read-modify-write of the redundancy block (ECC disables DRAM write
// masking, and the block packs check bytes for eight sectors, so a partial
// update must read the old block first).
type inlineNaive struct {
	env         *Env
	stReadsDRAM stats.Handle
}

// NewInlineNaive builds the uncached inline-ECC baseline.
func NewInlineNaive(env *Env) Scheme {
	return &inlineNaive{env: env, stReadsDRAM: env.Stats.Handle("red_reads_dram")}
}

// Name identifies the scheme.
func (s *inlineNaive) Name() string { return "inline-naive" }

// ReadMiss fetches the demanded data sectors plus the covering redundancy
// block, and completes after ECC decode when both have arrived. A 128B
// line sits inside one 256B+ granule, so one redundancy fetch suffices.
func (s *inlineNaive) ReadMiss(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class, done func(sim.Cycle)) {
	geo := s.env.Map.Geometry()
	env := s.env
	join := env.NewJoin(now, sectorCount(geo, mask)+1, lineAddr, true, done)
	env.ReadSectors(now, lineAddr, mask, class, join)
	s.stReadsDRAM.Inc()
	env.SubmitTo(now, mem.Request{
		Addr:  env.Map.RedundancyAddr(lineAddr),
		Bytes: geo.RedBlockBytes,
		Class: mem.Redundancy,
	}, join)
}

// Writeback writes the dirty data sectors and performs the redundancy
// read-modify-write: read the old block, then write the merged block.
// When the writeback covers the entire granule the old block is not
// needed, but the naive controller has no cross-writeback visibility and a
// 128B line can never cover a 256B granule, so it always reads.
func (s *inlineNaive) Writeback(now sim.Cycle, lineAddr uint64, dirtyMask uint64) {
	env := s.env
	env.WriteSectors(now, lineAddr, dirtyMask)
	env.RedundancyRMW(now, env.Map.RedundancyAddr(lineAddr))
}

// NeedsRMWFetch is true: partial-sector stores must read the old sector
// because write masking is unavailable under ECC.
func (s *inlineNaive) NeedsRMWFetch() bool { return true }

// Drain has nothing to flush.
func (s *inlineNaive) Drain(sim.Cycle) {}

var _ Scheme = (*inlineNaive)(nil)
