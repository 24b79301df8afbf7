package protect

import (
	"math/bits"

	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
)

// eccCache is the production-style baseline: redundancy blocks are cached
// in the L2 alongside data, tagged into a disjoint address space (RedTag).
// Redundancy locality is captured — at the price of L2 capacity contention
// with demand data — and redundancy writebacks are coalesced in the L2 the
// same way data writebacks are.
type eccCache struct {
	env *Env
	// pending holds outstanding redundancy fetches by tagged address; a
	// fetch's flag marks it dirty (a writeback folded into it).
	pending *Fetches

	// Pre-resolved counter handles; they resolve lazily, so env.Stats
	// keeps its first-touch creation order.
	stL2Hits, stMerged, stReadsDRAM, stWritebacks stats.Handle
}

// NewECCCache builds the L2-redundancy-caching baseline.
func NewECCCache(env *Env) Scheme {
	s := &eccCache{
		env:          env,
		stL2Hits:     env.Stats.Handle("red_l2_hits"),
		stMerged:     env.Stats.Handle("red_merged"),
		stReadsDRAM:  env.Stats.Handle("red_reads_dram"),
		stWritebacks: env.Stats.Handle("red_writebacks"),
	}
	s.pending = NewFetches(env, s.redArrived)
	return s
}

// Name identifies the scheme.
func (s *eccCache) Name() string { return "ecc-cache" }

// redReady arranges for one arrival at ready as soon as the redundancy
// block covering lineAddr is available: immediately on an L2 hit, or when
// the (possibly already outstanding) DRAM fetch returns.
func (s *eccCache) redReady(now sim.Cycle, lineAddr uint64, markDirty bool, ready Join) {
	env := s.env
	tagged := RedTag | env.Map.RedundancyAddr(lineAddr)
	if env.L2.Present(tagged) {
		s.stL2Hits.Inc()
		if markDirty {
			env.L2.MarkDirty(tagged)
		}
		env.ArriveAt(now, ready)
		return
	}
	if s.pending.Wait(tagged, markDirty, ready) {
		s.stMerged.Inc()
		return
	}
	s.stReadsDRAM.Inc()
	class := mem.Redundancy
	if markDirty {
		class = mem.RMW // a write-allocate fetch exists only to merge new checks
	}
	s.pending.Start(now, tagged, markDirty, ready, mem.Request{
		Addr:  tagged &^ RedTag,
		Bytes: env.Map.Geometry().RedBlockBytes,
		Class: class,
	})
}

// redArrived fills a fetched redundancy block into the L2.
func (s *eccCache) redArrived(at sim.Cycle, tagged uint64, dirty, _ bool) {
	s.env.L2.Insert(at, tagged, dirty)
}

// ReadMiss fetches the demanded sectors and waits for the redundancy block
// (L2 or DRAM), completing after decode.
func (s *eccCache) ReadMiss(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class, done func(sim.Cycle)) {
	env := s.env
	join := env.NewJoin(now, sectorCount(env.Map.Geometry(), mask)+1, lineAddr, true, done)
	env.ReadSectors(now, lineAddr, mask, class, join)
	s.redReady(now, lineAddr, false, join)
}

// Writeback writes dirty data sectors and folds the redundancy update into
// the cached block (allocating it if needed). Evicted dirty redundancy
// lines come back through this method carrying RedTag and are plain
// writes.
func (s *eccCache) Writeback(now sim.Cycle, lineAddr uint64, dirtyMask uint64) {
	env := s.env
	if lineAddr&RedTag != 0 {
		// The line's sectors are carve-out addresses already, each
		// written whole.
		geo := env.Map.Geometry()
		for m := dirtyMask & lineMask(geo); m != 0; m &= m - 1 {
			s.stWritebacks.Inc()
			env.DRAM.Submit(now, mem.Request{
				Addr:  lineAddr&^RedTag + uint64(bits.TrailingZeros64(m)*geo.SectorBytes),
				Write: true,
				Bytes: geo.SectorBytes,
				Class: mem.Redundancy,
			})
		}
		return
	}
	env.WriteSectors(now, lineAddr, dirtyMask)
	s.redReady(now, lineAddr, true, NoJoin)
}

// NeedsRMWFetch is true under ECC.
func (s *eccCache) NeedsRMWFetch() bool { return true }

// Drain has nothing controller-side to flush: dirty redundancy lives in
// the L2 and drains with the machine's cache flush.
func (s *eccCache) Drain(sim.Cycle) {}

var _ Scheme = (*eccCache)(nil)
