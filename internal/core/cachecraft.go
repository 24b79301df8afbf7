// Package core implements CacheCraft, the reconstructed-caching memory
// protection controller this repository reproduces. The controller turns
// the traffic that inline ECC forces on the memory system into useful
// cache contents instead of discarding it:
//
//   - Granule reconstruction (R): a demand miss needs its granule's
//     redundancy block anyway, and the granule's sibling sectors sit in
//     the same DRAM row; CacheCraft fetches them on the open row and
//     inserts them into the L2, converting protection overfetch into
//     prefetch.
//   - Redundancy cache (RC): a small dedicated cache for redundancy
//     blocks, capturing the 1-block-covers-8-sectors spatial reuse without
//     stealing L2 capacity from demand data.
//   - Reuse predictor (P): a region-indexed saturating-counter table that
//     learns whether reconstructed sectors get used before eviction and
//     throttles reconstruction for pollution-prone regions.
//   - Write-coalescing buffer (W): redundancy updates from writebacks are
//     buffered per block; once every sector of a granule has been written
//     the block can be written blind, eliminating the redundancy
//     read-modify-write.
//
// The mechanisms are independently toggleable for the ablation study
// (Fig. 9).
package core

import (
	"math/bits"
	"slices"

	"cachecraft/internal/cache"
	"cachecraft/internal/mem"
	"cachecraft/internal/protect"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
)

// Options configures CacheCraft. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// Reconstruct enables granule reconstruction (R).
	Reconstruct bool
	// UseRC enables the dedicated redundancy cache (RC).
	UseRC bool
	// Predictor enables the reconstruction reuse predictor (P); without it
	// reconstruction is always on (when Reconstruct is).
	Predictor bool
	// WBuf enables the write-coalescing buffer (W).
	WBuf bool

	// RC geometry.
	RCSizeBytes int
	RCWays      int
	// RCLatency is the redundancy-cache hit latency.
	RCLatency sim.Cycle

	// Predictor geometry: regions of 2^PredRegionBits bytes map onto a
	// table of PredEntries two-bit counters.
	PredRegionBits int
	PredEntries    int

	// Write buffer geometry.
	WBufEntries int
	// WBufTimeout flushes a partially-coalesced entry after this many
	// cycles.
	WBufTimeout sim.Cycle
}

// DefaultOptions returns the full CacheCraft configuration used by the
// main evaluation: all four mechanisms on, 64 KiB RC, 64-entry write
// buffer.
func DefaultOptions() Options {
	return Options{
		Reconstruct:    true,
		UseRC:          true,
		Predictor:      true,
		WBuf:           true,
		RCSizeBytes:    64 << 10,
		RCWays:         16,
		RCLatency:      8,
		PredRegionBits: 14,
		PredEntries:    1024,
		WBufEntries:    64,
		WBufTimeout:    2000,
	}
}

// NewFactory returns a protect.Factory building CacheCraft controllers
// with the given options.
func NewFactory(opt Options) protect.Factory {
	return func(env *protect.Env) protect.Scheme { return New(env, opt) }
}

// CacheCraft is the controller. It implements protect.Scheme and
// protect-side reconstruction feedback.
type CacheCraft struct {
	env *protect.Env
	opt Options

	rc         *cache.Cache
	pendingRed *protect.Fetches // redundancy fetches by tagged address

	// reconInFlight tracks reconstruction fetches by sector address; a
	// demand miss arriving while its sector is already being reconstructed
	// merges with the fetch instead of duplicating it.
	reconInFlight *protect.Fetches

	pred       []uint8
	sampleTick uint64

	// wbuf indexes the write buffer's entries, pooled in wbufSlots, by
	// tagged block address. wbufFIFO lists every entry in creation order,
	// which is generation order; an entry that has left the buffer stays
	// listed until it reaches the head (from wfHead), where it is dropped
	// as stale, so the first live entry listed is always the oldest.
	wbuf      sim.AddrTable
	wbufSlots sim.Pool[wbufEntry]
	wbufFIFO  []wbufRef
	wfHead    int
	wbufGen   uint64

	// Pre-resolved counter handles for the miss and writeback paths. They
	// resolve lazily, so env.Stats keeps its first-touch creation order.
	stWbufFwd, stRCHits, stMerged, stReadsDRAM, stRCDirtyEvictions  stats.Handle
	stReconUsed, stReconWasted, stReconSectors, stReconMerged       stats.Handle
	stWbRCHits, stBlindWrites, stRMW, stWbufTimeout, stWbufOverflow stats.Handle
}

type wbufEntry struct {
	mask uint64 // granule sectors whose checks are known
	gen  uint64 // generation for timeout validation
}

// wbufRef names one write-buffer entry: it is live while the buffer holds
// tagged with generation gen.
type wbufRef struct {
	tagged uint64
	gen    uint64
}

// New builds a CacheCraft controller.
func New(env *protect.Env, opt Options) *CacheCraft {
	st := env.Stats
	c := &CacheCraft{
		env:                env,
		opt:                opt,
		stWbufFwd:          st.Handle("red_wbuf_fwd"),
		stRCHits:           st.Handle("red_rc_hits"),
		stMerged:           st.Handle("red_merged"),
		stReadsDRAM:        st.Handle("red_reads_dram"),
		stRCDirtyEvictions: st.Handle("red_rc_dirty_evictions"),
		stReconUsed:        st.Handle("reconstruct_used"),
		stReconWasted:      st.Handle("reconstruct_wasted"),
		stReconSectors:     st.Handle("reconstruct_sectors"),
		stReconMerged:      st.Handle("reconstruct_merged"),
		stWbRCHits:         st.Handle("red_wb_rc_hits"),
		stBlindWrites:      st.Handle("red_blind_writes"),
		stRMW:              st.Handle("red_rmw"),
		stWbufTimeout:      st.Handle("red_wbuf_timeout"),
		stWbufOverflow:     st.Handle("red_wbuf_overflow"),
	}
	c.pendingRed = protect.NewFetches(env, c.redArrived)
	c.reconInFlight = protect.NewFetches(env, c.reconArrived)
	if opt.UseRC {
		c.rc = cache.New(cache.Config{
			Name:        "rc",
			SizeBytes:   opt.RCSizeBytes,
			Ways:        opt.RCWays,
			LineBytes:   env.Map.Geometry().RedBlockBytes,
			SectorBytes: env.Map.Geometry().RedBlockBytes,
			Repl:        cache.LRU,
		})
	}
	if opt.Predictor {
		n := opt.PredEntries
		if n <= 0 {
			n = 1024
		}
		c.pred = make([]uint8, n)
		for i := range c.pred {
			c.pred[i] = predMax // optimistic start: reconstruct until proven wasteful
		}
	}
	return c
}

// Name identifies the scheme.
func (c *CacheCraft) Name() string { return "cachecraft" }

// RC exposes the redundancy cache for tests and stats (nil when disabled).
func (c *CacheCraft) RC() *cache.Cache { return c.rc }

// taggedRed returns the RedTag-qualified redundancy block address covering
// a data address.
func (c *CacheCraft) taggedRed(dataAddr uint64) uint64 {
	return protect.RedTag | c.env.Map.RedundancyAddr(dataAddr)
}

// granuleMask converts a sector mask of the line at lineAddr to the same
// sectors' mask within their granule: a line lies inside one granule, so
// it is the in-line mask shifted by the line's sector offset.
func (c *CacheCraft) granuleMask(lineAddr, mask uint64) uint64 {
	geo := c.env.Map.Geometry()
	off := (lineAddr - c.env.Map.GranuleBase(lineAddr)) / uint64(geo.SectorBytes)
	return (mask & (uint64(1)<<geo.SectorsPerLine() - 1)) << off
}

// --- Redundancy read path -------------------------------------------------

// redReady arrives at ready once the redundancy block covering lineAddr
// is available, trying the write buffer, the RC, and DRAM in that order.
// neededMask is the granule-sector mask the caller must verify (for write
// buffer forwarding).
func (c *CacheCraft) redReady(now sim.Cycle, lineAddr uint64, neededMask uint64, ready protect.Join) {
	env := c.env
	tagged := c.taggedRed(lineAddr)

	// Forward from the write buffer when it already holds the needed
	// checks (they are newer than DRAM's).
	if c.opt.WBuf {
		if slot, ok := c.wbuf.Get(tagged); ok && c.wbufSlots.At(slot).mask&neededMask == neededMask {
			c.stWbufFwd.Inc()
			env.ArriveAt(now, ready)
			return
		}
	}
	if c.opt.UseRC {
		if c.rc.Access(tagged, false) == cache.Hit {
			c.stRCHits.Inc()
			env.ArriveAt(now+c.opt.RCLatency, ready)
			return
		}
	}
	if c.pendingRed.Wait(tagged, false, ready) {
		c.stMerged.Inc()
		return
	}
	c.stReadsDRAM.Inc()
	c.pendingRed.Start(now, tagged, false, ready, mem.Request{
		Addr:  tagged &^ protect.RedTag,
		Bytes: env.Map.Geometry().RedBlockBytes,
		Class: mem.Redundancy,
	})
}

// redArrived fills a fetched redundancy block into the RC.
func (c *CacheCraft) redArrived(at sim.Cycle, tagged uint64, _, _ bool) {
	c.insertRC(at, tagged, false)
}

// insertRC fills a redundancy block into the RC, writing back any dirty
// victim.
func (c *CacheCraft) insertRC(now sim.Cycle, tagged uint64, dirty bool) {
	if !c.opt.UseRC {
		return
	}
	var dmask uint64
	if dirty {
		dmask = 1
	}
	var ev cache.Eviction
	if c.rc.FillInto(tagged, 1, dmask, &ev) && ev.DirtyMask != 0 {
		c.stRCDirtyEvictions.Inc()
		c.env.WriteRedundancy(now, ev.LineAddr&^protect.RedTag)
	}
}

// --- Reconstruction -------------------------------------------------------

// predIndex maps a data address to its predictor slot.
func (c *CacheCraft) predIndex(addr uint64) int {
	bits := c.opt.PredRegionBits
	if bits <= 0 {
		bits = 14
	}
	return int((addr >> uint(bits)) % uint64(len(c.pred)))
}

// predMax is the saturating-counter ceiling; only saturated regions
// reconstruct. Waste decrements twice as fast as use increments, so mixed
// regions stay off — extra traffic on a saturated memory system costs
// more than a missed prefetch saves.
const predMax = 3

// shouldReconstruct consults the predictor (always true when disabled).
// Regions predicted useless still reconstruct on a 1-in-8 sample so the
// predictor can relearn when a phase change brings locality back.
func (c *CacheCraft) shouldReconstruct(addr uint64) bool {
	if !c.opt.Reconstruct {
		return false
	}
	if !c.opt.Predictor {
		return true
	}
	return c.pred[c.predIndex(addr)] >= predMax
}

// shouldProbe rate-limits exploratory reconstruction for predicted-off
// regions: a 1-in-64 sample of a single sector keeps the predictor able to
// relearn at negligible traffic cost.
func (c *CacheCraft) shouldProbe() bool {
	c.sampleTick++
	return c.sampleTick&63 == 0
}

// ReconstructedUse receives usage feedback from the L2: used is true when
// a reconstructed sector was referenced before eviction.
func (c *CacheCraft) ReconstructedUse(addr uint64, used bool) {
	if used {
		c.stReconUsed.Inc()
	} else {
		c.stReconWasted.Inc()
	}
	if !c.opt.Predictor {
		return
	}
	i := c.predIndex(addr)
	if used {
		if c.pred[i] < predMax {
			c.pred[i]++
		}
		return
	}
	// Waste is punished harder than use is rewarded.
	if c.pred[i] >= 2 {
		c.pred[i] -= 2
	} else {
		c.pred[i] = 0
	}
}

// reconstruct fetches the granule's sibling sectors that are neither
// cached nor in flight and inserts them into the L2 as reconstructed
// sectors. Only the demanded line and the granule's forward lines are
// considered: access streams overwhelmingly walk forward, and backward
// siblings of a mid-granule miss are mostly dead weight. In probe mode
// only the first eligible sector is fetched (predictor exploration).
func (c *CacheCraft) reconstruct(now sim.Cycle, lineAddr uint64, demandMask uint64, probe bool) {
	env := c.env
	geo := env.Map.Geometry()
	gbase := env.Map.GranuleBase(lineAddr)
	spl := geo.SectorsPerLine()
	for s := 0; s < geo.SectorsPerGranule(); s++ {
		sa := gbase + uint64(s*geo.SectorBytes)
		if sa < lineAddr {
			continue // backward sibling: skip
		}
		// Skip the demanded sectors themselves.
		if sa < lineAddr+uint64(geo.LineBytes) {
			idx := int(sa-lineAddr) / geo.SectorBytes
			if idx < spl && demandMask&(1<<idx) != 0 {
				continue
			}
		}
		if env.L2.Present(sa) || env.L2.Pending(sa) {
			continue
		}
		if c.reconInFlight.InFlight(sa) {
			continue
		}
		c.stReconSectors.Inc()
		c.reconInFlight.Start(now, sa, false, protect.NoJoin, mem.Request{
			Addr:  env.Map.DataPhys(sa),
			Bytes: geo.SectorBytes,
			Class: mem.Reconstruct,
		})
		if probe {
			return
		}
	}
}

// reconArrived inserts a reconstructed sector into the L2.
func (c *CacheCraft) reconArrived(at sim.Cycle, sa uint64, _, merged bool) {
	env := c.env
	if !merged {
		env.L2.InsertReconstructed(at, sa)
		return
	}
	// A demand miss merged with this fetch. Traffic-wise this is neutral
	// (the demand would have fetched the sector anyway), so it does NOT
	// train the predictor — only genuine later-use is evidence that
	// prefetching the granule was worth extra bandwidth.
	c.stReconMerged.Inc()
	env.L2.Insert(at, sa, false)
}

// --- Scheme interface -----------------------------------------------------

// ReadMiss fetches the demanded sectors, obtains the covering redundancy
// (write buffer / RC / DRAM), optionally reconstructs the rest of the
// granule, and completes after decode.
func (c *CacheCraft) ReadMiss(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class, done func(sim.Cycle)) {
	env := c.env
	geo := env.Map.Geometry()
	mask &= uint64(1)<<geo.SectorsPerLine() - 1
	join := env.NewJoin(now, bits.OnesCount64(mask)+1, lineAddr, true, done)
	// A sector already on its way as a reconstruction merges with that
	// fetch; the rest are read.
	fetch := mask
	for m := mask; m != 0; m &= m - 1 {
		if c.reconInFlight.Wait(lineAddr+uint64(bits.TrailingZeros64(m)*geo.SectorBytes), false, join) {
			fetch &^= m & -m
		}
	}
	env.ReadSectors(now, lineAddr, fetch, class, join)
	c.redReady(now, lineAddr, c.granuleMask(lineAddr, mask), join)
	if class == mem.Demand && c.opt.Reconstruct {
		switch {
		case c.shouldReconstruct(lineAddr):
			c.reconstruct(now, lineAddr, mask, false)
		case c.shouldProbe():
			c.reconstruct(now, lineAddr, mask, true)
		}
	}
}

// Writeback writes dirty data sectors and coalesces the redundancy update
// through the RC and the write buffer.
func (c *CacheCraft) Writeback(now sim.Cycle, lineAddr uint64, dirtyMask uint64) {
	c.env.WriteSectors(now, lineAddr, dirtyMask)
	if written := c.granuleMask(lineAddr, dirtyMask); written != 0 {
		c.redUpdate(now, lineAddr, written)
	}
}

// redUpdate folds new check bytes for the given granule sectors into the
// redundancy block, avoiding the read-modify-write whenever possible.
func (c *CacheCraft) redUpdate(now sim.Cycle, lineAddr uint64, writtenMask uint64) {
	env := c.env
	geo := env.Map.Geometry()
	tagged := c.taggedRed(lineAddr)
	fullMask := uint64(1)<<geo.SectorsPerGranule() - 1

	// A cached copy absorbs the update in place.
	if c.opt.UseRC && c.rc.Access(tagged, true) == cache.Hit {
		c.stWbRCHits.Inc()
		return
	}
	if c.opt.WBuf {
		slot, ok := c.wbuf.Get(tagged)
		if !ok {
			if c.wbuf.Len() >= c.wbufEntriesMax() {
				c.flushOldest(now)
			}
			c.wbufGen++
			slot = c.wbufSlots.Get()
			*c.wbufSlots.At(slot) = wbufEntry{gen: c.wbufGen}
			c.wbuf.Put(tagged, slot)
			c.trimFIFO()
			c.wbufFIFO = append(c.wbufFIFO, wbufRef{tagged: tagged, gen: c.wbufGen})
			env.Eng.Post(now+c.wbufTimeout(), (*wbufExpiry)(c), tagged, c.wbufGen)
		}
		e := c.wbufSlots.At(slot)
		e.mask |= writtenMask
		if e.mask != fullMask {
			return
		}
		// Every check byte of the block is known: write it blind.
		c.wbufRemove(tagged)
		c.stBlindWrites.Inc()
		env.WriteRedundancy(now, tagged&^protect.RedTag)
		return
	}
	if c.opt.UseRC {
		// Allocate into the RC via a fetch, then merge there.
		c.stRMW.Inc()
		env.DRAM.SubmitPost(now, mem.Request{
			Addr:  tagged &^ protect.RedTag,
			Bytes: geo.RedBlockBytes,
			Class: mem.RMW,
		}, (*rcFill)(c), tagged)
		return
	}
	// No RC, no write buffer: naive read-modify-write.
	env.RedundancyRMW(now, tagged&^protect.RedTag)
}

// rcFill merges a write-allocate redundancy fetch (a0, the tagged block
// address) into the RC.
type rcFill CacheCraft

func (h *rcFill) OnEvent(at sim.Cycle, tagged, _ uint64) {
	(*CacheCraft)(h).insertRC(at, tagged, true)
}

// wbufExpiry flushes a write-buffer entry (a0, the tagged block address)
// still partially coalesced when its timeout expires; a1 is the entry's
// generation, so a timeout outlived by its entry does nothing.
type wbufExpiry CacheCraft

func (h *wbufExpiry) OnEvent(at sim.Cycle, tagged, gen uint64) {
	c := (*CacheCraft)(h)
	if c.wbufLive(wbufRef{tagged: tagged, gen: gen}) {
		c.stWbufTimeout.Inc()
		c.flushEntry(at, tagged)
	}
}

func (c *CacheCraft) wbufEntriesMax() int {
	if c.opt.WBufEntries <= 0 {
		return 64
	}
	return c.opt.WBufEntries
}

func (c *CacheCraft) wbufTimeout() sim.Cycle {
	if c.opt.WBufTimeout <= 0 {
		return 2000
	}
	return c.opt.WBufTimeout
}

// wbufLive reports whether the write buffer still holds the entry ref
// names.
func (c *CacheCraft) wbufLive(ref wbufRef) bool {
	slot, ok := c.wbuf.Get(ref.tagged)
	return ok && c.wbufSlots.At(slot).gen == ref.gen
}

// wbufRemove drops tagged's entry from the write buffer.
func (c *CacheCraft) wbufRemove(tagged uint64) {
	if slot, ok := c.wbuf.Delete(tagged); ok {
		c.wbufSlots.Put(slot)
	}
}

// trimFIFO drops stale refs from the head of the creation-order FIFO,
// compacting it once the consumed prefix dominates. Every entry times out
// within wbufTimeout cycles, so the FIFO spans at most the entries created
// in one timeout window.
func (c *CacheCraft) trimFIFO() {
	for c.wfHead < len(c.wbufFIFO) && !c.wbufLive(c.wbufFIFO[c.wfHead]) {
		c.wfHead++
	}
	if c.wfHead == len(c.wbufFIFO) {
		c.wbufFIFO, c.wfHead = c.wbufFIFO[:0], 0
	} else if c.wfHead >= 1024 && 2*c.wfHead >= len(c.wbufFIFO) {
		n := copy(c.wbufFIFO, c.wbufFIFO[c.wfHead:])
		c.wbufFIFO, c.wfHead = c.wbufFIFO[:n], 0
	}
}

// flushOldest evicts the lowest-generation write-buffer entry: the first
// live one in creation order.
func (c *CacheCraft) flushOldest(now sim.Cycle) {
	c.trimFIFO()
	if c.wfHead < len(c.wbufFIFO) {
		c.stWbufOverflow.Inc()
		c.flushEntry(now, c.wbufFIFO[c.wfHead].tagged)
	}
}

// flushEntry retires a partially-coalesced entry: the unknown check bytes
// must be read back (read-modify-write) before the block can be written.
func (c *CacheCraft) flushEntry(now sim.Cycle, tagged uint64) {
	c.wbufRemove(tagged)
	c.env.RedundancyRMW(now, tagged&^protect.RedTag)
}

// NeedsRMWFetch is true under ECC.
func (c *CacheCraft) NeedsRMWFetch() bool { return true }

// Drain flushes the write buffer and writes back dirty RC lines.
func (c *CacheCraft) Drain(now sim.Cycle) {
	// Flush in address order: the drain's DRAM request order sets its row
	// hits and latencies, so it must not depend on how the buffer indexes
	// or ages its entries.
	addrs := make([]uint64, 0, c.wbuf.Len())
	for _, ref := range c.wbufFIFO[c.wfHead:] {
		if c.wbufLive(ref) {
			addrs = append(addrs, ref.tagged)
		}
	}
	slices.Sort(addrs)
	for _, tagged := range addrs {
		c.flushEntry(now, tagged)
	}
	if c.rc != nil {
		c.rc.Walk(func(lineAddr uint64, vmask, dmask uint64) {
			if dmask != 0 {
				c.env.WriteRedundancy(now, lineAddr&^protect.RedTag)
				c.rc.CleanSector(lineAddr)
			}
		})
	}
}

var _ protect.Scheme = (*CacheCraft)(nil)
