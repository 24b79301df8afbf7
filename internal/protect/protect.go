// Package protect defines the memory-protection controller interface that
// sits between the L2 cache and DRAM, and implements the three baseline
// schemes the paper-style evaluation compares against:
//
//   - none: no protection; every miss is a plain data fetch.
//   - inline-naive: inline ECC with no redundancy caching; every miss pays
//     a second DRAM access for the redundancy block, and every writeback
//     pays a redundancy read-modify-write.
//   - ecc-cache: the production-style baseline; redundancy blocks are
//     cached in the L2 itself, trading L2 capacity for redundancy reuse.
//
// CacheCraft itself lives in internal/core and implements the same Scheme
// interface.
package protect

import (
	"math/bits"

	"cachecraft/internal/dram"
	"cachecraft/internal/layout"
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
)

// RedTag marks redundancy-block addresses in the cache hierarchy's address
// space so they can never collide with logical data addresses.
const RedTag uint64 = 1 << 62

// CacheSide is the controller's view of the L2: it can probe for and
// insert lines (redundancy blocks for the ecc-cache scheme, reconstructed
// sibling sectors for CacheCraft). Inserts are clean unless dirty is set;
// evictions triggered by inserts flow back to the controller as
// writebacks.
type CacheSide interface {
	// Present reports whether the sector holding addr is valid in the L2.
	Present(addr uint64) bool
	// Pending reports whether the sector is already being fetched.
	Pending(addr uint64) bool
	// Insert places a sector into the L2 (allocating its line as needed).
	Insert(now sim.Cycle, addr uint64, dirty bool)
	// InsertReconstructed places a clean sector into the L2 and tracks
	// whether it is referenced before eviction, reporting the outcome to a
	// scheme that implements ReconstructionObserver.
	InsertReconstructed(now sim.Cycle, addr uint64)
	// MarkDirty marks a present sector dirty; it must be present.
	MarkDirty(addr uint64)
}

// ReconstructionObserver is implemented by schemes (CacheCraft) that want
// per-sector feedback on whether reconstructed inserts were useful.
type ReconstructionObserver interface {
	// ReconstructedUse reports that the reconstructed sector at addr was
	// referenced before eviction (used) or evicted untouched (!used).
	ReconstructedUse(addr uint64, used bool)
}

// Env is everything a controller needs from the machine.
type Env struct {
	Eng   *sim.Engine
	DRAM  *dram.DRAM
	Map   layout.Mapper
	L2    CacheSide
	Stats *stats.Counters
	// DecodeLat is the ECC decode/verify latency added to protected reads.
	DecodeLat sim.Cycle
	// ErrorRatePPM injects deterministic correctable errors into protected
	// reads: roughly this many per million granule decodes flag a
	// corrected error, costing ErrorPenalty extra cycles and a scrub
	// write. Zero disables injection.
	ErrorRatePPM int
	// ErrorPenalty is the extra correction latency per flagged decode
	// (default 32 when zero and injection is enabled).
	ErrorPenalty sim.Cycle

	// joins holds the pending joins (see NewJoin).
	joins sim.Pool[joinSlot]

	// Counter handles for the Env's own helpers, taken on first use (see
	// counter) because callers build an Env as a struct literal.
	stRMW, stCorrected, stScrubs stats.Handle
}

// counter returns *h, first making it a handle on the named counter if it
// is still the zero Handle. Handles resolve on their first update, so the
// counters keep their first-touch creation order.
func (e *Env) counter(h *stats.Handle, name string) *stats.Handle {
	if *h == (stats.Handle{}) {
		*h = e.Stats.Handle(name)
	}
	return h
}

// Join identifies a pending join: a completion that runs once all of its
// parts have arrived. Joins are pooled slots in the Env, so DRAM requests
// and merged fetches arrive at them through handler events, not closures.
type Join int32

// NoJoin is a join that ignores arrivals, for fire-and-forget fetches.
const NoJoin Join = -1

type joinSlot struct {
	remaining int
	lineAddr  uint64
	decode    bool
	done      func(sim.Cycle)
}

// NewJoin returns a join that runs done once n parts have arrived — or,
// when decode is set, once the ECC decode of lineAddr's granule has
// finished after that (see finishDecode). With n zero the join completes
// at now, through the event queue.
func (e *Env) NewJoin(now sim.Cycle, n int, lineAddr uint64, decode bool, done func(sim.Cycle)) Join {
	slot := e.joins.Get()
	*e.joins.At(slot) = joinSlot{remaining: max(n, 1), lineAddr: lineAddr, decode: decode, done: done}
	if n == 0 {
		e.ArriveAt(now, Join(slot))
	}
	return Join(slot)
}

// arrive counts one part of j arriving at cycle at, completing the join
// on its last part.
func (e *Env) arrive(at sim.Cycle, j Join) {
	if j == NoJoin {
		return
	}
	js := e.joins.At(int32(j))
	js.remaining--
	if js.remaining > 0 {
		return
	}
	if js.decode {
		e.finishDecode(at, j)
		return
	}
	e.complete(at, j)
}

// complete frees j's slot and runs its completion.
func (e *Env) complete(at sim.Cycle, j Join) {
	js := e.joins.At(int32(j))
	done := js.done
	js.done = nil
	e.joins.Put(int32(j))
	done(at)
}

// ArriveAt schedules one arrival at j for cycle at.
func (e *Env) ArriveAt(at sim.Cycle, j Join) {
	e.Eng.Post(at, (*joinArrival)(e), uint64(uint32(j)), 0)
}

// SubmitTo submits a DRAM request whose completion arrives at j.
func (e *Env) SubmitTo(now sim.Cycle, req mem.Request, j Join) {
	e.DRAM.SubmitPost(now, req, (*joinArrival)(e), uint64(uint32(j)))
}

// ReadSectors reads the data sectors in mask of the line at lineAddr, in
// ascending sector order, each arriving at j. This and WriteSectors are
// the one place a line's sector mask becomes data requests.
func (e *Env) ReadSectors(now sim.Cycle, lineAddr, mask uint64, class mem.Class, j Join) {
	geo := e.Map.Geometry()
	for m := mask & lineMask(geo); m != 0; m &= m - 1 {
		e.SubmitTo(now, mem.Request{
			Addr:  e.Map.DataPhys(lineAddr + uint64(bits.TrailingZeros64(m)*geo.SectorBytes)),
			Bytes: geo.SectorBytes,
			Class: class,
		}, j)
	}
}

// WriteSectors writes the data sectors in mask of the line at lineAddr
// (class Writeback), in ascending sector order.
func (e *Env) WriteSectors(now sim.Cycle, lineAddr, mask uint64) {
	geo := e.Map.Geometry()
	for m := mask & lineMask(geo); m != 0; m &= m - 1 {
		e.DRAM.Submit(now, mem.Request{
			Addr:  e.Map.DataPhys(lineAddr + uint64(bits.TrailingZeros64(m)*geo.SectorBytes)),
			Write: true,
			Bytes: geo.SectorBytes,
			Class: mem.Writeback,
		})
	}
}

// WriteRedundancy writes the redundancy block at physical address addr
// (class Redundancy).
func (e *Env) WriteRedundancy(now sim.Cycle, addr uint64) {
	e.DRAM.Submit(now, mem.Request{
		Addr:  addr,
		Write: true,
		Bytes: e.Map.Geometry().RedBlockBytes,
		Class: mem.Redundancy,
	})
}

// joinArrival delivers one arrival (a0, the join) as an event.
type joinArrival Env

func (h *joinArrival) OnEvent(at sim.Cycle, a0, _ uint64) {
	(*Env)(h).arrive(at, Join(int32(uint32(a0))))
}

// RedundancyRMW counts and performs a redundancy read-modify-write of the
// block at physical address addr: it reads the old block (class RMW) and,
// a decode latency after the read completes, writes the merged block
// (class Redundancy).
func (e *Env) RedundancyRMW(now sim.Cycle, addr uint64) {
	e.counter(&e.stRMW, "red_rmw").Inc()
	e.DRAM.SubmitPost(now, mem.Request{
		Addr:  addr,
		Bytes: e.Map.Geometry().RedBlockBytes,
		Class: mem.RMW,
	}, (*rmwWrite)(e), addr)
}

// rmwWrite writes back a redundancy block (a0) whose read-modify-write
// read has completed.
type rmwWrite Env

func (h *rmwWrite) OnEvent(at sim.Cycle, addr, _ uint64) {
	e := (*Env)(h)
	e.WriteRedundancy(at+e.DecodeLat, addr)
}

// errorAt deterministically decides whether the decode of the granule at
// lineAddr observes a correctable error (a hash in place of randomness so
// runs stay reproducible and schemes see identical error placement).
func (e *Env) errorAt(lineAddr uint64) bool {
	if e.ErrorRatePPM <= 0 {
		return false
	}
	h := e.Map.GranuleBase(lineAddr)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h%1_000_000 < uint64(e.ErrorRatePPM)
}

// finishDecode completes the decoding join j after the ECC decode of its
// line's granule: the base decode latency, plus — when error injection
// marks this granule — a correction penalty and a scrub write of the
// corrected sector. j keeps its slot until the decode finishes.
func (e *Env) finishDecode(now sim.Cycle, j Join) {
	lineAddr := e.joins.At(int32(j)).lineAddr
	lat := e.DecodeLat
	if e.errorAt(lineAddr) {
		penalty := e.ErrorPenalty
		if penalty == 0 {
			penalty = 32
		}
		lat += penalty
		e.counter(&e.stCorrected, "corrected_errors").Inc()
		e.counter(&e.stScrubs, "scrub_writes").Inc()
		e.WriteSectors(now, e.Map.GranuleBase(lineAddr), 1)
	}
	if lat == 0 {
		// A zero-latency decode completes inline. Routing it through the
		// event queue would not cost cycles, but it would reorder the
		// completion behind other events already scheduled for this cycle,
		// perturbing DRAM arbitration — a zero-cost decode must be a true
		// no-op, indistinguishable from no decode stage at all.
		e.complete(now, j)
		return
	}
	e.Eng.Post(now+lat, (*decodeDone)(e), uint64(uint32(j)), 0)
}

// decodeDone completes a decoding join (a0) when its decode finishes.
type decodeDone Env

func (h *decodeDone) OnEvent(at sim.Cycle, a0, _ uint64) {
	(*Env)(h).complete(at, Join(int32(uint32(a0))))
}

// Scheme is a memory-protection controller. Line addresses are logical
// data addresses unless they carry RedTag.
type Scheme interface {
	// Name identifies the scheme in tables.
	Name() string
	// ReadMiss fetches the sectors in mask of the 128B line at lineAddr.
	// class is mem.Demand for ordinary misses or mem.RMW for
	// fetch-before-partial-write. done runs once, when the requested
	// sectors are ready to fill (after ECC verification).
	ReadMiss(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class, done func(sim.Cycle))
	// Writeback retires dirty sectors of an evicted line (fire and
	// forget). Redundancy lines carry RedTag.
	Writeback(now sim.Cycle, lineAddr uint64, dirtyMask uint64)
	// NeedsRMWFetch reports whether a partial-sector store must fetch the
	// old sector contents first (true whenever ECC disables DRAM write
	// masking).
	NeedsRMWFetch() bool
	// Drain flushes any internal write buffers at end of simulation.
	Drain(now sim.Cycle)
}

// Factory builds a scheme against a machine environment.
type Factory func(env *Env) Scheme

// lineMask selects every sector of a line.
func lineMask(geo layout.Geometry) uint64 {
	return uint64(1)<<geo.SectorsPerLine() - 1
}

// sectorCount reports how many in-line sectors mask selects.
func sectorCount(geo layout.Geometry, mask uint64) int {
	return bits.OnesCount64(mask & lineMask(geo))
}
