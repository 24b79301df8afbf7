package gpu

import (
	"math/bits"

	"cachecraft/internal/cache"
	"cachecraft/internal/sim"
)

// l2Target is one requester waiting on an L2 miss entry, identified by its
// pooled transaction token. An entry's targets form a FIFO list linked
// through the bank's target pool.
type l2Target struct {
	sectorMask uint64 // the sectors this requester needs from the line
	tok        int32
	write      bool  // fetch-on-write: mark dirty and ack the store
	next       int32 // next target of the same entry; -1 ends the list
}

// l2Entry is one outstanding line miss (the bank's MSHR entry). Entries
// live in the bank's pool and are referenced by slot index.
type l2Entry struct {
	pending    uint64 // sectors requested from the protection controller
	filled     uint64
	head, tail int32 // the entry's target list; -1 when empty
}

// l2Op is one scheduled bank operation: a read or store that has crossed
// the interconnect and is waiting out the tag latency, or that sits parked
// behind a full MSHR file. Ops are pooled and travel through the event
// queue by slot index.
type l2Op struct {
	lineAddr uint64
	mask     uint64
	fullMask uint64
	tok      int32
	write    bool
}

// L2Bank is one bank of the shared sectored L2. Demand requests arrive
// from the interconnect; misses go to the protection controller, which
// fills sectors back (possibly more than demanded, for reconstruction).
type L2Bank struct {
	m     *Machine
	id    int
	cache *cache.Cache

	mshr    sim.AddrTable // line address → entry slot
	entries sim.Pool[l2Entry]
	targets sim.Pool[l2Target]
	ops     sim.Pool[l2Op]
	// misses holds the outstanding controller reads.
	misses sim.Pool[l2Miss]

	// waiting parks op slots that arrived while the MSHR file was full;
	// whead is the consumed prefix, compacted once it dominates the slice
	// so the queue's backing array cannot grow without bound.
	waiting []int32
	whead   int

	// reconPending tracks reconstructed sectors not yet referenced, for
	// predictor feedback; the scoreboard ages entries by the bank's total
	// fill count — a reconstructed sector unused after reconHorizon
	// subsequent fills counts as waste even if it still sits in the cache,
	// because it has had ample opportunity to be referenced. It holds
	// sector addresses (values unused).
	reconPending sim.AddrTable
	reconFIFO    []reconEntry
	rfHead       int
	fillTick     uint64
}

// l2Miss is one outstanding controller read: the sectors of a line it
// fills, its issue cycle and audit token (for the observer), and its
// completion callback — built once per slot, since
// protect.Scheme.ReadMiss takes a plain func, and reused by every read
// the slot carries.
type l2Miss struct {
	lineAddr uint64
	mask     uint64
	issued   sim.Cycle
	audTok   uint64
	done     func(sim.Cycle)
}

type reconEntry struct {
	addr uint64
	tick uint64
}

// reconHorizon is the scoreboard age limit in bank fills (≈ two full
// replacements of a 2048-line bank).
const reconHorizon = 4096

func newL2Bank(m *Machine, id int) *L2Bank {
	cfg := m.cfg.L2
	cfg.Name = "l2"
	cfg.SizeBytes /= m.cfg.L2Banks
	b := &L2Bank{m: m, id: id, cache: cache.New(cfg)}
	b.mshr.Reserve(m.cfg.L2MSHRs)
	return b
}

// waitingCount reports how many requests sit parked behind the MSHR file.
func (b *L2Bank) waitingCount() int { return len(b.waiting) - b.whead }

// noteUse clears reconstruction-pending state on a referenced sector and
// reports the use to the scheme.
func (b *L2Bank) noteUse(addr uint64) {
	if _, ok := b.reconPending.Delete(addr); ok {
		b.m.reconFeedback(addr, true)
	}
}

// noteEviction reports unused reconstructed sectors of an evicted line.
// marked holds the line's sectors InsertReconstructed marked, which cover
// every sector of the line still pending, so no other sector is probed.
func (b *L2Bank) noteEviction(lineAddr uint64, marked uint64) {
	for m := marked; m != 0; m &= m - 1 {
		sa := lineAddr + uint64(bits.TrailingZeros64(m)*b.m.cfg.L2.SectorBytes)
		if _, ok := b.reconPending.Delete(sa); ok {
			b.m.reconFeedback(sa, false)
		}
	}
}

// fill inserts sectors and routes any dirty victim to the controller.
func (b *L2Bank) fill(now sim.Cycle, lineAddr uint64, mask, dirtyMask uint64) {
	if b.m.obs != nil {
		// The fills FillInto counts: a new line, or new sectors in one.
		if vm := b.cache.ValidMask(lineAddr); vm == 0 || mask&^vm != 0 {
			b.m.obs.l2Fill()
		}
	}
	var ev cache.Eviction
	if b.cache.FillInto(lineAddr, mask, dirtyMask, &ev) {
		b.noteEviction(ev.LineAddr, ev.MarkMask)
		if ev.DirtyMask != 0 {
			b.writeback(now, ev.LineAddr, ev.DirtyMask)
		}
	}
	b.fillTick++
	b.ageScoreboard()
}

// ageScoreboard retires reconstruction-tracking entries past the horizon,
// reporting still-unused ones as waste.
func (b *L2Bank) ageScoreboard() {
	for b.rfHead < len(b.reconFIFO) && b.reconFIFO[b.rfHead].tick+reconHorizon < b.fillTick {
		old := b.reconFIFO[b.rfHead]
		b.rfHead++
		if _, ok := b.reconPending.Delete(old.addr); ok {
			b.m.reconFeedback(old.addr, false)
		}
	}
	if b.rfHead == len(b.reconFIFO) {
		b.reconFIFO = b.reconFIFO[:0]
		b.rfHead = 0
	} else if b.rfHead >= 1024 && b.rfHead*2 >= len(b.reconFIFO) {
		n := copy(b.reconFIFO, b.reconFIFO[b.rfHead:])
		b.reconFIFO = b.reconFIFO[:n]
		b.rfHead = 0
	}
}

// bankOpHandler dispatches a pooled bank op (a0) after the tag latency.
type bankOpHandler L2Bank

func (h *bankOpHandler) OnEvent(now sim.Cycle, a0, _ uint64) {
	(*L2Bank)(h).exec(now, int32(uint32(a0)))
}

// scheduleRead queues a demand-read line request behind the L2 tag latency,
// responding through the token.
func (b *L2Bank) scheduleRead(now sim.Cycle, lineAddr uint64, mask uint64, tok int32) {
	oi := b.ops.Get()
	*b.ops.At(oi) = l2Op{lineAddr: lineAddr, mask: mask, tok: tok}
	b.m.eng.Post(now+b.m.cfg.L2Latency, (*bankOpHandler)(b), uint64(uint32(oi)), 0)
}

// scheduleStore queues a store line request behind the L2 tag latency.
// fullMask marks sectors whose bytes the warp fully covers.
func (b *L2Bank) scheduleStore(now sim.Cycle, lineAddr uint64, mask, fullMask uint64, tok int32) {
	oi := b.ops.Get()
	*b.ops.At(oi) = l2Op{lineAddr: lineAddr, mask: mask, fullMask: fullMask, tok: tok, write: true}
	b.m.eng.Post(now+b.m.cfg.L2Latency, (*bankOpHandler)(b), uint64(uint32(oi)), 0)
}

// mshrFull reports whether a new line entry cannot be allocated.
func (b *L2Bank) mshrFull(lineAddr uint64) bool {
	if b.mshr.Len() < b.m.cfg.L2MSHRs {
		return false
	}
	return !b.mshr.Has(lineAddr) // merging into an existing entry is always allowed
}

// exec runs one bank op, parking it (credit-style backpressure toward the
// interconnect) while the MSHR file is full.
func (b *L2Bank) exec(now sim.Cycle, oi int32) {
	op := *b.ops.At(oi)
	if b.mshrFull(op.lineAddr) {
		b.m.stMSHRStalls.Inc()
		b.waiting = append(b.waiting, oi)
		return
	}
	b.ops.Put(oi)
	if op.write {
		b.store(now, op)
	} else {
		b.read(now, op)
	}
}

// pump replays parked requests while entry space is available.
func (b *L2Bank) pump(now sim.Cycle) {
	for b.whead < len(b.waiting) && b.mshr.Len() < b.m.cfg.L2MSHRs {
		oi := b.waiting[b.whead]
		b.whead++
		if b.whead == len(b.waiting) {
			b.waiting = b.waiting[:0]
			b.whead = 0
		} else if b.whead >= 1024 && b.whead*2 >= len(b.waiting) {
			n := copy(b.waiting, b.waiting[b.whead:])
			b.waiting = b.waiting[:n]
			b.whead = 0
		}
		b.exec(now, oi)
	}
}

func (b *L2Bank) read(now sim.Cycle, op l2Op) {
	hitMask := b.cache.AccessLine(op.lineAddr, op.mask)
	missMask := op.mask &^ hitMask
	if b.m.obs != nil || (hitMask != 0 && b.reconPending.Len() != 0) {
		// Per sector, in ascending order: what the per-sector lookups
		// would have reported, and reconstruction use on each hit.
		for m := op.mask; m != 0; m &= m - 1 {
			bit := m & -m
			hit := hitMask&bit != 0
			if b.m.obs != nil {
				b.m.obs.l2Access(b.id, hit)
			}
			if hit {
				b.noteUse(op.lineAddr + uint64(bits.TrailingZeros64(m)*b.m.cfg.L2.SectorBytes))
			}
		}
	}
	if hitMask != 0 {
		b.m.stL2Hits.Add(uint64(bits.OnesCount64(hitMask)))
		b.m.respondToken(now, op.tok, hitMask)
	}
	if missMask == 0 {
		return
	}
	b.m.stL2Misses.Add(uint64(bits.OnesCount64(missMask)))
	b.enqueueMiss(now, op.lineAddr, missMask, l2Target{
		sectorMask: missMask,
		tok:        op.tok,
	})
}

func (b *L2Bank) store(now sim.Cycle, op l2Op) {
	spl := b.cache.SectorsPerLine()
	var ackMask, fetchMask uint64
	for i := 0; i < spl; i++ {
		if op.mask&(1<<i) == 0 {
			continue
		}
		sa := op.lineAddr + uint64(i*b.m.cfg.L2.SectorBytes)
		bit := uint64(1) << i
		hit := b.cache.Access(sa, true) == cache.Hit
		if b.m.obs != nil {
			b.m.obs.l2Access(b.id, hit)
		}
		switch {
		case hit:
			// Dirty bit set by the access; the write is absorbed.
			b.m.stStoreHits.Inc()
			b.noteUse(sa)
			ackMask |= bit
		case op.fullMask&bit != 0 || !b.m.scheme.NeedsRMWFetch():
			// Full coverage (or byte-maskable DRAM): allocate in place
			// without fetching the old contents.
			b.m.stStoreAllocs.Inc()
			b.fill(now, op.lineAddr, bit, bit)
			ackMask |= bit
		default:
			// Partial-sector store under ECC: fetch-before-write.
			b.m.stRMWFetches.Inc()
			fetchMask |= bit
		}
	}
	if ackMask != 0 {
		b.m.respondToken(now, op.tok, ackMask)
	}
	if fetchMask == 0 {
		return
	}
	b.enqueueMiss(now, op.lineAddr, fetchMask, l2Target{
		sectorMask: fetchMask,
		tok:        op.tok,
		write:      true,
	})
}

// enqueueMiss merges the target into the line's MSHR entry, asking the
// controller for any sectors not already in flight.
func (b *L2Bank) enqueueMiss(now sim.Cycle, lineAddr uint64, mask uint64, t l2Target) {
	ei, ok := b.mshr.Get(lineAddr)
	if !ok {
		ei = b.entries.Get()
		*b.entries.At(ei) = l2Entry{head: -1, tail: -1}
		b.mshr.Put(lineAddr, ei)
		if b.m.obs != nil {
			b.m.obs.mshrAlloc(now, b.id, lineAddr, b.mshr.Len())
		}
	}
	ti := b.targets.Get()
	t.next = -1
	*b.targets.At(ti) = t
	e := b.entries.At(ei)
	if e.tail < 0 {
		e.head = ti
	} else {
		b.targets.At(e.tail).next = ti
	}
	e.tail = ti
	fetch := mask &^ e.pending
	e.pending |= mask
	if fetch == 0 {
		return
	}
	if b.m.obs != nil {
		b.m.obs.audit.MSHRFetch(now, b.id, lineAddr, fetch)
	}
	class := memClassDemand
	if t.write {
		class = memClassRMW
	}
	slot := b.misses.Get()
	ms := b.misses.At(slot)
	ms.lineAddr, ms.mask, ms.issued = lineAddr, fetch, now
	if b.m.obs != nil {
		ms.audTok = b.m.obs.audit.ReadMissIssued(now, lineAddr, fetch, class)
	}
	if ms.done == nil {
		ms.done = func(at sim.Cycle) { b.missFilled(at, slot) }
	}
	b.m.scheme.ReadMiss(now, lineAddr, fetch, class, ms.done)
}

// missFilled completes a controller read: it reports the completion,
// frees the read's slot and fills its sectors.
func (b *L2Bank) missFilled(at sim.Cycle, slot int32) {
	ms := b.misses.At(slot)
	lineAddr, mask := ms.lineAddr, ms.mask
	if b.m.obs != nil {
		b.m.obs.readMissDone(ms.issued, at, ms.audTok)
	}
	b.misses.Put(slot)
	b.onFill(at, lineAddr, mask)
}

// onFill receives sectors from the controller, fills the cache, and
// retires the entry when everything pending has arrived.
func (b *L2Bank) onFill(now sim.Cycle, lineAddr uint64, mask uint64) {
	ei, ok := b.mshr.Get(lineAddr)
	if !ok {
		panic("gpu: L2 fill with no MSHR entry")
	}
	if b.m.obs != nil {
		b.m.obs.audit.MSHRFill(now, b.id, lineAddr, mask)
	}
	b.fill(now, lineAddr, mask, 0)
	e := b.entries.At(ei)
	e.filled |= mask
	if e.filled != e.pending {
		return
	}
	b.mshr.Delete(lineAddr)
	if b.m.obs != nil {
		b.m.obs.mshrRelease(now, b.id, lineAddr, b.mshr.Len())
	}
	b.pump(now)
	// pump can replay parked ops whose misses grow the pools, so read the
	// entry only now; its targets stay ours (the table entry is gone, so
	// nothing merges into it) and each is copied out before it is freed.
	head := b.entries.At(ei).head
	b.entries.Put(ei)
	for ti := head; ti >= 0; {
		t := *b.targets.At(ti)
		b.targets.Put(ti)
		ti = t.next
		if t.write {
			spl := b.cache.SectorsPerLine()
			for j := 0; j < spl; j++ {
				if t.sectorMask&(1<<j) == 0 {
					continue
				}
				sa := lineAddr + uint64(j*b.m.cfg.L2.SectorBytes)
				// The fetched sector absorbs the store's bytes.
				if b.cache.Probe(sa) == cache.Hit {
					b.cache.MarkDirty(sa)
				} else {
					// The line was evicted between fill and retire (same
					// cycle adversarial case): re-allocate dirty.
					b.fill(now, lineAddr, b.cache.SectorMask(sa), b.cache.SectorMask(sa))
				}
			}
		}
		b.m.respondToken(now, t.tok, t.sectorMask)
	}
}

// Present reports sector validity (CacheSide).
func (b *L2Bank) Present(addr uint64) bool { return b.cache.Probe(addr) == cache.Hit }

// Pending reports whether the sector is already being fetched (CacheSide).
func (b *L2Bank) Pending(addr uint64) bool {
	lineAddr := b.cache.LineAddr(addr)
	ei, ok := b.mshr.Get(lineAddr)
	return ok && b.entries.At(ei).pending&b.cache.SectorMask(addr) != 0
}

// Insert places a sector into the bank (CacheSide).
func (b *L2Bank) Insert(now sim.Cycle, addr uint64, dirty bool) {
	lineAddr := b.cache.LineAddr(addr)
	mask := b.cache.SectorMask(addr)
	var dmask uint64
	if dirty {
		dmask = mask
	}
	b.fill(now, lineAddr, mask, dmask)
}

// InsertReconstructed places a clean reconstructed sector and arms usage
// tracking (CacheSide).
func (b *L2Bank) InsertReconstructed(now sim.Cycle, addr uint64) {
	b.Insert(now, addr, false)
	// Only track it if the insert survived (it may have been evicted by
	// its own fill in a pathological set-conflict case). The mark makes
	// the line's eviction probe this sector.
	if !b.cache.Mark(addr) {
		return
	}
	if b.m.obs != nil {
		b.m.obs.reconFill(now)
	}
	b.reconPending.Put(addr, 0)
	b.reconFIFO = append(b.reconFIFO, reconEntry{addr: addr, tick: b.fillTick})
}

// MarkDirty marks a present sector dirty (CacheSide).
func (b *L2Bank) MarkDirty(addr uint64) { b.cache.MarkDirty(addr) }

// writeback hands a dirty line's sectors to the controller.
func (b *L2Bank) writeback(now sim.Cycle, lineAddr, dirtyMask uint64) {
	if b.m.obs != nil {
		b.m.obs.audit.WritebackIssued(now, lineAddr, dirtyMask)
	}
	b.m.scheme.Writeback(now, lineAddr, dirtyMask)
}

// flushDirty writes back every dirty line at end of simulation, cleaning
// the flushed sectors.
func (b *L2Bank) flushDirty(now sim.Cycle) {
	b.cache.Walk(func(lineAddr uint64, vmask, dmask uint64) {
		if dmask == 0 {
			return
		}
		b.writeback(now, lineAddr, dmask)
		spl := b.cache.SectorsPerLine()
		for i := 0; i < spl; i++ {
			if dmask&(1<<i) != 0 {
				b.cache.CleanSector(lineAddr + uint64(i*b.m.cfg.L2.SectorBytes))
			}
		}
	})
}
