package gpu

import (
	"math/bits"

	"cachecraft/internal/cache"
	"cachecraft/internal/sim"
	"cachecraft/internal/trace"
)

// smAccess tracks one in-flight warp access: it retires when all its
// sector requests have completed. Accesses are pooled in the SM's slab and
// referenced by slot index from tokens and L1 waiter chains.
type smAccess struct {
	instrs    uint64
	remaining int32
	dependent bool
}

// l1Waiter is one pooled node in a sector's L1 miss-merge chain. Index 0
// of the waiter slab is a reserved sentinel, so a zero link ends a chain.
type l1Waiter struct {
	rec  int32
	next int32
}

// SM models one streaming multiprocessor's memory front end: it issues
// warp accesses from its workload, filters loads through a private
// sectored L1, and tracks outstanding accesses against an occupancy limit.
type SM struct {
	id        int
	m         *Machine
	wl        trace.Workload
	footprint uint64 // wl's footprint, which its accesses must stay inside
	// err is why the workload's stream ended early: an access
	// trace.CheckAccess rejected, or the workload's own Err.
	err error

	l1      *cache.Cache
	l1mshr  sim.AddrTable // sector address → waiter-chain head
	pending int           // in-flight accesses

	blocked        bool // a dependent access is outstanding
	finished       bool
	issueScheduled bool

	instrRetired uint64
	accessesDone uint64

	// Pools and per-issue scratch (reused, never escaping an issue).
	accs    sim.Pool[smAccess]
	waiters []l1Waiter
	wFree   int32

	reqScratch   []SectorReq
	groupScratch []lineGroup
}

func newSM(id int, m *Machine, wl trace.Workload) *SM {
	cfg := m.cfg.L1
	return &SM{
		id:        id,
		m:         m,
		wl:        wl,
		footprint: wl.Footprint(),
		l1:        cache.New(cfg),
		waiters:   make([]l1Waiter, 1), // slot 0 is the chain sentinel
	}
}

func (s *SM) allocWaiter(rec int32) int32 {
	idx := s.wFree
	if idx == 0 {
		s.waiters = append(s.waiters, l1Waiter{rec: rec})
		return int32(len(s.waiters) - 1)
	}
	s.wFree = s.waiters[idx].next
	s.waiters[idx] = l1Waiter{rec: rec}
	return idx
}

func (s *SM) freeWaiter(idx int32) {
	s.waiters[idx].next = s.wFree
	s.wFree = idx
}

// start arms the SM's issue loop.
func (s *SM) start() { s.scheduleIssue(0) }

// issueHandler runs the SM's issue loop as a pooled event.
type issueHandler SM

func (h *issueHandler) OnEvent(now sim.Cycle, _, _ uint64) {
	s := (*SM)(h)
	s.issueScheduled = false
	s.tryIssue(now)
}

// l1HitHandler completes a0's access record by a1 sectors after the L1
// hit latency.
type l1HitHandler SM

func (h *l1HitHandler) OnEvent(now sim.Cycle, a0, a1 uint64) {
	(*SM)(h).completeSectorsIdx(now, int32(a0), int(a1))
}

// scheduleIssue arms one issue event at the given cycle (idempotent while
// one is already armed).
func (s *SM) scheduleIssue(at sim.Cycle) {
	if s.issueScheduled || s.finished {
		return
	}
	s.issueScheduled = true
	s.m.eng.Post(at, (*issueHandler)(s), 0, 0)
}

// tryIssue issues the next warp access if occupancy and dependences allow.
func (s *SM) tryIssue(now sim.Cycle) {
	if s.finished || s.blocked {
		return
	}
	if s.pending >= s.m.cfg.MaxOutstanding {
		return // re-armed on completion
	}
	a, ok := s.wl.Next()
	if ok {
		s.err = trace.CheckAccess(a, s.footprint)
	} else if w, hasErr := s.wl.(interface{ Err() error }); hasErr {
		s.err = w.Err()
	}
	if !ok || s.err != nil {
		s.finished = true
		s.m.smFinished(now)
		return
	}
	s.issue(now, a)
	// Pace the next issue by the access's compute weight: heavier compute
	// between memory operations means more latency tolerance.
	gap := sim.Cycle(1 + a.ComputeWeight/4)
	s.scheduleIssue(now + gap)
}

// issue splits the access into sector requests and routes them.
func (s *SM) issue(now sim.Cycle, a trace.Access) {
	s.reqScratch = coalesceInto(s.reqScratch[:0], a, s.m.cfg.L1.SectorBytes)
	reqs := s.reqScratch
	ri := s.accs.Get()
	*s.accs.At(ri) = smAccess{
		remaining: int32(len(reqs)),
		instrs:    uint64(1 + a.ComputeWeight),
		dependent: a.Dependent,
	}
	s.pending++
	if a.Dependent {
		s.blocked = true
	}
	s.m.stSectorReqs.Add(uint64(len(reqs)))
	if s.m.obs != nil {
		s.m.obs.issued(now, len(reqs))
	}

	s.groupScratch = groupByLineInto(s.groupScratch[:0], reqs, s.m.cfg.L1.LineBytes, s.m.cfg.L1.SectorBytes)
	groups := s.groupScratch
	if a.Write {
		for i := range groups {
			s.m.sendStore(now, s.id, groups[i], ri)
		}
		return
	}
	for i := range groups {
		s.issueLoadGroup(now, ri, groups[i])
	}
}

// issueLoadGroup filters one line's sectors through the L1 and sends the
// misses to the L2.
func (s *SM) issueLoadGroup(now sim.Cycle, ri int32, g lineGroup) {
	hitMask := s.l1.AccessLine(g.lineAddr, g.sectorMask)
	var sendMask uint64
	for m := g.sectorMask; m != 0; m &= m - 1 {
		bit := m & -m
		if hitMask&bit != 0 {
			s.m.stL1Hits.Inc()
			s.m.eng.Post(now+s.m.cfg.L1Latency, (*l1HitHandler)(s), uint64(ri), 1)
			continue
		}
		s.m.stL1Misses.Inc()
		sa := g.lineAddr + uint64(bits.TrailingZeros64(m)*s.m.cfg.L1.SectorBytes)
		if head, ok := s.l1mshr.Get(sa); ok {
			// Merge with the in-flight fetch, appending at the chain tail
			// so wake order stays arrival order.
			tail := head
			for s.waiters[tail].next != 0 {
				tail = s.waiters[tail].next
			}
			s.waiters[tail].next = s.allocWaiter(ri)
			continue
		}
		s.l1mshr.Put(sa, s.allocWaiter(ri))
		sendMask |= bit
	}
	if sendMask == 0 {
		return
	}
	s.m.sendRead(now, s.id, g.lineAddr, sendMask)
}

// onLoadResponse fills the L1 and wakes every access waiting on the
// returned sectors.
func (s *SM) onLoadResponse(now sim.Cycle, lineAddr uint64, mask uint64) {
	var ev cache.Eviction
	if s.l1.FillInto(lineAddr, mask, 0, &ev) && ev.DirtyMask != 0 {
		// The L1 is write-through; dirty evictions cannot happen.
		panic("gpu: dirty eviction from a write-through L1")
	}
	for i := 0; i < s.l1.SectorsPerLine(); i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		sa := lineAddr + uint64(i*s.m.cfg.L1.SectorBytes)
		n, ok := s.l1mshr.Delete(sa)
		if !ok {
			continue
		}
		for n != 0 {
			w := s.waiters[n]
			s.freeWaiter(n)
			s.completeSectorsIdx(now, w.rec, 1)
			n = w.next
		}
	}
}

// completeSectorsIdx retires n sector completions of one pooled access,
// retiring the access itself (and recycling its slot) when the count
// reaches zero.
func (s *SM) completeSectorsIdx(now sim.Cycle, ri int32, n int) {
	rec := s.accs.At(ri)
	rec.remaining -= int32(n)
	if rec.remaining > 0 {
		return
	}
	if rec.remaining < 0 {
		panic("gpu: access completed more sectors than issued")
	}
	s.pending--
	s.instrRetired += rec.instrs
	s.accessesDone++
	dep := rec.dependent
	s.accs.Put(ri)
	if dep {
		s.blocked = false
	}
	s.m.accessRetired(now)
	s.scheduleIssue(now + 1)
}
