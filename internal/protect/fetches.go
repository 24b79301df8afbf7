package protect

import (
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

// Fetches tracks outstanding DRAM fetches by address, each with the joins
// waiting on it, so a second request for an address in flight merges with
// the fetch instead of duplicating it. Fetches live in pooled slots whose
// waiter lists keep their capacity, and complete through a handler event,
// so tracking a fetch allocates nothing in steady state.
type Fetches struct {
	env    *Env
	byAddr sim.AddrTable // address → fetch slot
	slots  sim.Pool[fetch]
	// arrived runs when a fetch completes, after its address has left the
	// table (so a request arriving from inside it starts a new fetch) and
	// before its waiters are released; merged reports whether any joined.
	arrived func(at sim.Cycle, addr uint64, flag, merged bool)
}

type fetch struct {
	addr    uint64
	flag    bool
	waiters []Join
}

// NewFetches returns an empty table whose completed fetches run arrived
// with the fetch's address and flag (see Start and Wait), then release
// its waiters in the order they joined.
func NewFetches(env *Env, arrived func(at sim.Cycle, addr uint64, flag, merged bool)) *Fetches {
	return &Fetches{env: env, arrived: arrived}
}

// InFlight reports whether a fetch of addr is outstanding.
func (f *Fetches) InFlight(addr uint64) bool {
	return f.byAddr.Has(addr)
}

// Start submits req as the fetch of addr, with the given flag and first
// as its one waiter (NoJoin for none).
func (f *Fetches) Start(now sim.Cycle, addr uint64, flag bool, first Join, req mem.Request) {
	slot := f.slots.Get()
	s := f.slots.At(slot)
	s.addr, s.flag = addr, flag
	if first != NoJoin {
		s.waiters = append(s.waiters, first)
	}
	f.byAddr.Put(addr, slot)
	f.env.DRAM.SubmitPost(now, req, (*fetchDone)(f), uint64(uint32(slot)))
}

// Wait adds w (unless it is NoJoin) to the waiters of addr's outstanding
// fetch and ORs flag into the fetch's flag; it reports false, doing
// nothing, when no fetch of addr is outstanding.
func (f *Fetches) Wait(addr uint64, flag bool, w Join) bool {
	slot, ok := f.byAddr.Get(addr)
	if !ok {
		return false
	}
	s := f.slots.At(slot)
	s.flag = s.flag || flag
	if w != NoJoin {
		s.waiters = append(s.waiters, w)
	}
	return true
}

// fetchDone completes a fetch (a0, its slot).
type fetchDone Fetches

func (h *fetchDone) OnEvent(at sim.Cycle, a0, _ uint64) {
	f := (*Fetches)(h)
	slot := int32(uint32(a0))
	s := f.slots.At(slot)
	addr, flag, waiters := s.addr, s.flag, s.waiters
	f.byAddr.Delete(addr)
	f.arrived(at, addr, flag, len(waiters) > 0)
	for _, w := range waiters {
		f.env.arrive(at, w)
	}
	// The slot is still ours (no longer in the table, not yet freed), but
	// the calls above may have grown the pool: re-index it.
	f.slots.At(slot).waiters = waiters[:0]
	f.slots.Put(slot)
}
