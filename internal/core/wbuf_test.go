package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cachecraft/internal/mem"
	"cachecraft/internal/protect"
	"cachecraft/internal/sim"
)

// refWBuf is the write buffer as a Go map whose overflow victim is found
// by scanning for the lowest generation: the model the creation-order
// FIFO must reproduce. It predicts the DRAM requests the buffer's
// decisions submit.
type refWBuf struct {
	max      int
	timeout  sim.Cycle
	full     uint64
	entries  map[uint64]refWBufEntry
	gen      uint64
	expiries []refExpiry // in posting order, which is deadline order
	reqs     []string
	overflow uint64
	timeouts uint64
}

type refWBufEntry struct{ mask, gen uint64 }

type refExpiry struct {
	at          sim.Cycle
	tagged, gen uint64
}

func reqString(class mem.Class, write bool, addr uint64) string {
	return fmt.Sprintf("%v w=%v %#x", class, write, addr)
}

// expire runs the timeouts due by cycle now.
func (r *refWBuf) expire(now sim.Cycle) {
	for len(r.expiries) > 0 && r.expiries[0].at <= now {
		x := r.expiries[0]
		r.expiries = r.expiries[1:]
		if e, ok := r.entries[x.tagged]; ok && e.gen == x.gen {
			r.timeouts++
			r.flush(x.tagged)
		}
	}
}

func (r *refWBuf) flush(tagged uint64) {
	delete(r.entries, tagged)
	r.reqs = append(r.reqs, reqString(mem.RMW, false, tagged&^protect.RedTag))
}

func (r *refWBuf) update(now sim.Cycle, tagged, written uint64) {
	e, ok := r.entries[tagged]
	if !ok {
		if len(r.entries) >= r.max {
			var oldest uint64
			found := false
			for a, x := range r.entries {
				if !found || x.gen < r.entries[oldest].gen {
					oldest, found = a, true
				}
			}
			r.overflow++
			r.flush(oldest)
		}
		r.gen++
		e = refWBufEntry{gen: r.gen}
		r.expiries = append(r.expiries, refExpiry{at: now + r.timeout, tagged: tagged, gen: r.gen})
	}
	e.mask |= written
	if e.mask != r.full {
		r.entries[tagged] = e
		return
	}
	delete(r.entries, tagged)
	r.reqs = append(r.reqs, reqString(mem.Redundancy, true, tagged&^protect.RedTag))
}

func (r *refWBuf) drain() {
	var addrs []uint64
	for a := range r.entries {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		r.flush(a)
	}
}

// wbufReqHook records the requests the write buffer decides: everything
// submitted inside a Writeback or Drain call, and the read-modify-write
// reads a timeout submits from inside the engine (the redundancy writes
// that complete those reads are not the buffer's decisions).
type wbufReqHook struct {
	inCall bool
	reqs   []string
}

func (h *wbufReqHook) Submitted(_ sim.Cycle, req mem.Request, _, _ int, _ int64) {
	if h.inCall || req.Class == mem.RMW {
		h.reqs = append(h.reqs, reqString(req.Class, req.Write, req.Addr))
	}
}
func (h *wbufReqHook) Serviced(sim.Cycle, mem.Request, int, int, int64, int64, sim.Cycle) {}
func (h *wbufReqHook) Refreshed(sim.Cycle, int)                                           {}

// TestWriteBufferVictimsMatchMinGenerationScan drives a small write
// buffer with random writebacks to a handful of granules — some complete
// a granule (blind writes), some wait out the timeout, some overflow the
// buffer — and checks that the buffer flushes the same entries in the
// same order as a lowest-generation scan over a map, request for request,
// with matching overflow and timeout counts.
func TestWriteBufferVictimsMatchMinGenerationScan(t *testing.T) {
	var sawOverflow, sawTimeout, sawBlind bool
	for _, entries := range []int{2, 3, 4} {
		for seed := int64(1); seed <= 20; seed++ {
			env, eng, _ := testEnv(t)
			opt := DefaultOptions()
			opt.Reconstruct = false
			opt.UseRC = false
			opt.WBufEntries = entries
			opt.WBufTimeout = 300
			c := New(env, opt)
			geo := env.Map.Geometry()
			ref := &refWBuf{
				max: entries, timeout: opt.WBufTimeout, entries: map[uint64]refWBufEntry{},
				full: uint64(1)<<geo.SectorsPerGranule() - 1,
			}
			hook := &wbufReqHook{}
			env.DRAM.SetHook(hook)
			rng := rand.New(rand.NewSource(seed))
			now := sim.Cycle(0)
			for i := 0; i < 400; i++ {
				now += sim.Cycle(rng.Intn(40))
				eng.Run(now)
				ref.expire(now)
				lineAddr := uint64(rng.Intn(16)) * uint64(geo.LineBytes)
				dirty := uint64(rng.Intn(1<<geo.SectorsPerLine()-1) + 1)
				var written uint64
				for s := 0; s < geo.SectorsPerLine(); s++ {
					if dirty&(1<<s) != 0 {
						sa := lineAddr + uint64(s*geo.SectorBytes)
						written |= 1 << (sa % uint64(geo.GranuleBytes) / uint64(geo.SectorBytes))
						ref.reqs = append(ref.reqs, reqString(mem.Writeback, true, env.Map.DataPhys(sa)))
					}
				}
				ref.update(now, c.taggedRed(lineAddr), written)
				hook.inCall = true
				c.Writeback(now, lineAddr, dirty)
				hook.inCall = false
			}
			hook.inCall = true
			c.Drain(now)
			hook.inCall = false
			ref.drain()
			where := fmt.Sprintf("entries %d seed %d", entries, seed)
			if !reflect.DeepEqual(hook.reqs, ref.reqs) {
				for i := range hook.reqs {
					if i >= len(ref.reqs) || hook.reqs[i] != ref.reqs[i] {
						t.Fatalf("%s: request %d = %q, want %q (of %d, want %d)",
							where, i, hook.reqs[i], ref.reqs[min(i, len(ref.reqs)-1)], len(hook.reqs), len(ref.reqs))
					}
				}
				t.Fatalf("%s: %d requests, want %d", where, len(hook.reqs), len(ref.reqs))
			}
			if got := env.Stats.Get("red_wbuf_overflow"); got != ref.overflow {
				t.Fatalf("%s: red_wbuf_overflow = %d, want %d", where, got, ref.overflow)
			}
			if got := env.Stats.Get("red_wbuf_timeout"); got != ref.timeouts {
				t.Fatalf("%s: red_wbuf_timeout = %d, want %d", where, got, ref.timeouts)
			}
			sawOverflow = sawOverflow || ref.overflow > 0
			sawTimeout = sawTimeout || ref.timeouts > 0
			sawBlind = sawBlind || env.Stats.Get("red_blind_writes") > 0
		}
	}
	if !sawOverflow || !sawTimeout || !sawBlind {
		t.Fatalf("streams never exercised a path: overflow %v timeout %v blind %v", sawOverflow, sawTimeout, sawBlind)
	}
}
