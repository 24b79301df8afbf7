// Package gpu models the GPU front end — warp coalescing, SM issue and
// outstanding-access tracking, the banked sectored L2 — and wires the full
// machine together: SMs, interconnect, L2, protection controller, DRAM.
package gpu

import (
	"math/bits"

	"cachecraft/internal/trace"
)

// SectorReq is one coalesced sector touched by a warp access, with the
// byte coverage the warp's threads provide (full coverage lets a store
// skip fetch-on-write).
type SectorReq struct {
	Addr     uint64 // sector-aligned
	ByteMask uint32 // bit i = byte i of the sector written/read
}

// FullByteMask is the coverage mask of a completely-written 32B sector.
const FullByteMask = ^uint32(0)

// Coalesce merges a warp access's per-thread addresses into unique sector
// requests, ordered by address. Threads writing the same bytes coalesce;
// accesses spanning sector boundaries contribute to both sectors.
func Coalesce(a trace.Access, sectorBytes int) []SectorReq {
	return coalesceInto(make([]SectorReq, 0, 8), a, sectorBytes)
}

// coalesceInto is Coalesce appending into a reused buffer (pass dst[:0]).
// Each thread's byte range [addr, addr+Bytes) is split at sector
// boundaries and merged into the address-sorted request list — the warp's
// requests stay small, so an insertion into the sorted slice beats the
// map-then-sort it replaces and allocates nothing.
func coalesceInto(dst []SectorReq, a trace.Access, sectorBytes int) []SectorReq {
	sb := uint64(sectorBytes)
	for _, addr := range a.Addrs {
		end := addr + uint64(a.Bytes)
		for addr < end {
			sector := addr - addr%sb
			hi := sector + sb
			if hi > end {
				hi = end
			}
			lo := addr - sector
			mask := uint32((uint64(1)<<(hi-addr) - 1) << lo)
			dst = mergeReq(dst, sector, mask)
			addr = hi
		}
	}
	return dst
}

// mergeReq unions mask into the entry for sector, inserting in address
// order when the sector is new.
func mergeReq(dst []SectorReq, sector uint64, mask uint32) []SectorReq {
	lo, hi := 0, len(dst)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if dst[mid].Addr < sector {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(dst) && dst[lo].Addr == sector {
		dst[lo].ByteMask |= mask
		return dst
	}
	dst = append(dst, SectorReq{})
	copy(dst[lo+1:], dst[lo:])
	dst[lo] = SectorReq{Addr: sector, ByteMask: mask}
	return dst
}

// lineGroup collects the sectors of one access that fall in the same
// cache line.
type lineGroup struct {
	lineAddr   uint64
	sectorMask uint64 // within the line
	fullMask   uint64 // sectors completely covered by the warp's bytes
}

// groupByLine partitions sector requests into per-line groups. Requests
// sorted by address (Coalesce's output order) yield groups ordered by line
// address.
func groupByLine(reqs []SectorReq, lineBytes, sectorBytes int) []lineGroup {
	return groupByLineInto(make([]lineGroup, 0, 4), reqs, lineBytes, sectorBytes)
}

// groupByLineInto is groupByLine appending into a reused buffer (pass
// dst[:0]). Address-sorted requests put each line's sectors in one
// contiguous run, so grouping is a single linear pass. Both sizes are
// powers of two, as cache.Config.Validate requires.
func groupByLineInto(dst []lineGroup, reqs []SectorReq, lineBytes, sectorBytes int) []lineGroup {
	offMask := uint64(lineBytes - 1)
	sectorShift := uint(bits.TrailingZeros(uint(sectorBytes)))
	for _, r := range reqs {
		la := r.Addr &^ offMask
		idx := r.Addr & offMask >> sectorShift
		if n := len(dst); n == 0 || dst[n-1].lineAddr != la {
			dst = append(dst, lineGroup{lineAddr: la})
		}
		g := &dst[len(dst)-1]
		g.sectorMask |= 1 << idx
		if r.ByteMask == FullByteMask {
			g.fullMask |= 1 << idx
		}
	}
	return dst
}
