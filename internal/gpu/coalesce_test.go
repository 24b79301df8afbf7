package gpu

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"cachecraft/internal/trace"
)

// Property: coalescing covers exactly the bytes the threads touch — no
// byte lost, no byte invented — and sectors are unique and sorted.
func TestCoalescePropertyCoverage(t *testing.T) {
	f := func(seed int64, nThreads uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nThreads%32) + 1
		a := trace.Access{Bytes: []int{1, 2, 4, 8}[rng.Intn(4)]}
		for i := 0; i < n; i++ {
			a.Addrs = append(a.Addrs, uint64(rng.Intn(1<<16)))
		}
		reqs := Coalesce(a, 32)

		// Ground truth byte set.
		want := map[uint64]bool{}
		for _, addr := range a.Addrs {
			for b := 0; b < a.Bytes; b++ {
				want[addr+uint64(b)] = true
			}
		}
		got := map[uint64]bool{}
		var prev uint64
		for i, r := range reqs {
			if r.Addr%32 != 0 {
				return false // misaligned sector
			}
			if i > 0 && r.Addr <= prev {
				return false // not strictly ascending
			}
			prev = r.Addr
			for b := 0; b < 32; b++ {
				if r.ByteMask&(1<<b) != 0 {
					got[r.Addr+uint64(b)] = true
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for b := range want {
			if !got[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: groupByLine partitions the sectors exactly (mask union per
// line matches, full mask ⊆ sector mask).
func TestGroupByLineProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var reqs []SectorReq
		seen := map[uint64]bool{}
		for i := 0; i < rng.Intn(20)+1; i++ {
			addr := uint64(rng.Intn(64)) * 32
			if seen[addr] {
				continue
			}
			seen[addr] = true
			mask := uint32(rng.Uint32())
			if rng.Intn(3) == 0 {
				mask = FullByteMask
			}
			reqs = append(reqs, SectorReq{Addr: addr, ByteMask: mask})
		}
		groups := groupByLine(reqs, 128, 32)
		counted := 0
		for _, g := range groups {
			if g.lineAddr%128 != 0 {
				return false
			}
			if g.fullMask&^g.sectorMask != 0 {
				return false // full sectors must be requested sectors
			}
			counted += bits.OnesCount64(g.sectorMask)
		}
		return counted == len(reqs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
