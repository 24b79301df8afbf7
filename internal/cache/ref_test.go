package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refLine is one way of the reference tag store.
type refLine struct {
	valid        bool
	lineNum      uint64
	vmask, dmask uint64
	stamp        uint64
	rrpv         uint8
}

// refCache is a naive tag store kept set by set as arrays of line
// records, with per-sector lookups only: the model the packed store must
// reproduce outcome for outcome.
type refCache struct {
	cfg   Config
	sets  [][]refLine
	clock uint64
	stats map[string]uint64
	order []string // counter names in first-touch order
}

func newRefCache(cfg Config) *refCache {
	n := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	r := &refCache{cfg: cfg, sets: make([][]refLine, n), stats: map[string]uint64{}}
	for s := range r.sets {
		r.sets[s] = make([]refLine, cfg.Ways)
		for w := range r.sets[s] {
			r.sets[s][w].rrpv = maxRRPV
		}
	}
	return r
}

func (r *refCache) inc(name string) {
	if _, ok := r.stats[name]; !ok {
		r.order = append(r.order, name)
	}
	r.stats[name]++
}

// find returns addr's set, line number and way (nil when absent).
func (r *refCache) find(addr uint64) (set []refLine, lineNum uint64, ln *refLine) {
	lineNum = addr / uint64(r.cfg.LineBytes)
	idx := lineNum
	if r.cfg.HashSets {
		bits := uint(0)
		for 1<<bits < len(r.sets) {
			bits++
		}
		if bits == 0 {
			bits = 1
		}
		idx ^= idx >> bits
		idx ^= idx >> (2 * bits)
		idx ^= idx >> (4 * bits)
	}
	set = r.sets[idx%uint64(len(r.sets))]
	for w := range set {
		if set[w].valid && set[w].lineNum == lineNum {
			return set, lineNum, &set[w]
		}
	}
	return set, lineNum, nil
}

func (r *refCache) sectorBit(addr uint64) uint64 {
	return 1 << (addr % uint64(r.cfg.LineBytes) / uint64(r.cfg.SectorBytes))
}

func (r *refCache) access(addr uint64, write bool) Outcome {
	_, _, ln := r.find(addr)
	r.clock++
	r.inc("accesses")
	if ln == nil {
		r.inc("misses")
		return Miss
	}
	if ln.vmask&r.sectorBit(addr) == 0 {
		r.inc("sector_misses")
		return SectorMiss
	}
	ln.stamp, ln.rrpv = r.clock, 0
	if write {
		ln.dmask |= r.sectorBit(addr)
	}
	r.inc("hits")
	return Hit
}

func (r *refCache) fill(lineAddr, mask, dirty uint64) (Eviction, bool) {
	set, lineNum, ln := r.find(lineAddr)
	r.clock++
	if ln != nil {
		if mask&^ln.vmask != 0 {
			r.inc("sector_fills")
		}
		ln.vmask |= mask
		ln.dmask |= dirty & mask
		ln.stamp = r.clock
		return Eviction{}, false
	}
	v := r.victim(set)
	var ev Eviction
	evicted := set[v].valid
	if evicted {
		r.inc("evictions")
		ev = Eviction{LineAddr: set[v].lineNum * uint64(r.cfg.LineBytes), ValidMask: set[v].vmask, DirtyMask: set[v].dmask}
		if set[v].dmask != 0 {
			r.inc("dirty_evictions")
		}
	}
	set[v] = refLine{valid: true, lineNum: lineNum, vmask: mask, dmask: dirty & mask, stamp: r.clock, rrpv: maxRRPV - 1}
	r.inc("line_fills")
	return ev, evicted
}

func (r *refCache) victim(set []refLine) int {
	for w := range set {
		if !set[w].valid {
			return w
		}
	}
	if r.cfg.Repl == SRRIP {
		for {
			for w := range set {
				if set[w].rrpv >= maxRRPV {
					return w
				}
			}
			for w := range set {
				set[w].rrpv++
			}
		}
	}
	v := 0
	for w := range set {
		if set[w].stamp < set[v].stamp {
			v = w
		}
	}
	return v
}

// walk lists the valid lines set by set, way by way.
func (r *refCache) walk() []string {
	var out []string
	for _, set := range r.sets {
		for _, ln := range set {
			if ln.valid {
				out = append(out, fmt.Sprintf("%#x v=%#x d=%#x", ln.lineNum*uint64(r.cfg.LineBytes), ln.vmask, ln.dmask))
			}
		}
	}
	return out
}

func walkOf(c *Cache) []string {
	var out []string
	c.Walk(func(lineAddr, vmask, dmask uint64) {
		out = append(out, fmt.Sprintf("%#x v=%#x d=%#x", lineAddr, vmask, dmask))
	})
	return out
}

// TestTagStoreMatchesReference drives the packed tag store and the naive
// per-set model with the same random streams of Access, AccessLine,
// FillInto, MarkDirty and CleanSector, over LRU and SRRIP with and
// without hashed sets, at way counts up to the 16 that the L2 banks and
// the RC use (12 is the non-power-of-two case), and compares every
// outcome, eviction, mask, counter (values and first-touch order) and
// the final Walk.
func TestTagStoreMatchesReference(t *testing.T) {
	for _, repl := range []Policy{LRU, SRRIP} {
		for _, hashed := range []bool{false, true} {
			for _, ways := range []int{1, 4, 8, 12, 16} {
				cfg := Config{Name: "ref", SizeBytes: 8 * ways * 128, Ways: ways,
					LineBytes: 128, SectorBytes: 32, Repl: repl, HashSets: hashed}
				t.Run(fmt.Sprintf("%v/hashed=%v/ways=%d", repl, hashed, ways), func(t *testing.T) {
					for seed := int64(1); seed <= 10; seed++ {
						checkAgainstRef(t, cfg, seed)
					}
				})
			}
		}
	}
}

// FuzzTagStore runs checkAgainstRef on fuzzed configurations: a seed for
// the op stream, 1 to 16 ways over 8 sets, either policy, and plain or
// hashed sets.
func FuzzTagStore(f *testing.F) {
	f.Add(int64(1), uint8(15), false, false)
	f.Add(int64(2), uint8(3), false, true)
	f.Add(int64(3), uint8(11), true, false)
	f.Add(int64(4), uint8(0), true, true)
	f.Fuzz(func(t *testing.T, seed int64, ways uint8, srrip, hashed bool) {
		w := 1 + int(ways)%MaxWays
		cfg := Config{Name: "fuzz", SizeBytes: 8 * w * 128, Ways: w,
			LineBytes: 128, SectorBytes: 32, HashSets: hashed}
		if srrip {
			cfg.Repl = SRRIP
		}
		checkAgainstRef(t, cfg, seed)
	})
}

func checkAgainstRef(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	c, r := New(cfg), newRefCache(cfg)
	rng := rand.New(rand.NewSource(seed))
	// Lines from a region four times the cache, so sets conflict.
	lines := uint64(4 * cfg.SizeBytes / cfg.LineBytes)
	spl := cfg.LineBytes / cfg.SectorBytes
	for i := 0; i < 4000; i++ {
		lineAddr := uint64(rng.Int63n(int64(lines))) * uint64(cfg.LineBytes)
		sector := lineAddr + uint64(rng.Intn(spl)*cfg.SectorBytes)
		mask := uint64(rng.Intn(1<<spl-1) + 1)
		where := fmt.Sprintf("seed %d op %d", seed, i)
		switch op := rng.Intn(9); op {
		case 0, 1:
			write := op == 1
			if got, want := c.Access(sector, write), r.access(sector, write); got != want {
				t.Fatalf("%s: Access(%#x, %v) = %v, want %v", where, sector, write, got, want)
			}
		case 2, 3, 4:
			var want uint64
			for s := 0; s < spl; s++ {
				if mask&(1<<s) != 0 && r.access(lineAddr+uint64(s*cfg.SectorBytes), false) == Hit {
					want |= 1 << s
				}
			}
			if got := c.AccessLine(lineAddr, mask); got != want {
				t.Fatalf("%s: AccessLine(%#x, %#x) = %#x, want %#x", where, lineAddr, mask, got, want)
			}
		case 5, 6:
			dirty := mask & uint64(rng.Intn(1<<spl))
			var ev Eviction
			got := c.FillInto(lineAddr, mask, dirty, &ev)
			wantEv, want := r.fill(lineAddr, mask, dirty)
			if got != want || (want && ev != wantEv) {
				t.Fatalf("%s: FillInto(%#x) = %v %+v, want %v %+v", where, lineAddr, got, ev, want, wantEv)
			}
		case 7:
			if _, _, ln := r.find(sector); ln != nil && ln.vmask&r.sectorBit(sector) != 0 {
				c.MarkDirty(sector)
				ln.dmask |= r.sectorBit(sector)
			}
		case 8:
			c.CleanSector(sector)
			if _, _, ln := r.find(sector); ln != nil {
				ln.dmask &^= r.sectorBit(sector)
			}
		}
		_, _, ln := r.find(lineAddr)
		var wv, wd uint64
		if ln != nil {
			wv, wd = ln.vmask, ln.dmask
		}
		if gv, gd := c.ValidMask(lineAddr), c.DirtyMask(lineAddr); gv != wv || gd != wd {
			t.Fatalf("%s: masks of %#x = %#x/%#x, want %#x/%#x", where, lineAddr, gv, gd, wv, wd)
		}
	}
	if got, want := walkOf(c), r.walk(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: Walk differs:\n got %v\nwant %v", seed, got, want)
	}
	if got := c.Stats.Names(); !reflect.DeepEqual(got, r.order) {
		t.Fatalf("seed %d: counter order %v, want %v", seed, got, r.order)
	}
	for name, want := range r.stats {
		if got := c.Stats.Get(name); got != want {
			t.Fatalf("seed %d: counter %s = %d, want %d", seed, name, got, want)
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}
