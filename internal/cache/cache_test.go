package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{
		Name:        "t",
		SizeBytes:   16 * 1024,
		Ways:        4,
		LineBytes:   128,
		SectorBytes: 32,
		Repl:        LRU,
	}
}

// fill is FillInto for tests that do not inspect the victim.
func fill(c *Cache, lineAddr, sectorMask, dirtyMask uint64) {
	var ev Eviction
	c.FillInto(lineAddr, sectorMask, dirtyMask, &ev)
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Config{
		{Name: "a", SizeBytes: 0, Ways: 4, LineBytes: 128, SectorBytes: 32},
		{Name: "b", SizeBytes: 16384, Ways: 4, LineBytes: 100, SectorBytes: 32},
		{Name: "c", SizeBytes: 16384, Ways: 3, LineBytes: 128, SectorBytes: 32}, // 42.66 sets
		{Name: "d", SizeBytes: 24576, Ways: 4, LineBytes: 128, SectorBytes: 32}, // 48 sets, not pow2
		{Name: "e", SizeBytes: 16384, Ways: 4, LineBytes: 128, SectorBytes: 1},  // >64 sectors
		{Name: "f", SizeBytes: 2 * MaxSizeBytes, Ways: 4, LineBytes: 128, SectorBytes: 32},
		{Name: "g", SizeBytes: 1 << 20, Ways: 2 * MaxWays, LineBytes: 128, SectorBytes: 32},
		{Name: "h", SizeBytes: 32768, Ways: 4, LineBytes: 1 << 62, SectorBytes: 1 << 61}, // line × ways overflows
		{Name: "i", SizeBytes: 17 * 128 * 8, Ways: 17, LineBytes: 128, SectorBytes: 32},  // past one recency word
		{Name: "j", SizeBytes: 96 * 4 * 32, Ways: 4, LineBytes: 96, SectorBytes: 32},     // 32 sets, but a 96B line
		{Name: "k", SizeBytes: 16384, Ways: 4, LineBytes: 128, SectorBytes: 24},
		{Name: "l", SizeBytes: 16384, Ways: 4, LineBytes: 128, SectorBytes: 32, Repl: 7}, // no such policy
	}
	for _, cfg := range bads {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %q accepted: %+v", cfg.Name, cfg)
		}
	}
	edge := Config{Name: "edge", SizeBytes: MaxSizeBytes, Ways: MaxWays, LineBytes: 128, SectorBytes: 32}
	if err := edge.Validate(); err != nil {
		t.Fatalf("largest cache rejected: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(testConfig())
	addr := uint64(0x1000)
	if got := c.Access(addr, false); got != Miss {
		t.Fatalf("cold access = %v", got)
	}
	fill(c, c.LineAddr(addr), c.SectorMask(addr), 0)
	if got := c.Access(addr, false); got != Hit {
		t.Fatalf("after fill = %v", got)
	}
	// A different sector of the same line is a sector miss.
	if got := c.Access(addr+32, false); got != SectorMiss {
		t.Fatalf("other sector = %v", got)
	}
	if c.Stats.Get("hits") != 1 || c.Stats.Get("misses") != 1 || c.Stats.Get("sector_misses") != 1 {
		t.Fatalf("stats: %s", c.Stats)
	}
}

func TestSectorGeometryHelpers(t *testing.T) {
	c := New(testConfig())
	if c.SectorsPerLine() != 4 {
		t.Fatalf("sectors/line = %d", c.SectorsPerLine())
	}
	if c.LineAddr(0x1234) != 0x1200 {
		t.Fatalf("LineAddr = %#x", c.LineAddr(0x1234))
	}
	if c.SectorIndex(0x1234) != 1 {
		t.Fatalf("SectorIndex = %d", c.SectorIndex(0x1234))
	}
	if c.SectorMask(0x1234) != 0b0010 {
		t.Fatalf("SectorMask = %#b", c.SectorMask(0x1234))
	}
}

func TestWriteMarksDirtyAndEvictionReportsIt(t *testing.T) {
	cfg := testConfig()
	c := New(cfg)
	addr := uint64(0)
	fill(c, 0, 0b0001, 0)
	if got := c.Access(addr, true); got != Hit {
		t.Fatalf("write hit = %v", got)
	}
	if c.DirtyMask(0) != 0b0001 {
		t.Fatalf("dirty mask = %#b", c.DirtyMask(0))
	}
	// Fill conflicting lines until this one is evicted; the eviction must
	// carry the dirty mask. Same set = same line number modulo numSets.
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	stride := uint64(numSets * cfg.LineBytes)
	var ev Eviction
	evicted := false
	for i := 1; (!evicted || ev.DirtyMask == 0) && i <= cfg.Ways+1; i++ {
		evicted = c.FillInto(uint64(i)*stride, 0b1111, 0, &ev)
	}
	if !evicted || ev.DirtyMask == 0 {
		t.Fatal("no dirty eviction after overfilling the set")
	}
	if ev.LineAddr != 0 || ev.DirtyMask != 0b0001 || ev.ValidMask != 0b0001 {
		t.Fatalf("eviction = %+v", ev)
	}
}

func TestLRUVictimSelection(t *testing.T) {
	cfg := testConfig()
	c := New(cfg)
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	stride := uint64(numSets * cfg.LineBytes)
	// Fill 4 ways of set 0.
	for i := 0; i < 4; i++ {
		fill(c, uint64(i)*stride, 0b1111, 0)
	}
	// Touch lines 0,1,2 — line 3 is now LRU.
	for i := 0; i < 3; i++ {
		c.Access(uint64(i)*stride, false)
	}
	fill(c, 4*stride, 0b1111, 0)
	if c.ValidMask(3*stride) != 0 {
		t.Fatal("line 3 should have been the LRU victim")
	}
	for i := 0; i < 3; i++ {
		if c.ValidMask(uint64(i)*stride) == 0 {
			t.Fatalf("recently used line %d was evicted", i)
		}
	}
}

func TestSRRIPResistsStreaming(t *testing.T) {
	cfg := testConfig()
	cfg.Repl = SRRIP
	c := New(cfg)
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	stride := uint64(numSets * cfg.LineBytes)
	// A hot line, re-referenced between streaming fills.
	hot := uint64(0)
	fill(c, hot, 0b1111, 0)
	c.Access(hot, false) // promote to rrpv=0
	for i := 1; i <= 16; i++ {
		fill(c, uint64(i)*stride, 0b1111, 0)
		c.Access(hot, false)
	}
	if c.ValidMask(hot) == 0 {
		t.Fatal("SRRIP evicted the hot line during a streaming sweep")
	}
}

func TestFillMergeKeepsDirty(t *testing.T) {
	c := New(testConfig())
	fill(c, 0, 0b0001, 0b0001) // dirty fill (write-allocate)
	fill(c, 0, 0b0011, 0)      // later clean fill must not clean sector 0
	if c.DirtyMask(0) != 0b0001 {
		t.Fatalf("dirty mask = %#b, want 0b0001", c.DirtyMask(0))
	}
	if c.ValidMask(0) != 0b0011 {
		t.Fatalf("valid mask = %#b, want 0b0011", c.ValidMask(0))
	}
}

func TestDirtyMaskLimitedToFilledSectors(t *testing.T) {
	c := New(testConfig())
	fill(c, 0, 0b0001, 0b1111) // dirty mask wider than fill mask
	if c.DirtyMask(0) != 0b0001 {
		t.Fatalf("dirty leaked beyond filled sectors: %#b", c.DirtyMask(0))
	}
}

func TestMisalignedFillPanics(t *testing.T) {
	c := New(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned fill must panic")
		}
	}()
	fill(c, 32, 1, 0)
}

func TestMarkDirtyAndClean(t *testing.T) {
	c := New(testConfig())
	fill(c, 0, 0b0001, 0)
	c.MarkDirty(0)
	if c.DirtyMask(0) != 0b0001 {
		t.Fatal("MarkDirty failed")
	}
	c.CleanSector(0)
	if c.DirtyMask(0) != 0 {
		t.Fatal("CleanSector failed")
	}
	// Cleaning an absent sector is a no-op.
	c.CleanSector(0x100000)
}

func TestMarkDirtyAbsentPanics(t *testing.T) {
	c := New(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("MarkDirty on absent sector must panic")
		}
	}()
	c.MarkDirty(0x4000)
}

func TestWalkVisitsAllValidLines(t *testing.T) {
	c := New(testConfig())
	addrs := []uint64{0, 0x1000, 0x2000}
	for _, a := range addrs {
		fill(c, a, 0b1111, 0b0001)
	}
	seen := map[uint64]bool{}
	c.Walk(func(lineAddr, vmask, dmask uint64) {
		seen[lineAddr] = true
		if vmask != 0b1111 || dmask != 0b0001 {
			t.Fatalf("walk masks %#b/%#b", vmask, dmask)
		}
	})
	if len(seen) != len(addrs) {
		t.Fatalf("walk visited %d lines, want %d", len(seen), len(addrs))
	}
}

// Property: valid sectors only ever come from fills; a hit never appears
// without a preceding fill covering that sector, and dirty ⊆ valid.
func TestCacheInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(testConfig())
		filled := map[uint64]bool{} // sector-granular ground truth (may be stale after eviction)
		for op := 0; op < 2000; op++ {
			addr := uint64(rng.Intn(256)) * 32
			switch rng.Intn(2) {
			case 0:
				out := c.Access(addr, rng.Intn(2) == 0)
				if out == Hit && !filled[addr] {
					return false // hit fabricated from nowhere
				}
			case 1:
				mask := uint64(rng.Intn(15) + 1)
				la := c.LineAddr(addr)
				fill(c, la, mask, 0)
				for s := 0; s < 4; s++ {
					if mask&(1<<s) != 0 {
						filled[la+uint64(s*32)] = true
					}
				}
			}
			// dirty ⊆ valid for the touched line.
			la := c.LineAddr(addr)
			if c.DirtyMask(la)&^c.ValidMask(la) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStringersAndAccessors(t *testing.T) {
	if LRU.String() != "lru" || SRRIP.String() != "srrip" {
		t.Fatal("policy strings")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy must render")
	}
	if Miss.String() != "miss" || SectorMiss.String() != "sector-miss" || Hit.String() != "hit" {
		t.Fatal("outcome strings")
	}
	if Outcome(9).String() == "" {
		t.Fatal("unknown outcome must render")
	}
}

// TestMarksFollowTheLine: Mark only takes present sectors, a line's marks
// survive fills into it and come back in the Eviction that displaces it,
// and a reallocated way starts unmarked.
func TestMarksFollowTheLine(t *testing.T) {
	cfg := testConfig()
	c := New(cfg)
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	stride := uint64(numSets * cfg.LineBytes)

	fill(c, 0, 0b0001, 0)
	if c.Mark(32) || c.Mark(stride) {
		t.Fatal("Mark accepted an absent sector")
	}
	if !c.Mark(0) {
		t.Fatal("Mark refused a present sector")
	}
	fill(c, 0, 0b0010, 0) // a fill into the line keeps its marks
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	var ev Eviction
	for i := 1; i <= 2*cfg.Ways; i++ {
		if !c.FillInto(uint64(i)*stride, 0b1111, 0, &ev) {
			continue
		}
		want := uint64(0)
		if ev.LineAddr == 0 {
			want = 0b0001
		}
		if ev.MarkMask != want {
			t.Fatalf("eviction of %#x carries marks %#b, want %#b", ev.LineAddr, ev.MarkMask, want)
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestLRUVictimSequence walks a single 4-way set and a single 16-way set
// through known touch sequences and checks the victim of every fill
// against the order worked out by hand.
func TestLRUVictimSequence(t *testing.T) {
	single := func(ways int) *Cache {
		return New(Config{Name: "seq", SizeBytes: ways * 128, Ways: ways, LineBytes: 128, SectorBytes: 32})
	}
	// victimOf fills line n and returns the evicted line's number, or -1.
	victimOf := func(c *Cache, n uint64, mask uint64) int {
		var ev Eviction
		if !c.FillInto(n*128, mask, 0, &ev) {
			return -1
		}
		return int(ev.LineAddr / 128)
	}

	c := single(4)
	for n := uint64(0); n < 4; n++ {
		if v := victimOf(c, n, 0b0001); v != -1 {
			t.Fatalf("4-way: filling free way for line %d evicted %d", n, v)
		}
	} // most recent first: 3 2 1 0
	c.Access(1*128, false)      // hit: 1 3 2 0
	c.Access(0*128+32, false)   // sector miss, no reorder
	c.AccessLine(2*128, 0b0011) // sector 0 hits: 2 1 3 0
	victimOf(c, 3, 0b0010)      // fill into a present line: 3 2 1 0
	for _, step := range []struct {
		touch, fill uint64
		want        int
	}{
		{fill: 4, want: 0},           // 4 3 2 1
		{touch: 1, fill: 5, want: 2}, // 1 4 3 2, then 5 1 4 3
		{fill: 6, want: 3},           // 6 5 1 4
		{fill: 7, want: 4},           // 7 6 5 1
		{fill: 8, want: 1},
	} {
		if step.touch != 0 && c.Access(step.touch*128, false) != Hit {
			t.Fatalf("4-way: line %d not present", step.touch)
		}
		if v := victimOf(c, step.fill, 0b0001); v != step.want {
			t.Fatalf("4-way: filling line %d evicted %d, want %d", step.fill, v, step.want)
		}
	}

	// 16 ways: fill lines 0..15, touch the even ones in ascending order;
	// the next 32 fills evict the odd lines, then the even lines, then
	// the first 16 new lines, each group in the order it was touched.
	c = single(16)
	for n := uint64(0); n < 16; n++ {
		victimOf(c, n, 0b1111)
	}
	for n := uint64(0); n < 16; n += 2 {
		c.AccessLine(n*128, 0b1111)
	}
	var want []int
	for n := 1; n < 16; n += 2 {
		want = append(want, n)
	}
	for n := 0; n < 16; n += 2 {
		want = append(want, n)
	}
	for n := 16; n < 32; n++ {
		want = append(want, n)
	}
	for i, w := range want {
		n := uint64(16 + i)
		if v := victimOf(c, n, 0b1111); v != w {
			t.Fatalf("16-way: filling line %d evicted %d, want %d", n, v, w)
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
