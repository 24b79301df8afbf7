// Package cache implements the sectored set-associative cache used for the
// GPU L1s, the shared L2, and CacheCraft's dedicated redundancy cache.
// Outstanding misses are merged by the cache's owner (the L2 banks' and
// SMs' miss tables in internal/gpu), not here.
//
// The cache is a tag store only: the repository's simulator is
// trace-driven, so no data bytes flow through it. Lines are divided into
// sectors with independent valid and dirty bits — a GPU L2 fills at sector
// (32B) grain even though tags cover a full 128B line.
package cache

import (
	"fmt"

	"cachecraft/internal/stats"
)

// Policy selects the replacement policy.
type Policy int

const (
	// LRU evicts the least recently used way.
	LRU Policy = iota
	// SRRIP is static re-reference interval prediction (2-bit), which
	// resists thrashing better than LRU for streaming fills.
	SRRIP
)

// String renders the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case SRRIP:
		return "srrip"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config sizes a cache.
type Config struct {
	Name        string
	SizeBytes   int
	Ways        int
	LineBytes   int
	SectorBytes int
	Repl        Policy
	// HashSets XOR-folds the line number into the set index, the standard
	// GPU L2 defense against power-of-two stride conflict thrashing.
	HashSets bool
}

// Upper bounds on a cache's size and associativity: New allocates every
// line's tag and sector state up front, and a lookup scans every way of
// a set. The largest shipped cache is a 4 MiB 16-way L2.
const (
	MaxSizeBytes = 256 << 20
	MaxWays      = 256
)

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 || c.SectorBytes <= 0:
		return fmt.Errorf("cache %q: sizes must be positive", c.Name)
	case c.SizeBytes > MaxSizeBytes:
		return fmt.Errorf("cache %q: size %d exceeds %d", c.Name, c.SizeBytes, MaxSizeBytes)
	case c.Ways > MaxWays:
		return fmt.Errorf("cache %q: %d ways exceeds %d", c.Name, c.Ways, MaxWays)
	case c.LineBytes > c.SizeBytes:
		return fmt.Errorf("cache %q: line %dB exceeds size %d", c.Name, c.LineBytes, c.SizeBytes)
	case c.LineBytes%c.SectorBytes != 0:
		return fmt.Errorf("cache %q: line %dB not a multiple of sector %dB", c.Name, c.LineBytes, c.SectorBytes)
	case c.LineBytes/c.SectorBytes > 64:
		return fmt.Errorf("cache %q: more than 64 sectors per line", c.Name)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache %q: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

const maxRRPV = 3 // 2-bit SRRIP

// Cache is a sectored set-associative tag store. It is not safe for
// concurrent use; the simulator is single-threaded by design.
//
// The store is kept as parallel arrays with one element per way, laid out
// set by set (way w of set s is element s*ways+w), so a tag check reads
// ways×8 contiguous bytes and touches no sector or replacement state.
type Cache struct {
	cfg  Config
	ways int
	// tags holds each way's line number + 1; 0 marks an invalid way.
	tags  []uint64
	vmask []uint64 // per-sector valid bits
	dmask []uint64 // per-sector dirty bits
	marks []uint64 // per-sector marks (see Mark); nil until the first mark
	stamp []uint64 // LRU timestamp
	rrpv  []uint8  // SRRIP re-reference prediction value

	setsMask       uint64
	setBits        uint
	sectorsPerLine int
	lineMask       uint64 // the sector bits a line has
	clock          uint64
	Stats          *stats.Counters

	// Pre-resolved counter handles for the per-access hot path. They
	// resolve lazily so the Stats creation order still follows first touch.
	stAccesses       stats.Handle
	stHits           stats.Handle
	stMisses         stats.Handle
	stSectorMisses   stats.Handle
	stSectorFills    stats.Handle
	stLineFills      stats.Handle
	stEvictions      stats.Handle
	stDirtyEvictions stats.Handle
}

// Outcome classifies a lookup.
type Outcome int

const (
	// Miss: the line's tag is absent.
	Miss Outcome = iota
	// SectorMiss: the tag is present but the requested sector is invalid.
	SectorMiss
	// Hit: the sector is present.
	Hit
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case SectorMiss:
		return "sector-miss"
	case Hit:
		return "hit"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Eviction describes a victim line removed by a fill.
type Eviction struct {
	LineAddr  uint64
	ValidMask uint64 // sectors that were present
	DirtyMask uint64 // sectors that must be written back
	MarkMask  uint64 // sectors marked since the line was allocated
}

// New builds an empty cache. It panics on an invalid configuration, which
// is static setup, not runtime input.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	n := numSets * cfg.Ways
	rrpv := make([]uint8, n)
	for i := range rrpv {
		rrpv[i] = maxRRPV
	}
	setBits := uint(0)
	for 1<<setBits < numSets {
		setBits++
	}
	if setBits == 0 {
		setBits = 1 // avoid zero shifts in the hash fold
	}
	spl := cfg.LineBytes / cfg.SectorBytes
	c := &Cache{
		cfg:            cfg,
		ways:           cfg.Ways,
		tags:           make([]uint64, n),
		vmask:          make([]uint64, n),
		dmask:          make([]uint64, n),
		stamp:          make([]uint64, n),
		rrpv:           rrpv,
		setsMask:       uint64(numSets - 1),
		setBits:        setBits,
		sectorsPerLine: spl,
		lineMask:       uint64(1)<<spl - 1,
		Stats:          stats.NewCounters(),
	}
	c.stAccesses = c.Stats.Handle("accesses")
	c.stHits = c.Stats.Handle("hits")
	c.stMisses = c.Stats.Handle("misses")
	c.stSectorMisses = c.Stats.Handle("sector_misses")
	c.stSectorFills = c.Stats.Handle("sector_fills")
	c.stLineFills = c.Stats.Handle("line_fills")
	c.stEvictions = c.Stats.Handle("evictions")
	c.stDirtyEvictions = c.Stats.Handle("dirty_evictions")
	return c
}

// SectorsPerLine reports the line's sector count.
func (c *Cache) SectorsPerLine() int { return c.sectorsPerLine }

// LineAddr aligns an address down to its line base.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr - addr%uint64(c.cfg.LineBytes)
}

// SectorIndex reports which sector of its line the address falls in.
func (c *Cache) SectorIndex(addr uint64) int {
	return int(addr % uint64(c.cfg.LineBytes) / uint64(c.cfg.SectorBytes))
}

// SectorMask returns the single-sector mask for addr.
func (c *Cache) SectorMask(addr uint64) uint64 { return 1 << c.SectorIndex(addr) }

// locate maps an address to the first way of its set and to the tag word
// a valid way holding its line carries: the full line number + 1 (the
// simulation spends no storage on tags, and the full number keeps the
// mapping trivially invertible under set hashing).
func (c *Cache) locate(addr uint64) (base int, key uint64) {
	lineNum := addr / uint64(c.cfg.LineBytes)
	idx := lineNum
	if c.cfg.HashSets {
		idx ^= idx >> c.setBits
		idx ^= idx >> (2 * c.setBits)
		idx ^= idx >> (4 * c.setBits)
	}
	return int(idx&c.setsMask) * c.ways, lineNum + 1
}

// findWay returns the element index of the way in the set at base whose
// tag word is key, or -1.
func (c *Cache) findWay(base int, key uint64) int {
	for w, t := range c.tags[base : base+c.ways] {
		if t == key {
			return base + w
		}
	}
	return -1
}

// lookup returns the element index of addr's line, or -1.
func (c *Cache) lookup(addr uint64) int {
	base, key := c.locate(addr)
	return c.findWay(base, key)
}

// Probe reports the lookup outcome without touching replacement state or
// statistics.
func (c *Cache) Probe(addr uint64) Outcome {
	i := c.lookup(addr)
	if i < 0 {
		return Miss
	}
	if c.vmask[i]&c.SectorMask(addr) == 0 {
		return SectorMiss
	}
	return Hit
}

// Access performs a lookup for a read or write, updating replacement state
// and statistics. A write hit marks the sector dirty. Writes to absent
// sectors are misses (the cache is write-allocate: the controller fills and
// then calls MarkDirty).
func (c *Cache) Access(addr uint64, write bool) Outcome {
	base, key := c.locate(addr)
	c.clock++
	c.stAccesses.Inc()
	i := c.findWay(base, key)
	if i < 0 {
		c.stMisses.Inc()
		return Miss
	}
	bit := c.SectorMask(addr)
	if c.vmask[i]&bit == 0 {
		c.stSectorMisses.Inc()
		return SectorMiss
	}
	c.stamp[i] = c.clock
	c.rrpv[i] = 0
	if write {
		c.dmask[i] |= bit
	}
	c.stHits.Inc()
	return Hit
}

// AccessLine reads the sectors of lineAddr's line given in mask and
// returns the mask of those that hit. It has exactly the effect of calling
// Access(sector, false) on each of them in ascending sector order — the
// same counter updates, one clock tick per sector, the line's stamp set by
// its last hit sector — but looks the tag up once: a read changes no tag,
// so every sector's lookup would find the same way.
func (c *Cache) AccessLine(lineAddr uint64, mask uint64) (hitMask uint64) {
	i := c.lookup(lineAddr)
	for m := mask & c.lineMask; m != 0; m &= m - 1 {
		c.clock++
		c.stAccesses.Inc()
		if i < 0 {
			c.stMisses.Inc()
			continue
		}
		bit := m & -m
		if c.vmask[i]&bit == 0 {
			c.stSectorMisses.Inc()
			continue
		}
		c.stamp[i] = c.clock
		c.rrpv[i] = 0
		c.stHits.Inc()
		hitMask |= bit
	}
	return hitMask
}

// FillInto inserts the given sectors of a line, allocating (and possibly
// evicting) as needed; sectors in dirtyMask are marked dirty. Filling
// sectors that are already present leaves their dirty bits intact (a
// fill never cleans newer data). It reports whether a valid line was
// displaced and writes that victim into ev, which callers can keep on
// the stack and reuse; ev is left unchanged when the fill evicts nothing.
func (c *Cache) FillInto(lineAddr uint64, sectorMask, dirtyMask uint64, ev *Eviction) bool {
	if lineAddr%uint64(c.cfg.LineBytes) != 0 {
		panic(fmt.Sprintf("cache %q: misaligned fill %#x", c.cfg.Name, lineAddr))
	}
	base, key := c.locate(lineAddr)
	c.clock++
	// One pass over the set's tags finds the line or, failing that, the
	// first invalid way (a valid tag word is never 0).
	i, free := -1, -1
	for w, t := range c.tags[base : base+c.ways] {
		if t == key {
			i = base + w
			break
		}
		if t == 0 && free < 0 {
			free = base + w
		}
	}
	if i >= 0 {
		newSectors := sectorMask &^ c.vmask[i]
		c.vmask[i] |= sectorMask
		c.dmask[i] |= dirtyMask & sectorMask
		c.stamp[i] = c.clock
		if newSectors != 0 {
			c.stSectorFills.Inc()
		}
		return false
	}
	evicted := free < 0
	i = free
	if evicted {
		i = c.chooseVictim(base)
		c.stEvictions.Inc()
		*ev = Eviction{
			LineAddr:  c.lineAddrOf(c.tags[i]),
			ValidMask: c.vmask[i],
			DirtyMask: c.dmask[i],
			MarkMask:  c.marksAt(i),
		}
		if c.dmask[i] != 0 {
			c.stDirtyEvictions.Inc()
		}
	}
	c.tags[i] = key
	c.vmask[i] = sectorMask
	c.dmask[i] = dirtyMask & sectorMask
	if c.marks != nil {
		c.marks[i] = 0
	}
	c.stamp[i] = c.clock
	c.rrpv[i] = maxRRPV - 1 // SRRIP long re-reference insertion
	c.stLineFills.Inc()
	return evicted
}

// lineAddrOf inverts a tag word to its line address.
func (c *Cache) lineAddrOf(key uint64) uint64 {
	return (key - 1) * uint64(c.cfg.LineBytes)
}

// chooseVictim returns the element index of the policy's victim in the
// full set at base.
func (c *Cache) chooseVictim(base int) int {
	switch c.cfg.Repl {
	case SRRIP:
		rrpv := c.rrpv[base : base+c.ways]
		for {
			for w, r := range rrpv {
				if r >= maxRRPV {
					return base + w
				}
			}
			// No distant way: age them all (each is below maxRRPV).
			for w := range rrpv {
				rrpv[w]++
			}
		}
	default: // LRU
		stamps := c.stamp[base : base+c.ways]
		victim := 0
		for w, st := range stamps {
			if st < stamps[victim] {
				victim = w
			}
		}
		return base + victim
	}
}

// MarkDirty sets the dirty bit for addr's sector; the sector must be
// present.
func (c *Cache) MarkDirty(addr uint64) {
	i := c.lookup(addr)
	if i < 0 || c.vmask[i]&c.SectorMask(addr) == 0 {
		panic(fmt.Sprintf("cache %q: MarkDirty on absent sector %#x", c.cfg.Name, addr))
	}
	c.dmask[i] |= c.SectorMask(addr)
}

// Mark sets the mark of addr's sector if the sector is present and
// reports whether it was. A line's marks are kept until its way is
// reallocated, and reported in the Eviction that displaces it, so an
// owner can keep per-sector side state for only the sectors it marked.
// Marks touch no replacement state or statistics. Their storage is
// allocated on the first mark, so caches that never mark (the L1s, the
// RC) do not pay for it.
func (c *Cache) Mark(addr uint64) bool {
	i := c.lookup(addr)
	if i < 0 || c.vmask[i]&c.SectorMask(addr) == 0 {
		return false
	}
	if c.marks == nil {
		c.marks = make([]uint64, len(c.tags))
	}
	c.marks[i] |= c.SectorMask(addr)
	return true
}

// marksAt reports the marks of way i.
func (c *Cache) marksAt(i int) uint64 {
	if c.marks == nil {
		return 0
	}
	return c.marks[i]
}

// CleanSector clears the dirty bit for addr's sector if present (used when
// a writeback completes or a coalescing buffer absorbs the sector).
func (c *Cache) CleanSector(addr uint64) {
	if i := c.lookup(addr); i >= 0 {
		c.dmask[i] &^= c.SectorMask(addr)
	}
}

// ValidMask reports the valid-sector mask of a line (0 if absent).
func (c *Cache) ValidMask(lineAddr uint64) uint64 {
	if i := c.lookup(lineAddr); i >= 0 {
		return c.vmask[i]
	}
	return 0
}

// DirtyMask reports the dirty-sector mask of a line (0 if absent).
func (c *Cache) DirtyMask(lineAddr uint64) uint64 {
	if i := c.lookup(lineAddr); i >= 0 {
		return c.dmask[i]
	}
	return 0
}

// CheckConsistency verifies the tag store's structural invariants: every
// dirty bit and every mark covers a valid sector, valid lines hold at
// least one valid sector, invalid ways carry no sector state, and no mask
// uses bits beyond the line's sector count. It returns the first violation found, or nil.
// The invariant-audit layer calls it at end of simulation.
func (c *Cache) CheckConsistency() error {
	for i, key := range c.tags {
		vm, dm, mm := c.vmask[i], c.dmask[i], c.marksAt(i)
		if key == 0 {
			if vm != 0 || dm != 0 || mm != 0 {
				return fmt.Errorf("cache %q: invalid way set %d way %d carries masks v=%#x d=%#x m=%#x",
					c.cfg.Name, i/c.ways, i%c.ways, vm, dm, mm)
			}
			continue
		}
		addr := c.lineAddrOf(key)
		switch {
		case vm == 0:
			return fmt.Errorf("cache %q: valid line %#x has no valid sectors", c.cfg.Name, addr)
		case vm&^c.lineMask != 0 || dm&^c.lineMask != 0:
			return fmt.Errorf("cache %q: line %#x mask exceeds %d sectors (v=%#x d=%#x)",
				c.cfg.Name, addr, c.sectorsPerLine, vm, dm)
		case dm&^vm != 0:
			return fmt.Errorf("cache %q: line %#x dirty sectors not valid (v=%#x d=%#x)",
				c.cfg.Name, addr, vm, dm)
		case mm&^vm != 0:
			return fmt.Errorf("cache %q: line %#x marked sectors not valid (v=%#x m=%#x)",
				c.cfg.Name, addr, vm, mm)
		}
	}
	return nil
}

// Walk visits every valid line (for drain/flush at end of simulation), set
// by set and way by way.
func (c *Cache) Walk(visit func(lineAddr uint64, vmask, dmask uint64)) {
	for i, key := range c.tags {
		if key != 0 {
			visit(c.lineAddrOf(key), c.vmask[i], c.dmask[i])
		}
	}
}
