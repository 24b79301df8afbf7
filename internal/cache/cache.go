// Package cache implements the sectored set-associative cache used for the
// GPU L1s, the shared L2, and CacheCraft's dedicated redundancy cache, plus
// the MSHR (miss status holding register) file that merges outstanding
// misses.
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

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 || c.SectorBytes <= 0:
		return fmt.Errorf("cache %q: sizes must be positive", c.Name)
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

type line struct {
	tag    uint64
	valid  bool
	vmask  uint64 // per-sector valid bits
	dmask  uint64 // per-sector dirty bits
	stamp  uint64 // LRU timestamp
	rrpv   uint8  // SRRIP re-reference prediction value
	pinned bool
}

// Cache is a sectored set-associative tag store. It is not safe for
// concurrent use; the simulator is single-threaded by design.
type Cache struct {
	cfg            Config
	sets           [][]line
	setsMask       uint64
	setBits        uint
	sectorsPerLine int
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
}

// New builds an empty cache. It panics on an invalid configuration, which
// is static setup, not runtime input.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	sets := make([][]line, numSets)
	backing := make([]line, numSets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
		for w := range sets[i] {
			sets[i][w].rrpv = maxRRPV
		}
	}
	setBits := uint(0)
	for 1<<setBits < numSets {
		setBits++
	}
	if setBits == 0 {
		setBits = 1 // avoid zero shifts in the hash fold
	}
	c := &Cache{
		cfg:            cfg,
		sets:           sets,
		setsMask:       uint64(numSets - 1),
		setBits:        setBits,
		sectorsPerLine: cfg.LineBytes / cfg.SectorBytes,
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

// Config reports the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

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

// setAndTag maps an address to its set index and tag. The tag is the full
// line number (simulation spends no storage on tags, and it keeps the
// mapping trivially invertible under set hashing).
func (c *Cache) setAndTag(addr uint64) (set uint64, tag uint64) {
	lineNum := addr / uint64(c.cfg.LineBytes)
	idx := lineNum
	if c.cfg.HashSets {
		idx ^= idx >> c.setBits
		idx ^= idx >> (2 * c.setBits)
		idx ^= idx >> (4 * c.setBits)
	}
	return idx & c.setsMask, lineNum
}

func (c *Cache) findWay(set uint64, tag uint64) int {
	for w := range c.sets[set] {
		if c.sets[set][w].valid && c.sets[set][w].tag == tag {
			return w
		}
	}
	return -1
}

// Probe reports the lookup outcome without touching replacement state or
// statistics.
func (c *Cache) Probe(addr uint64) Outcome {
	set, tag := c.setAndTag(addr)
	w := c.findWay(set, tag)
	if w < 0 {
		return Miss
	}
	if c.sets[set][w].vmask&c.SectorMask(addr) == 0 {
		return SectorMiss
	}
	return Hit
}

// Access performs a lookup for a read or write, updating replacement state
// and statistics. A write hit marks the sector dirty. Writes to absent
// sectors are misses (the cache is write-allocate: the controller fills and
// then calls MarkDirty).
func (c *Cache) Access(addr uint64, write bool) Outcome {
	set, tag := c.setAndTag(addr)
	c.clock++
	c.stAccesses.Inc()
	w := c.findWay(set, tag)
	if w < 0 {
		c.stMisses.Inc()
		return Miss
	}
	ln := &c.sets[set][w]
	if ln.vmask&c.SectorMask(addr) == 0 {
		c.stSectorMisses.Inc()
		return SectorMiss
	}
	ln.stamp = c.clock
	ln.rrpv = 0
	if write {
		ln.dmask |= c.SectorMask(addr)
	}
	c.stHits.Inc()
	return Hit
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
	set, tag := c.setAndTag(lineAddr)
	c.clock++
	w := c.findWay(set, tag)
	if w >= 0 {
		ln := &c.sets[set][w]
		newSectors := sectorMask &^ ln.vmask
		ln.vmask |= sectorMask
		ln.dmask |= dirtyMask & sectorMask
		ln.stamp = c.clock
		if newSectors != 0 {
			c.stSectorFills.Inc()
		}
		return false
	}
	victim := c.chooseVictim(set)
	ln := &c.sets[set][victim]
	evicted := false
	if ln.valid {
		c.stEvictions.Inc()
		evicted = true
		*ev = Eviction{
			LineAddr:  c.lineAddrOf(set, ln.tag),
			ValidMask: ln.vmask,
			DirtyMask: ln.dmask,
		}
		if ln.dmask != 0 {
			c.stDirtyEvictions.Inc()
		}
	}
	*ln = line{
		tag:   tag,
		valid: true,
		vmask: sectorMask,
		dmask: dirtyMask & sectorMask,
		stamp: c.clock,
		rrpv:  maxRRPV - 1, // SRRIP long re-reference insertion
	}
	c.stLineFills.Inc()
	return evicted
}

func (c *Cache) lineAddrOf(_ uint64, tag uint64) uint64 {
	return tag * uint64(c.cfg.LineBytes)
}

func (c *Cache) chooseVictim(set uint64) int {
	ways := c.sets[set]
	// Prefer an invalid way.
	for w := range ways {
		if !ways[w].valid {
			return w
		}
	}
	switch c.cfg.Repl {
	case SRRIP:
		for {
			for w := range ways {
				if !ways[w].pinned && ways[w].rrpv >= maxRRPV {
					return w
				}
			}
			aged := false
			for w := range ways {
				if !ways[w].pinned && ways[w].rrpv < maxRRPV {
					ways[w].rrpv++
					aged = true
				}
			}
			if !aged {
				// Everything pinned: fall back to way 0 to guarantee progress.
				return 0
			}
		}
	default: // LRU
		victim := -1
		var oldest uint64
		for w := range ways {
			if ways[w].pinned {
				continue
			}
			if victim < 0 || ways[w].stamp < oldest {
				victim = w
				oldest = ways[w].stamp
			}
		}
		if victim < 0 {
			victim = 0
		}
		return victim
	}
}

// MarkDirty sets the dirty bit for addr's sector; the sector must be
// present.
func (c *Cache) MarkDirty(addr uint64) {
	set, tag := c.setAndTag(addr)
	w := c.findWay(set, tag)
	if w < 0 || c.sets[set][w].vmask&c.SectorMask(addr) == 0 {
		panic(fmt.Sprintf("cache %q: MarkDirty on absent sector %#x", c.cfg.Name, addr))
	}
	c.sets[set][w].dmask |= c.SectorMask(addr)
}

// CleanSector clears the dirty bit for addr's sector if present (used when
// a writeback completes or a coalescing buffer absorbs the sector).
func (c *Cache) CleanSector(addr uint64) {
	set, tag := c.setAndTag(addr)
	if w := c.findWay(set, tag); w >= 0 {
		c.sets[set][w].dmask &^= c.SectorMask(addr)
	}
}

// InvalidateLine drops a line, returning its dirty mask (0 if absent or
// clean).
func (c *Cache) InvalidateLine(lineAddr uint64) uint64 {
	set, tag := c.setAndTag(lineAddr)
	w := c.findWay(set, tag)
	if w < 0 {
		return 0
	}
	d := c.sets[set][w].dmask
	c.sets[set][w] = line{rrpv: maxRRPV}
	return d
}

// ValidMask reports the valid-sector mask of a line (0 if absent).
func (c *Cache) ValidMask(lineAddr uint64) uint64 {
	set, tag := c.setAndTag(lineAddr)
	if w := c.findWay(set, tag); w >= 0 {
		return c.sets[set][w].vmask
	}
	return 0
}

// DirtyMask reports the dirty-sector mask of a line (0 if absent).
func (c *Cache) DirtyMask(lineAddr uint64) uint64 {
	set, tag := c.setAndTag(lineAddr)
	if w := c.findWay(set, tag); w >= 0 {
		return c.sets[set][w].dmask
	}
	return 0
}

// CheckConsistency verifies the tag store's structural invariants: every
// dirty bit covers a valid sector, valid lines hold at least one valid
// sector, invalid ways carry no sector state, and no mask uses bits beyond
// the line's sector count. It returns the first violation found, or nil.
// The invariant-audit layer calls it at end of simulation.
func (c *Cache) CheckConsistency() error {
	limit := uint64(1)<<c.sectorsPerLine - 1
	for s := range c.sets {
		for w := range c.sets[s] {
			ln := &c.sets[s][w]
			if !ln.valid {
				if ln.vmask != 0 || ln.dmask != 0 {
					return fmt.Errorf("cache %q: invalid way set %d way %d carries masks v=%#x d=%#x",
						c.cfg.Name, s, w, ln.vmask, ln.dmask)
				}
				continue
			}
			addr := c.lineAddrOf(uint64(s), ln.tag)
			switch {
			case ln.vmask == 0:
				return fmt.Errorf("cache %q: valid line %#x has no valid sectors", c.cfg.Name, addr)
			case ln.vmask&^limit != 0 || ln.dmask&^limit != 0:
				return fmt.Errorf("cache %q: line %#x mask exceeds %d sectors (v=%#x d=%#x)",
					c.cfg.Name, addr, c.sectorsPerLine, ln.vmask, ln.dmask)
			case ln.dmask&^ln.vmask != 0:
				return fmt.Errorf("cache %q: line %#x dirty sectors not valid (v=%#x d=%#x)",
					c.cfg.Name, addr, ln.vmask, ln.dmask)
			}
		}
	}
	return nil
}

// Walk visits every valid line (for drain/flush at end of simulation).
func (c *Cache) Walk(visit func(lineAddr uint64, vmask, dmask uint64)) {
	for s := range c.sets {
		for w := range c.sets[s] {
			ln := &c.sets[s][w]
			if ln.valid {
				visit(c.lineAddrOf(uint64(s), ln.tag), ln.vmask, ln.dmask)
			}
		}
	}
}
