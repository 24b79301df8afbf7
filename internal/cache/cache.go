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
	"math/bits"

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
// line's tag and sector state up front, and an LRU set's recency order
// fits in one word as 4-bit way ids. The largest shipped cache is a
// 4 MiB 16-way L2.
const (
	MaxSizeBytes = 256 << 20
	MaxWays      = 16
)

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.Repl != LRU && c.Repl != SRRIP:
		return fmt.Errorf("cache %q: unknown replacement policy %v", c.Name, c.Repl)
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 || c.SectorBytes <= 0:
		return fmt.Errorf("cache %q: sizes must be positive", c.Name)
	case c.LineBytes&(c.LineBytes-1) != 0 || c.SectorBytes&(c.SectorBytes-1) != 0:
		return fmt.Errorf("cache %q: line %dB and sector %dB must be powers of two", c.Name, c.LineBytes, c.SectorBytes)
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

// nibbles has a 1 in every 4-bit field of a word.
const nibbles = 0x1111111111111111

// initialOrder is the recency word of an empty LRU set: way k in nibble
// k. Any permutation would do, since a set's free ways are all filled,
// and so touched, before its first eviction reads the order.
const initialOrder = 0xfedcba9876543210

// Cache is a sectored set-associative tag store. It is not safe for
// concurrent use; the simulator is single-threaded by design.
//
// The store is kept as parallel arrays with one element per way, laid out
// set by set (way w of set s is element s*ways+w), so a tag check reads
// ways×8 contiguous bytes and touches no sector or replacement state.
// Each policy keeps only its own replacement state: LRU one recency word
// per set, SRRIP one prediction value per way.
type Cache struct {
	cfg   Config
	ways  int
	srrip bool
	// tags holds each way's line number + 1; 0 marks an invalid way.
	// Ways are allocated in order and never invalidated, so a set's
	// invalid ways always follow its valid ones.
	tags  []uint64
	vmask []uint64 // per-sector valid bits
	dmask []uint64 // per-sector dirty bits
	marks []uint64 // per-sector marks (see Mark); nil until the first mark
	// order holds each LRU set's way ids as 4-bit nibbles, most recently
	// used first; nibble ways-1 is the victim. nil under SRRIP.
	order []uint64
	rrpv  []uint8 // SRRIP re-reference prediction value; nil under LRU

	setsMask       uint64
	setBits        uint
	lineShift      uint   // log2 LineBytes
	sectorShift    uint   // log2 SectorBytes
	offMask        uint64 // the byte-offset bits of a line
	victimShift    uint   // bit offset of an LRU set's last nibble
	sectorsPerLine int
	lineMask       uint64 // the sector bits a line has
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
		srrip:          cfg.Repl == SRRIP,
		tags:           make([]uint64, n),
		vmask:          make([]uint64, n),
		dmask:          make([]uint64, n),
		setsMask:       uint64(numSets - 1),
		setBits:        setBits,
		lineShift:      uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		sectorShift:    uint(bits.TrailingZeros(uint(cfg.SectorBytes))),
		offMask:        uint64(cfg.LineBytes - 1),
		victimShift:    4 * uint(cfg.Ways-1),
		sectorsPerLine: spl,
		lineMask:       uint64(1)<<spl - 1,
		Stats:          stats.NewCounters(),
	}
	if c.srrip {
		c.rrpv = make([]uint8, n)
		for i := range c.rrpv {
			c.rrpv[i] = maxRRPV
		}
	} else {
		c.order = make([]uint64, numSets)
		for s := range c.order {
			c.order[s] = initialOrder
		}
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
	return addr &^ c.offMask
}

// SectorIndex reports which sector of its line the address falls in.
func (c *Cache) SectorIndex(addr uint64) int {
	return int(addr & c.offMask >> c.sectorShift)
}

// SectorMask returns the single-sector mask for addr.
func (c *Cache) SectorMask(addr uint64) uint64 { return 1 << c.SectorIndex(addr) }

// locate maps an address to its set and to the tag word a valid way
// holding its line carries: the full line number + 1 (the simulation
// spends no storage on tags, and the full number keeps the mapping
// trivially invertible under set hashing).
func (c *Cache) locate(addr uint64) (set int, key uint64) {
	lineNum := addr >> c.lineShift
	idx := lineNum
	if c.cfg.HashSets {
		idx ^= idx >> c.setBits
		idx ^= idx >> (2 * c.setBits)
		idx ^= idx >> (4 * c.setBits)
	}
	return int(idx & c.setsMask), lineNum + 1
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
	set, key := c.locate(addr)
	return c.findWay(set*c.ways, key)
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
	set, key := c.locate(addr)
	base := set * c.ways
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
	// A hit makes the line LRU's most recently used, or SRRIP's near
	// re-reference. (Written out here and in AccessLine: a helper with
	// both branches is past Go's inlining budget, and the call costs
	// more than the update.)
	if c.srrip {
		c.rrpv[i] = 0
	} else {
		c.promote(set, i-base)
	}
	if write {
		c.dmask[i] |= bit
	}
	c.stHits.Inc()
	return Hit
}

// AccessLine reads the sectors of lineAddr's line given in mask and
// returns the mask of those that hit. It has exactly the effect of calling
// Access(sector, false) on each of them in ascending sector order — the
// same counter updates, and the line made most recently used if any
// sector hit — but looks the tag up once: a read changes no tag, so every
// sector's lookup would find the same way.
func (c *Cache) AccessLine(lineAddr uint64, mask uint64) (hitMask uint64) {
	set, key := c.locate(lineAddr)
	base := set * c.ways
	i := c.findWay(base, key)
	for m := mask & c.lineMask; m != 0; m &= m - 1 {
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
		c.stHits.Inc()
		hitMask |= bit
	}
	if hitMask == 0 {
		return 0
	}
	if c.srrip {
		c.rrpv[i] = 0
	} else {
		c.promote(set, i-base)
	}
	return hitMask
}

// promote makes way w the most recently used of its LRU set.
func (c *Cache) promote(set, w int) {
	if o := c.order[set]; o&0xf != uint64(w) {
		c.order[set] = toFront(o, nibbleOf(o, w), w)
	}
}

// nibbleOf returns the bit offset of way w's nibble in the recency word
// o: the lowest zero nibble of o ^ w*nibbles. A nibble's high bit in
// (x - nibbles) &^ x is set exactly where x's nibble is zero, for every
// nibble up to the first zero one (no borrow reaches it), so the lowest
// such bit is exact. Ways beyond the cache's own sit above its nibbles
// and are never found first.
func nibbleOf(o uint64, w int) uint {
	x := o ^ uint64(w)*nibbles
	return uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
}

// toFront moves way w, whose nibble is at bit offset p of o, to nibble 0,
// shifting the more recently used ways up one place.
func toFront(o uint64, p uint, w int) uint64 {
	newer := o & (uint64(1)<<p - 1)
	return o&^(uint64(1)<<(p+4)-1) | newer<<4 | uint64(w)
}

// FillInto inserts the given sectors of a line, allocating (and possibly
// evicting) as needed; sectors in dirtyMask are marked dirty. Filling
// sectors that are already present leaves their dirty bits intact (a
// fill never cleans newer data). It reports whether a valid line was
// displaced and writes that victim into ev, which callers can keep on
// the stack and reuse; ev is left unchanged when the fill evicts nothing.
func (c *Cache) FillInto(lineAddr uint64, sectorMask, dirtyMask uint64, ev *Eviction) bool {
	if lineAddr&c.offMask != 0 {
		panic(fmt.Sprintf("cache %q: misaligned fill %#x", c.cfg.Name, lineAddr))
	}
	set, key := c.locate(lineAddr)
	base := set * c.ways
	// One pass over the set's tags finds the line or, failing that, the
	// first invalid way (a valid tag word is never 0), past which every
	// way is invalid.
	i, free := -1, -1
	for w, t := range c.tags[base : base+c.ways] {
		if t == key {
			i = base + w
			break
		}
		if t == 0 {
			free = base + w
			break
		}
	}
	if i >= 0 {
		newSectors := sectorMask &^ c.vmask[i]
		c.vmask[i] |= sectorMask
		c.dmask[i] |= dirtyMask & sectorMask
		if !c.srrip {
			c.promote(set, i-base)
		}
		if newSectors != 0 {
			c.stSectorFills.Inc()
		}
		return false
	}
	evicted := free < 0
	i = free
	if evicted {
		i = c.chooseVictim(set)
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
	if c.srrip {
		c.rrpv[i] = maxRRPV - 1 // SRRIP long re-reference insertion
	} else if evicted {
		// The victim sits in the last nibble.
		c.order[set] = toFront(c.order[set], c.victimShift, i-base)
	} else {
		c.promote(set, i-base)
	}
	c.stLineFills.Inc()
	return evicted
}

// lineAddrOf inverts a tag word to its line address.
func (c *Cache) lineAddrOf(key uint64) uint64 {
	return (key - 1) << c.lineShift
}

// chooseVictim returns the element index of the policy's victim in the
// full set.
func (c *Cache) chooseVictim(set int) int {
	base := set * c.ways
	if !c.srrip {
		return base + int(c.order[set]>>c.victimShift&0xf)
	}
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
// least one valid sector, invalid ways carry no sector state and follow
// every valid way of their set, no mask uses bits beyond the line's sector
// count, and each LRU recency word orders exactly its set's ways. It
// returns the first violation found, or nil. The invariant-audit layer
// calls it at end of simulation.
func (c *Cache) CheckConsistency() error {
	for s, o := range c.order {
		var seen uint64
		for p := uint(0); p <= c.victimShift; p += 4 {
			seen |= 1 << (o >> p & 0xf)
		}
		if seen != 1<<c.ways-1 || o>>c.victimShift>>4 != initialOrder>>c.victimShift>>4 {
			return fmt.Errorf("cache %q: set %d recency word %#x is not an order of its %d ways",
				c.cfg.Name, s, o, c.ways)
		}
	}
	for i, key := range c.tags {
		vm, dm, mm := c.vmask[i], c.dmask[i], c.marksAt(i)
		if key != 0 && i%c.ways != 0 && c.tags[i-1] == 0 {
			return fmt.Errorf("cache %q: set %d way %d is valid after an invalid way",
				c.cfg.Name, i/c.ways, i%c.ways)
		}
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
