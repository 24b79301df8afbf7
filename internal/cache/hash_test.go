package cache

import "testing"

func hashedConfig() Config {
	cfg := testConfig()
	cfg.HashSets = true
	return cfg
}

func TestHashedSetsStillRoundTrip(t *testing.T) {
	c := New(hashedConfig())
	addrs := []uint64{0, 0x1000, 0x2340, 0xABCD00, 1 << 30}
	for _, a := range addrs {
		la := c.LineAddr(a)
		fill(c, la, 0b1111, 0)
		if c.Probe(a) != Hit {
			t.Fatalf("addr %#x not found after fill", a)
		}
	}
	// Eviction addresses must be reconstructible (Walk sees true line
	// addresses).
	seen := map[uint64]bool{}
	c.Walk(func(lineAddr uint64, _, _ uint64) { seen[lineAddr] = true })
	for _, a := range addrs {
		if !seen[c.LineAddr(a)] {
			t.Fatalf("walk missed %#x", c.LineAddr(a))
		}
	}
}

func TestHashedSetsSpreadPowerOfTwoStrides(t *testing.T) {
	// With a 4 KiB stride and plain indexing, every line lands in a
	// handful of sets; hashing must spread them so the cache holds far
	// more of them.
	plain := New(testConfig())
	hashed := New(hashedConfig())
	// 100 lines fit comfortably in the 128-line cache; with a 4 KiB
	// stride the plain index maps them all to one set.
	const stride = 4096
	const lines = 100
	for i := 0; i < lines; i++ {
		fill(plain, uint64(i*stride), 0b1111, 0)
		fill(hashed, uint64(i*stride), 0b1111, 0)
	}
	countResident := func(c *Cache) int {
		n := 0
		for i := 0; i < lines; i++ {
			if c.Probe(uint64(i*stride)) == Hit {
				n++
			}
		}
		return n
	}
	p, h := countResident(plain), countResident(hashed)
	if h <= p {
		t.Fatalf("hashing did not help: plain %d resident, hashed %d", p, h)
	}
	if h < lines*3/4 {
		t.Fatalf("hashed cache retains only %d/%d strided lines", h, lines)
	}
}

func TestHashedEvictionWritebackAddressCorrect(t *testing.T) {
	cfg := hashedConfig()
	cfg.SizeBytes = cfg.LineBytes * cfg.Ways // a single set
	c := New(cfg)
	// Fill ways+1 lines; the eviction's LineAddr must be one of the
	// inserted addresses (tags must invert correctly under hashing).
	inserted := map[uint64]bool{}
	var ev Eviction
	evicted := false
	for i := 0; !evicted && i < 1000; i++ {
		a := uint64(i) * uint64(cfg.LineBytes)
		inserted[a] = true
		evicted = c.FillInto(a, 1, 1, &ev)
	}
	if !evicted {
		t.Fatal("no eviction from a single-set cache")
	}
	if !inserted[ev.LineAddr] {
		t.Fatalf("evicted address %#x was never inserted", ev.LineAddr)
	}
}
