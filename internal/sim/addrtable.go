package sim

import "math/bits"

// AddrTable maps uint64 keys (line, sector or block addresses) to int32
// values, typically slots of a Pool. It is an open-addressed, linearly
// probed table with power-of-two capacity and a multiplicative (Fibonacci)
// hash, which spreads line-aligned and strided addresses over the whole
// table. It doubles when half full, and Delete shifts later entries of the
// probe run back into the hole, so there are no tombstones and lookups
// never slow down under steady insert/delete churn. Once grown, inserts
// and deletes allocate nothing. The zero value is an empty table.
type AddrTable struct {
	slots []addrSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

type addrSlot struct {
	key  uint64
	val  int32
	used bool
}

const (
	// addrTableMin is the capacity of a table's first allocation.
	addrTableMin = 16
	// addrHashMul is 2^64 divided by the golden ratio, rounded to odd.
	addrHashMul = 0x9E3779B97F4A7C15
)

// Len reports the number of keys in the table.
func (t *AddrTable) Len() int { return t.n }

// home is the key's preferred slot.
func (t *AddrTable) home(key uint64) int {
	return int((key * addrHashMul) >> t.shift)
}

// Get returns the key's value and whether the key is present.
func (t *AddrTable) Get(key uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
	}
}

// Has reports whether the key is present.
func (t *AddrTable) Has(key uint64) bool {
	_, ok := t.Get(key)
	return ok
}

// Put sets the key's value, inserting the key if it is absent.
func (t *AddrTable) Put(key uint64, val int32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			*s = addrSlot{key: key, val: val, used: true}
			t.n++
			return
		}
		if s.key == key {
			s.val = val
			return
		}
	}
}

// Delete removes the key, returning its value and whether it was present.
// Entries after the hole in the same probe run move back so every key
// stays reachable from its home slot without crossing an empty slot.
func (t *AddrTable) Delete(key uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for {
		s := &t.slots[i]
		if !s.used {
			return 0, false
		}
		if s.key == key {
			break
		}
		i = (i + 1) & mask
	}
	val := t.slots[i].val
	hole := i
	for j := (hole + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole only if its home does not lie
		// cyclically in (hole, j]: otherwise moving it before its home
		// would hide it from lookups.
		if (j-t.home(t.slots[j].key))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = addrSlot{}
	t.n--
	return val, true
}

// Reserve grows the table so that inserting up to n keys does not grow
// it again.
func (t *AddrTable) Reserve(n int) {
	for 2*n > len(t.slots) {
		t.grow()
	}
}

// grow doubles the capacity (or makes the first allocation) and reinserts
// every key.
func (t *AddrTable) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < addrTableMin {
		size = addrTableMin
	}
	t.slots = make([]addrSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if !s.used {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
