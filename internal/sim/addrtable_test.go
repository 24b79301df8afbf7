package sim

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// fibInverse is the multiplicative inverse of addrHashMul mod 2^64, so
// collidingKey can aim keys at a chosen home slot.
const fibInverse = 0xF1DE83E19937733D

// collidingKey returns a key whose hash is h: keys from nearby h share one
// home slot at every capacity, and h near 2^64 homes them in the last
// slot, so their probe run wraps around to slot 0.
func collidingKey(h uint64) uint64 { return h * fibInverse }

// addrTableOp is one step of a table/map comparison stream.
type addrTableOp struct {
	kind int // 0 put, 1 get, 2 delete
	key  uint64
	val  int32
}

// checkAgainstMap applies ops to an AddrTable and a Go map, comparing
// every result and, at the end, the full contents.
func checkAgainstMap(t *testing.T, ops []addrTableOp) {
	t.Helper()
	var tab AddrTable
	ref := make(map[uint64]int32)
	for i, op := range ops {
		switch op.kind {
		case 0:
			tab.Put(op.key, op.val)
			ref[op.key] = op.val
		case 1:
			got, ok := tab.Get(op.key)
			want, wok := ref[op.key]
			if ok != wok || got != want {
				t.Fatalf("op %d: Get(%#x) = %d,%v, want %d,%v", i, op.key, got, ok, want, wok)
			}
		case 2:
			want, wok := ref[op.key]
			if got, ok := tab.Delete(op.key); ok != wok || got != want {
				t.Fatalf("op %d: Delete(%#x) = %d,%v, want %d,%v", i, op.key, got, ok, want, wok)
			}
			delete(ref, op.key)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, tab.Len(), len(ref))
		}
	}
	for k, v := range ref {
		if got, ok := tab.Get(k); !ok || got != v {
			t.Fatalf("final Get(%#x) = %d,%v, want %d,true", k, got, ok, v)
		}
	}
	used := 0
	for _, s := range tab.slots {
		if s.used {
			used++
			if _, ok := ref[s.key]; !ok {
				t.Fatalf("table holds deleted key %#x", s.key)
			}
		}
	}
	if used != len(ref) {
		t.Fatalf("table has %d used slots, want %d", used, len(ref))
	}
}

// TestAddrTableMatchesMap drives the table and a Go map with the same
// random insert/lookup/delete streams over the key shapes the simulator
// uses — line-aligned addresses, clustered sector addresses, tagged
// redundancy blocks — plus keys built to share one home slot, whose
// probe runs wrap from the last slot to the first and exercise
// backward-shift deletion across the wrap. Streams grow the table through
// several doublings, then churn it at a steady size.
func TestAddrTableMatchesMap(t *testing.T) {
	shapes := map[string]func(rng *rand.Rand) uint64{
		"line-aligned": func(rng *rand.Rand) uint64 { return uint64(rng.Intn(4096)) * 128 },
		"clustered": func(rng *rand.Rand) uint64 {
			return uint64(rng.Intn(8))<<20 + uint64(rng.Intn(64))*32
		},
		"tagged": func(rng *rand.Rand) uint64 { return 1<<63 | uint64(rng.Intn(2048))*32 },
		"colliding-wrap": func(rng *rand.Rand) uint64 {
			return collidingKey(^uint64(0) - uint64(rng.Intn(200)))
		},
		"colliding-mixed": func(rng *rand.Rand) uint64 {
			if rng.Intn(2) == 0 {
				return collidingKey(uint64(rng.Intn(100)))
			}
			return collidingKey(1<<63 + uint64(rng.Intn(100)))
		},
	}
	for name, key := range shapes {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var ops []addrTableOp
				// Fill phase (mostly puts: growth), then churn (balanced).
				for phase, putBias := range []int{80, 40, 20} {
					for i := 0; i < 1500; i++ {
						op := addrTableOp{key: key(rng), val: int32(rng.Intn(1 << 20))}
						switch r := rng.Intn(100); {
						case r < putBias:
							op.kind = 0
						case r < putBias+(100-putBias)/2:
							op.kind = 1
						default:
							op.kind = 2
						}
						if phase == 2 && i%7 == 0 {
							op.val = -op.val // negative values are values too
						}
						ops = append(ops, op)
					}
				}
				checkAgainstMap(t, ops)
			}
		})
	}
}

// TestAddrTableWrapDelete pins backward-shift deletion across the wrap:
// keys homed in the last slot fill it and spill into the first slots, and
// deleting the one in the last slot must pull the wrapped ones back so
// every survivor stays reachable.
func TestAddrTableWrapDelete(t *testing.T) {
	if mul := uint64(addrHashMul); mul*fibInverse != 1 {
		t.Fatal("fibInverse is not the inverse of addrHashMul")
	}
	var tab AddrTable
	keys := []uint64{collidingKey(^uint64(0)), collidingKey(^uint64(0) - 1), collidingKey(^uint64(0) - 2)}
	for i, k := range keys {
		tab.Put(k, int32(i))
	}
	last := len(tab.slots) - 1
	if s := tab.slots[last]; !s.used || s.key != keys[0] {
		t.Fatalf("last slot holds %+v, want key %#x", s, keys[0])
	}
	if !tab.slots[0].used || !tab.slots[1].used {
		t.Fatal("colliding keys did not wrap into slots 0 and 1")
	}
	tab.Delete(keys[0])
	for i, k := range keys[1:] {
		if v, ok := tab.Get(k); !ok || v != int32(i+1) {
			t.Fatalf("Get(%#x) after wrap delete = %d,%v", k, v, ok)
		}
	}
	if tab.slots[1].used {
		t.Fatal("backward shift left the run's tail in place")
	}
}

// TestAddrTableZeroAllocs: once the table has grown to its working size,
// inserting and deleting keys allocates nothing.
func TestAddrTableZeroAllocs(t *testing.T) {
	var tab AddrTable
	const n = 200
	for i := 0; i < n; i++ {
		tab.Put(uint64(i)*128, int32(i))
	}
	for i := 0; i < n; i++ {
		tab.Delete(uint64(i) * 128)
	}
	base := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		base += 1 << 30
		for i := 0; i < n; i++ {
			tab.Put(base+uint64(i)*128, int32(i))
		}
		for i := 0; i < n; i++ {
			if _, ok := tab.Get(base + uint64(i)*128); !ok {
				panic("key lost")
			}
		}
		for i := 0; i < n; i++ {
			tab.Delete(base + uint64(i)*128)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state insert/delete allocated %.1f times per run, want 0", allocs)
	}
}

// FuzzAddrTable decodes the input as an op stream over a small key space
// mixing aligned, clustered and colliding keys, and checks the table
// against a Go map.
func FuzzAddrTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 1, 0})
	f.Add([]byte{0, 200, 0, 201, 0, 202, 2, 200, 1, 201, 1, 202})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0102030405060708))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []addrTableOp
		for i := 0; i+1 < len(data); i += 2 {
			b := data[i+1]
			var key uint64
			switch b >> 6 {
			case 0:
				key = uint64(b&63) * 128
			case 1:
				key = 1<<40 + uint64(b&63)*32
			case 2:
				key = collidingKey(^uint64(0) - uint64(b&63))
			default:
				key = collidingKey(uint64(b & 63))
			}
			ops = append(ops, addrTableOp{kind: int(data[i] % 3), key: key, val: int32(i)})
		}
		checkAgainstMap(t, ops)
	})
}
