package ecc

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func mustRS(t *testing.T, n, k int) *RS {
	t.Helper()
	rs, err := NewRS(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestRSRejectsBadParameters(t *testing.T) {
	for _, nk := range [][2]int{{256, 32}, {10, 10}, {10, 12}, {4, 0}, {65, 32}} {
		if _, err := NewRS(nk[0], nk[1]); err == nil {
			t.Fatalf("RS(%d,%d) must be rejected", nk[0], nk[1])
		}
	}
}

func TestRSCleanRoundTrip(t *testing.T) {
	rs := mustRS(t, 36, 32)
	f := func(data [32]byte) bool {
		parity := rs.Encode(data[:])
		d := data
		return rs.Decode(d[:], parity) == OK && d == data
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRSSyndromesZeroForCodeword(t *testing.T) {
	rs := mustRS(t, 36, 32)
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i * 7)
	}
	parity := rs.Encode(data)
	if rs.syndromes(make([]byte, rs.ParitySymbols()), data, parity) {
		t.Fatal("valid codeword has nonzero syndrome")
	}
}

func TestRSCorrectsSingleSymbolEverywhere(t *testing.T) {
	rs := mustRS(t, 36, 32)
	rng := rand.New(rand.NewSource(10))
	data := make([]byte, 32)
	rng.Read(data)
	parity := rs.Encode(data)

	for pos := 0; pos < 36; pos++ {
		for _, mag := range []byte{1, 0x80, 0xff} {
			d := append([]byte(nil), data...)
			p := append([]byte(nil), parity...)
			if pos < 32 {
				d[pos] ^= mag
			} else {
				p[pos-32] ^= mag
			}
			if res := rs.Decode(d, p); res != Corrected {
				t.Fatalf("pos %d mag %#x: %v", pos, mag, res)
			}
			if !bytes.Equal(d, data) || !bytes.Equal(p, parity) {
				t.Fatalf("pos %d mag %#x: not restored", pos, mag)
			}
		}
	}
}

func TestRSCorrectsDoubleSymbolErrors(t *testing.T) {
	rs := mustRS(t, 36, 32) // t = 2
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 32)
	rng.Read(data)
	parity := rs.Encode(data)

	for trial := 0; trial < 500; trial++ {
		p1 := rng.Intn(36)
		p2 := rng.Intn(36)
		for p2 == p1 {
			p2 = rng.Intn(36)
		}
		m1 := byte(rng.Intn(255) + 1)
		m2 := byte(rng.Intn(255) + 1)
		d := append([]byte(nil), data...)
		p := append([]byte(nil), parity...)
		corrupt := func(pos int, mag byte) {
			if pos < 32 {
				d[pos] ^= mag
			} else {
				p[pos-32] ^= mag
			}
		}
		corrupt(p1, m1)
		corrupt(p2, m2)
		if res := rs.Decode(d, p); res != Corrected {
			t.Fatalf("trial %d (%d,%d): %v", trial, p1, p2, res)
		}
		if !bytes.Equal(d, data) || !bytes.Equal(p, parity) {
			t.Fatalf("trial %d: not restored", trial)
		}
	}
}

func TestRSDetectsBeyondCapability(t *testing.T) {
	rs := mustRS(t, 36, 32) // t = 2; 3 random errors must never be "corrected" silently
	rng := rand.New(rand.NewSource(12))
	data := make([]byte, 32)
	rng.Read(data)
	parity := rs.Encode(data)

	detected, miscorrected := 0, 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		d := append([]byte(nil), data...)
		p := append([]byte(nil), parity...)
		positions := rng.Perm(36)[:3]
		for _, pos := range positions {
			mag := byte(rng.Intn(255) + 1)
			if pos < 32 {
				d[pos] ^= mag
			} else {
				p[pos-32] ^= mag
			}
		}
		res := rs.Decode(d, p)
		switch res {
		case Detected:
			detected++
		case Corrected:
			// A triple error may alias into a different valid codeword's
			// correction radius; the decode then "succeeds" but yields wrong
			// data. Count miscorrections; they must be rare but cannot be
			// zero for RS beyond distance.
			if !bytes.Equal(d, data) {
				miscorrected++
			}
		case OK:
			t.Fatalf("trial %d: triple error decoded as clean", trial)
		}
	}
	if detected < trials*9/10 {
		t.Fatalf("only %d/%d triple errors detected (miscorrected %d)", detected, trials, miscorrected)
	}
}

func TestRSErasuresOnly(t *testing.T) {
	rs := mustRS(t, 36, 32) // 4 parity: up to 4 erasures
	rng := rand.New(rand.NewSource(13))
	data := make([]byte, 32)
	rng.Read(data)
	parity := rs.Encode(data)

	for nerase := 1; nerase <= 4; nerase++ {
		d := append([]byte(nil), data...)
		p := append([]byte(nil), parity...)
		positions := rng.Perm(36)[:nerase]
		for _, pos := range positions {
			if pos < 32 {
				d[pos] ^= 0x5a
			} else {
				p[pos-32] ^= 0x5a
			}
		}
		res, fixed := rs.DecodeErasures(d, p, positions)
		if res != Corrected {
			t.Fatalf("%d erasures: %v", nerase, res)
		}
		if len(fixed) != nerase {
			t.Fatalf("%d erasures: corrected %d positions", nerase, len(fixed))
		}
		if !bytes.Equal(d, data) || !bytes.Equal(p, parity) {
			t.Fatalf("%d erasures: not restored", nerase)
		}
	}
}

func TestRSErasurePlusError(t *testing.T) {
	rs := mustRS(t, 36, 32) // 2e+s <= 4: one unknown error + two erasures
	rng := rand.New(rand.NewSource(14))
	data := make([]byte, 32)
	rng.Read(data)
	parity := rs.Encode(data)

	for trial := 0; trial < 200; trial++ {
		d := append([]byte(nil), data...)
		p := append([]byte(nil), parity...)
		perm := rng.Perm(36)
		erasures := perm[:2]
		errPos := perm[2]
		corrupt := func(pos int, mag byte) {
			if pos < 32 {
				d[pos] ^= mag
			} else {
				p[pos-32] ^= mag
			}
		}
		corrupt(erasures[0], byte(rng.Intn(255)+1))
		corrupt(erasures[1], byte(rng.Intn(255)+1))
		corrupt(errPos, byte(rng.Intn(255)+1))
		res, _ := rs.DecodeErasures(d, p, erasures)
		if res != Corrected {
			t.Fatalf("trial %d: %v", trial, res)
		}
		if !bytes.Equal(d, data) || !bytes.Equal(p, parity) {
			t.Fatalf("trial %d: not restored", trial)
		}
	}
}

func TestRSErasedButIntactPositions(t *testing.T) {
	// Erasure positions whose symbols are actually correct must decode
	// cleanly (magnitude zero) and not be reported as corrected.
	rs := mustRS(t, 36, 32)
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i)
	}
	parity := rs.Encode(data)
	d := append([]byte(nil), data...)
	p := append([]byte(nil), parity...)
	res, fixed := rs.DecodeErasures(d, p, []int{3, 7})
	if res != OK {
		t.Fatalf("result %v, want OK (clean word)", res)
	}
	if len(fixed) != 0 {
		t.Fatalf("clean erasure decode corrected %v", fixed)
	}
}

func TestRSTooManyErasures(t *testing.T) {
	rs := mustRS(t, 36, 32)
	data := make([]byte, 32)
	parity := rs.Encode(data)
	data[0] ^= 1
	res, _ := rs.DecodeErasures(data, parity, []int{0, 1, 2, 3, 4})
	if res != Detected {
		t.Fatalf("5 erasures with 4 parity: %v, want detected", res)
	}
}

func TestRSInvalidErasurePosition(t *testing.T) {
	rs := mustRS(t, 36, 32)
	data := make([]byte, 32)
	parity := rs.Encode(data)
	data[0] ^= 1
	if res, _ := rs.DecodeErasures(data, parity, []int{99}); res != Detected {
		t.Fatal("out-of-range erasure must be rejected as Detected")
	}
}

func TestRSSector(t *testing.T) {
	s, err := NewRSSector(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "rs-36/32" {
		t.Fatalf("name = %q", s.Name())
	}
	if s.SectorBytes() != 32 || s.RedundancyBytes() != 4 {
		t.Fatalf("geometry %d/%d", s.SectorBytes(), s.RedundancyBytes())
	}
	sector := make([]byte, 32)
	for i := range sector {
		sector[i] = byte(255 - i)
	}
	red := s.Encode(sector)
	sector[5] ^= 0xff
	if res := s.Decode(sector, red); res != Corrected {
		t.Fatalf("decode = %v", res)
	}
	if sector[5] != 255-5 {
		t.Fatal("sector not restored")
	}
}

func TestRSSector1of16Geometry(t *testing.T) {
	// RS(34,32): 2 parity bytes per 32B sector = 1/16 ratio, t=1.
	s, err := NewRSSector(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if RedundancyRatio(s) != 0.0625 {
		t.Fatalf("ratio = %v, want 1/16", RedundancyRatio(s))
	}
	sector := make([]byte, 32)
	red := s.Encode(sector)
	sector[0] ^= 0x42
	if res := s.Decode(sector, red); res != Corrected {
		t.Fatalf("single symbol under 1/16 code: %v", res)
	}
}

func TestRSLargeCode(t *testing.T) {
	// A whole-line code: RS(255, 223), t=16 — the CCSDS classic.
	rs := mustRS(t, 255, 223)
	rng := rand.New(rand.NewSource(15))
	data := make([]byte, 223)
	rng.Read(data)
	parity := rs.Encode(data)
	d := append([]byte(nil), data...)
	p := append([]byte(nil), parity...)
	for _, pos := range rng.Perm(255)[:16] {
		if pos < 223 {
			d[pos] ^= byte(rng.Intn(255) + 1)
		} else {
			p[pos-223] ^= byte(rng.Intn(255) + 1)
		}
	}
	if res := rs.Decode(d, p); res != Corrected {
		t.Fatalf("t=16 correction failed: %v", res)
	}
	if !bytes.Equal(d, data) {
		t.Fatal("large code not restored")
	}
}

// TestRSSharedAcrossGoroutines decodes through one codec from several
// goroutines at once: the decoder keeps its scratch on each caller's
// stack, so a shared codec needs no locking (run under -race).
func TestRSSharedAcrossGoroutines(t *testing.T) {
	rs := mustRS(t, 36, 32)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 32)
			for trial := 0; trial < 300; trial++ {
				rng.Read(data)
				parity := rs.Encode(data)
				d := append([]byte(nil), data...)
				p := append([]byte(nil), parity...)
				d[rng.Intn(32)] ^= byte(rng.Intn(255) + 1)
				p[rng.Intn(4)] ^= byte(rng.Intn(255) + 1)
				if res := rs.Decode(d, p); res != Corrected || !bytes.Equal(d, data) || !bytes.Equal(p, parity) {
					errs <- fmt.Errorf("goroutine %d trial %d: %v", seed, trial, res)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
