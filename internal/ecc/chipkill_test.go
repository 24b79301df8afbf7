package ecc

import (
	"bytes"
	"math/rand"
	"testing"
)

func mustChipkill(t *testing.T) *Chipkill {
	t.Helper()
	c, err := NewChipkill(32, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChipkillGeometry(t *testing.T) {
	c := mustChipkill(t)
	if c.SectorBytes() != 32 || c.RedundancyBytes() != 4 || c.Devices() != 9 {
		t.Fatalf("geometry %d/%d x%d", c.SectorBytes(), c.RedundancyBytes(), c.Devices())
	}
	if c.Name() != "chipkill-rs-36/32 x9" {
		t.Fatalf("name = %q", c.Name())
	}
	// 36 symbols / 9 devices = 4 symbols each, disjoint and complete.
	seen := map[int]bool{}
	for d := 0; d < 9; d++ {
		syms := c.DeviceSymbols(d)
		if len(syms) != 4 {
			t.Fatalf("device %d owns %d symbols", d, len(syms))
		}
		for _, p := range syms {
			if seen[p] {
				t.Fatalf("symbol %d owned twice", p)
			}
			seen[p] = true
		}
	}
	if len(seen) != 36 {
		t.Fatalf("coverage %d/36", len(seen))
	}
	if c.DeviceSymbols(-1) != nil || c.DeviceSymbols(9) != nil {
		t.Fatal("out-of-range device must return nil")
	}
}

func TestChipkillRejectsBadStripes(t *testing.T) {
	if _, err := NewChipkill(32, 4, 7); err == nil {
		t.Fatal("non-dividing stripe accepted")
	}
	if _, err := NewChipkill(32, 4, 4); err == nil {
		t.Fatal("9-symbol devices exceed the 4-erasure budget but were accepted")
	}
	if _, err := NewChipkill(32, 4, 0); err == nil {
		t.Fatal("zero devices accepted")
	}
}

// killDevice corrupts every symbol a device owns.
func killDevice(c *Chipkill, rng *rand.Rand, sector, red []byte, dev int) {
	for _, p := range c.DeviceSymbols(dev) {
		var b *byte
		if p < len(sector) {
			b = &sector[p]
		} else {
			b = &red[p-len(sector)]
		}
		old := *b
		for *b == old {
			*b = byte(rng.Intn(256))
		}
	}
}

func TestChipkillRecoversAnyDeadDevice(t *testing.T) {
	c := mustChipkill(t)
	rng := rand.New(rand.NewSource(31))
	golden := make([]byte, 32)
	rng.Read(golden)
	parity := c.Encode(golden)

	for dev := 0; dev < 9; dev++ {
		sector := append([]byte(nil), golden...)
		red := append([]byte(nil), parity...)
		killDevice(c, rng, sector, red, dev)
		if res := c.DecodeWithDeadDevice(sector, red, dev); res != Corrected {
			t.Fatalf("device %d: %v", dev, res)
		}
		if !bytes.Equal(sector, golden) || !bytes.Equal(red, parity) {
			t.Fatalf("device %d: not restored", dev)
		}
	}
}

func TestChipkillBlindDecodeDetectsDeadDevice(t *testing.T) {
	// Without the device identity, 4 symbol errors exceed t=2: the decode
	// must never silently succeed with wrong data, and it can essentially
	// never recover the data either (that takes the erasure decode).
	c := mustChipkill(t)
	rng := rand.New(rand.NewSource(32))
	golden := make([]byte, 32)
	rng.Read(golden)
	parity := c.Encode(golden)

	const trials = 500
	silent, corrected, detected := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		sector := append([]byte(nil), golden...)
		red := append([]byte(nil), parity...)
		killDevice(c, rng, sector, red, rng.Intn(9))
		res := c.Decode(sector, red)
		switch {
		case res == Detected:
			detected++
		case res == Corrected && bytes.Equal(sector, golden):
			corrected++
		default:
			// OK on corrupted data, or a miscorrection: possible beyond
			// the code's distance but must be rare.
			silent++
		}
	}
	if silent > trials/100 {
		t.Fatalf("%d/%d dead devices slipped past blind decode", silent, trials)
	}
	if corrected > trials/100 {
		t.Fatalf("blind decode corrected %d/%d dead devices", corrected, trials)
	}
	if detected == 0 {
		t.Fatal("blind decode never detected a dead device")
	}
}

// TestChipkillWrongDeadDeviceHintCanMiscorrect documents a fundamental
// property of erasure decoding, not a bug: when the full n-k erasure
// budget points at *intact* positions while the real errors sit
// elsewhere, the decoder is free to rewrite the "erased" symbols into a
// different valid codeword and the verify pass cannot catch it. This is
// exactly why production chipkill identifies failed devices carefully
// (scrub confirmation, repeated-detection thresholds) before trusting
// erasure pointers.
func TestChipkillWrongDeadDeviceHintCanMiscorrect(t *testing.T) {
	c := mustChipkill(t)
	rng := rand.New(rand.NewSource(33))
	golden := make([]byte, 32)
	rng.Read(golden)
	parity := c.Encode(golden)

	miscorrected := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		sector := append([]byte(nil), golden...)
		red := append([]byte(nil), parity...)
		dead := rng.Intn(9)
		killDevice(c, rng, sector, red, dead)
		wrong := (dead + 1 + rng.Intn(7)) % 9
		if res := c.DecodeWithDeadDevice(sector, red, wrong); res == Corrected &&
			!bytes.Equal(sector, golden) {
			miscorrected++
		}
	}
	if miscorrected == 0 {
		t.Fatal("expected wrong erasure hints to miscorrect sometimes — " +
			"if this stops happening, the decoder is over-rejecting")
	}
}

func TestChipkillSectorCodecInterfaceCleanPath(t *testing.T) {
	c := mustChipkill(t)
	sector := make([]byte, 32)
	for i := range sector {
		sector[i] = byte(i)
	}
	red := c.Encode(sector)
	if res := c.Decode(sector, red); res != OK {
		t.Fatalf("clean decode = %v", res)
	}
	sector[7] ^= 0x20
	if res := c.Decode(sector, red); res != Corrected {
		t.Fatalf("single error = %v", res)
	}
}
