package ecc

import (
	"math/rand"
	"testing"
)

// TestEncodeDecodeZeroAllocs pins the allocation-free codec contract:
// EncodeInto with a pre-sized destination and Decode on a clean
// codeword must not allocate, for every sector codec. The symbol codes
// must not allocate to correct a codeword or to reject one either.
func TestEncodeDecodeZeroAllocs(t *testing.T) {
	secded, err := NewSECDEDSector(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	secdaec, err := NewSECDAECSector(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRSSector(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	chipkill, err := NewChipkill(32, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []SectorCodec{secded, secdaec, rs, chipkill} {
		t.Run(codec.Name(), func(t *testing.T) {
			sector := make([]byte, codec.SectorBytes())
			rand.New(rand.NewSource(7)).Read(sector)
			red := codec.Encode(sector)
			dst := make([]byte, 0, codec.RedundancyBytes())
			allocs := testing.AllocsPerRun(200, func() {
				dst = codec.EncodeInto(dst[:0], sector)
				if res := codec.Decode(sector, red); res != OK {
					t.Fatalf("clean decode = %v", res)
				}
			})
			if allocs != 0 {
				t.Fatalf("EncodeInto+Decode allocated %.1f times per op, want 0", allocs)
			}
		})
	}
	// Symbol errors, as (position, magnitude) pairs over the 36-symbol
	// codeword: two are within RS(36,32)'s radius, three are beyond it.
	cases := []struct {
		name string
		errs [][2]int
		want Result
	}{
		{"correctable", [][2]int{{3, 0x5a}, {33, 0x81}}, Corrected},
		{"uncorrectable", [][2]int{{0, 0x11}, {9, 0x22}, {20, 0x33}}, Detected},
	}
	for _, codec := range []SectorCodec{rs, chipkill} {
		for _, c := range cases {
			t.Run(codec.Name()+"/"+c.name, func(t *testing.T) {
				golden := make([]byte, codec.SectorBytes())
				rand.New(rand.NewSource(8)).Read(golden)
				goldenRed := codec.Encode(golden)
				sector := make([]byte, len(golden))
				red := make([]byte, len(goldenRed))
				allocs := testing.AllocsPerRun(200, func() {
					copy(sector, golden)
					copy(red, goldenRed)
					for _, e := range c.errs {
						if e[0] < len(sector) {
							sector[e[0]] ^= byte(e[1])
						} else {
							red[e[0]-len(sector)] ^= byte(e[1])
						}
					}
					if res := codec.Decode(sector, red); res != c.want {
						t.Fatalf("decode = %v, want %v", res, c.want)
					}
				})
				if allocs != 0 {
					t.Fatalf("Decode allocated %.1f times per op, want 0", allocs)
				}
			})
		}
	}
}

// TestTaggedEncodeIntoZeroAllocs covers the tagged codec, whose encode
// feeds the virtual tag++data word segment-wise instead of concatenating.
func TestTaggedEncodeIntoZeroAllocs(t *testing.T) {
	codec, err := NewTagged(32, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32)
	rand.New(rand.NewSource(7)).Read(data)
	tag := []byte{0xA5, 0x3C}
	want := codec.Encode(data, tag)
	dst := make([]byte, 0, codec.ParityBytes())
	allocs := testing.AllocsPerRun(200, func() {
		dst = codec.EncodeInto(dst[:0], data, tag)
	})
	if allocs != 0 {
		t.Fatalf("Tagged.EncodeInto allocated %.1f times per op, want 0", allocs)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatal("EncodeInto parity differs from Encode")
		}
	}
}

// TestEncodeIntoMatchesEncode cross-checks the append-style API against
// the allocating wrapper on random sectors, including appending after
// existing bytes.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	secded, _ := NewSECDEDSector(32, 64)
	secdaec, _ := NewSECDAECSector(32, 64)
	rs, _ := NewRSSector(32, 4)
	chipkill, _ := NewChipkill(32, 4, 9)
	rng := rand.New(rand.NewSource(11))
	for _, codec := range []SectorCodec{secded, secdaec, rs, chipkill} {
		for trial := 0; trial < 50; trial++ {
			sector := make([]byte, codec.SectorBytes())
			rng.Read(sector)
			want := codec.Encode(sector)
			prefix := []byte{0xEE, 0xFF}
			got := codec.EncodeInto(append([]byte(nil), prefix...), sector)
			if len(got) != len(prefix)+len(want) {
				t.Fatalf("%s: EncodeInto length %d, want %d", codec.Name(), len(got), len(prefix)+len(want))
			}
			for i := range prefix {
				if got[i] != prefix[i] {
					t.Fatalf("%s: EncodeInto clobbered existing bytes", codec.Name())
				}
			}
			for i := range want {
				if got[len(prefix)+i] != want[i] {
					t.Fatalf("%s: trial %d redundancy byte %d differs", codec.Name(), trial, i)
				}
			}
		}
	}
}
