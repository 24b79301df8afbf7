// Package faults runs fault-injection campaigns against the ECC codecs:
// random bit flips, adjacent-bit bursts, and whole-symbol (chip-style)
// errors, classifying each decode against ground truth. It produces the
// reliability table of the evaluation (Table 3).
package faults

import (
	"bytes"
	"fmt"
	"math/rand"

	"cachecraft/internal/ecc"
)

// Outcome classifies one injected trial against ground truth.
type Outcome int

const (
	// Corrected: the decoder fixed the error; data matches ground truth.
	Corrected Outcome = iota
	// Detected: the decoder flagged an uncorrectable error.
	Detected
	// Miscorrected: the decoder "corrected" into wrong data — silent data
	// corruption with a clean conscience.
	Miscorrected
	// SilentBad: the decoder reported OK but the data is wrong — silent
	// data corruption, the worst case.
	SilentBad
	numOutcomes
)

// String renders the outcome for tables.
func (o Outcome) String() string {
	switch o {
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	case Miscorrected:
		return "miscorrected"
	case SilentBad:
		return "silent-bad"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Report summarizes a campaign.
type Report struct {
	Codec  string
	Fault  string
	Trials int
	Counts [numOutcomes]int
}

// Rate returns the fraction of trials with the given outcome.
func (r Report) Rate(o Outcome) float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Counts[o]) / float64(r.Trials)
}

// SDCRate is the silent-data-corruption rate (miscorrected + silent-bad).
func (r Report) SDCRate() float64 {
	return r.Rate(Miscorrected) + r.Rate(SilentBad)
}

// Campaign drives injections against one sector codec.
type Campaign struct {
	Codec  ecc.SectorCodec
	Trials int
	Seed   int64
}

// Injector corrupts a (sector, redundancy) pair in place.
type Injector func(rng *rand.Rand, sector, redundancy []byte)

// Run executes the campaign with the given fault model. Its buffers are
// allocated once and reused by every trial, so its allocations do not grow
// with Trials.
func (c Campaign) Run(faultName string, inject Injector) Report {
	rng := rand.New(rand.NewSource(c.Seed))
	rep := Report{Codec: c.Codec.Name(), Fault: faultName, Trials: c.Trials}
	n := c.Codec.SectorBytes()
	golden := make([]byte, n)
	sector := make([]byte, n)
	red := make([]byte, 0, c.Codec.RedundancyBytes())
	for trial := 0; trial < c.Trials; trial++ {
		rng.Read(golden)
		copy(sector, golden)
		red = c.Codec.EncodeInto(red[:0], sector)

		inject(rng, sector, red)

		res := c.Codec.Decode(sector, red)
		ok := bytes.Equal(sector, golden)
		switch {
		case res == ecc.Detected:
			rep.Counts[Detected]++
		case ok && (res == ecc.OK || res == ecc.Corrected):
			rep.Counts[Corrected]++
		case res == ecc.Corrected:
			rep.Counts[Miscorrected]++
		default:
			rep.Counts[SilentBad]++
		}
	}
	return rep
}

// BitFlips returns an injector flipping n distinct random bits across the
// sector and redundancy. It draws bits until n are distinct; up to eight
// are tracked on the stack.
func BitFlips(n int) Injector {
	return func(rng *rand.Rand, sector, redundancy []byte) {
		total := len(sector)*8 + len(redundancy)*8
		var buf [8]int
		bits := buf[:0]
	draw:
		for len(bits) < n {
			bit := rng.Intn(total)
			// A plain loop, not slices.Contains: once this closure is
			// inlined into another package, passing bits to the generic
			// call moves buf to the heap.
			for _, b := range bits {
				if b == bit {
					continue draw
				}
			}
			bits = append(bits, bit)
			flip(sector, redundancy, bit)
		}
	}
}

// Burst returns an injector flipping n adjacent bits starting at a random
// position (the locality pattern beam testing reports for DRAM).
func Burst(n int) Injector {
	return func(rng *rand.Rand, sector, redundancy []byte) {
		total := len(sector)*8 + len(redundancy)*8
		start := rng.Intn(total)
		for i := 0; i < n; i++ {
			flip(sector, redundancy, (start+i)%total)
		}
	}
}

// ChipError returns an injector corrupting one whole byte (symbol) to a
// random different value — the chipkill case for symbol-grain codes.
func ChipError() Injector {
	return func(rng *rand.Rand, sector, redundancy []byte) {
		corruptByte(rng, sector, redundancy, rng.Intn(len(sector)+len(redundancy)))
	}
}

// DoubleChipError corrupts two distinct bytes: the second position is
// drawn from the positions other than the first.
func DoubleChipError() Injector {
	return func(rng *rand.Rand, sector, redundancy []byte) {
		n := len(sector) + len(redundancy)
		first := rng.Intn(n)
		corruptByte(rng, sector, redundancy, first)
		second := rng.Intn(n - 1)
		if second >= first {
			second++
		}
		corruptByte(rng, sector, redundancy, second)
	}
}

// corruptByte sets byte pos of sector‖redundancy to a random different
// value.
func corruptByte(rng *rand.Rand, sector, redundancy []byte, pos int) {
	var b *byte
	if pos < len(sector) {
		b = &sector[pos]
	} else {
		b = &redundancy[pos-len(sector)]
	}
	old := *b
	for *b == old {
		*b = byte(rng.Intn(256))
	}
}

func flip(sector, redundancy []byte, bit int) {
	if bit < len(sector)*8 {
		sector[bit/8] ^= 1 << (bit % 8)
	} else {
		bit -= len(sector) * 8
		redundancy[bit/8] ^= 1 << (bit % 8)
	}
}
