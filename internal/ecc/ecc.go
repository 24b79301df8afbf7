// Package ecc implements the error-correcting codes used for GPU memory
// protection in this repository, bit-for-bit: a parametric Hamming SEC-DED
// code, a Reed–Solomon code over GF(2^8) with error and erasure decoding,
// and a tagged variant of Reed–Solomon in the style of Alias-Free Tagged
// ECC (Sullivan et al., ISCA 2023) that embeds a memory-safety tag in the
// code space at zero storage cost.
//
// The codecs are functional (they transform real bytes); the timing
// simulator uses only their geometry (redundancy ratio, granule coverage).
// The fault-injection harness in internal/faults exercises them to produce
// the reliability table.
package ecc

import "fmt"

// Result classifies the outcome of a decode.
type Result int

const (
	// OK means the codeword carried no detectable error.
	OK Result = iota
	// Corrected means an error was detected and corrected in place.
	Corrected
	// Detected means an uncorrectable error was detected; data is suspect.
	Detected
)

// String renders the result for logs and tables.
func (r Result) String() string {
	switch r {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// SectorCodec protects a fixed-size memory sector with fixed-size
// redundancy. Implementations interleave one or more underlying codewords
// across the sector.
type SectorCodec interface {
	// Name identifies the codec in configuration and tables.
	Name() string
	// SectorBytes is the protected data size.
	SectorBytes() int
	// RedundancyBytes is the redundancy size per sector.
	RedundancyBytes() int
	// Encode computes the redundancy for a sector. len(sector) must equal
	// SectorBytes; the returned slice has RedundancyBytes bytes.
	Encode(sector []byte) []byte
	// EncodeInto appends the sector's redundancy to dst and returns the
	// extended slice. It performs no allocation when dst already has
	// RedundancyBytes of spare capacity; Encode is a thin wrapper over it.
	EncodeInto(dst, sector []byte) []byte
	// Decode verifies sector against redundancy, correcting both in place
	// when possible. It allocates nothing, whether the codeword is clean,
	// correctable or uncorrectable.
	Decode(sector, redundancy []byte) Result
}

// RedundancyRatio reports redundancy bytes per data byte for a codec, e.g.
// 0.125 for a 1/8 code.
func RedundancyRatio(c SectorCodec) float64 {
	return float64(c.RedundancyBytes()) / float64(c.SectorBytes())
}
