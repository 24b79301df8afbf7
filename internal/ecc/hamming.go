package ecc

import (
	"fmt"
	"math/bits"
)

// SECDED is a parametric extended-Hamming code: single-error-correcting,
// double-error-detecting over an arbitrary data width. The classic layout
// places check bits at power-of-two positions 1,2,4,... of the codeword and
// adds one overall parity bit for double-error detection.
//
// For 64 data bits this is the ubiquitous (72,64) SEC-DED used in DRAM
// interfaces: 8 check bits per 8 data bytes, a 1/8 redundancy ratio.
type SECDED struct {
	k       int   // data bits
	r       int   // Hamming check bits (excluding overall parity)
	n       int   // codeword bits excluding overall parity = k + r
	dataPos []int // codeword position (1-based) of each data bit

	// Per-byte syndrome tables: entry [b][v] folds a whole byte of input
	// into the syndrome at once instead of testing eight bits. The low 31
	// bits carry the syndrome XOR, bit 31 the overall-parity XOR.
	dataTbl [][256]uint32
	chkTbl  [][256]uint32
}

// synParity packs an overall-parity flip into a table entry.
const synParity = 1 << 31

// NewSECDED builds a SEC-DED code for the given number of data bits.
// It panics if dataBits is not positive; code construction is static
// configuration, not runtime input.
func NewSECDED(dataBits int) *SECDED {
	if dataBits <= 0 {
		panic(fmt.Sprintf("ecc: invalid SECDED data width %d", dataBits))
	}
	r := 0
	for (1 << r) < dataBits+r+1 {
		r++
	}
	n := dataBits + r
	c := &SECDED{k: dataBits, r: r, n: n, dataPos: make([]int, 0, dataBits)}
	for pos := 1; pos <= n; pos++ {
		if pos&(pos-1) != 0 { // not a power of two → data position
			c.dataPos = append(c.dataPos, pos)
		}
	}
	c.buildTables()
	return c
}

// buildTables precomputes the per-byte syndrome folds for data bytes and
// check bytes.
func (c *SECDED) buildTables() {
	c.dataTbl = make([][256]uint32, (c.k+7)/8)
	for b := range c.dataTbl {
		for v := 0; v < 256; v++ {
			var e uint32
			for j := 0; j < 8; j++ {
				i := b*8 + j
				if i < c.k && v>>j&1 == 1 {
					e ^= uint32(c.dataPos[i]) ^ synParity
				}
			}
			c.dataTbl[b][v] = e
		}
	}
	c.chkTbl = make([][256]uint32, c.CheckBytes())
	for b := range c.chkTbl {
		for v := 0; v < 256; v++ {
			var e uint32
			for j := 0; j < 8; j++ {
				i := b*8 + j
				if v>>j&1 == 0 {
					continue
				}
				if i < c.r {
					e ^= uint32(1)<<i ^ synParity
				} else if i == c.r {
					e ^= synParity // overall parity bit
				}
			}
			c.chkTbl[b][v] = e
		}
	}
}

// DataBits reports the data width in bits.
func (c *SECDED) DataBits() int { return c.k }

// CheckBits reports the number of redundancy bits including the overall
// parity bit.
func (c *SECDED) CheckBits() int { return c.r + 1 }

// CheckBytes reports the redundancy storage in whole bytes.
func (c *SECDED) CheckBytes() int { return (c.CheckBits() + 7) / 8 }

func getBit(b []byte, i int) int { return int(b[i>>3]>>(uint(i)&7)) & 1 }
func flipBit(b []byte, i int)    { b[i>>3] ^= 1 << (uint(i) & 7) }
func setBit(b []byte, i, v int)  { b[i>>3] = b[i>>3]&^(1<<(uint(i)&7)) | byte(v)<<(uint(i)&7) }

// Encode computes the check bits for data, which must hold at least
// DataBits bits. The returned slice has CheckBytes bytes: Hamming check bit
// i in bit position i, overall parity in bit position r.
func (c *SECDED) Encode(data []byte) []byte {
	return c.EncodeInto(make([]byte, 0, c.CheckBytes()), data)
}

// EncodeInto appends the check bytes for data to dst and returns the
// extended slice. It does not allocate when dst has capacity.
func (c *SECDED) EncodeInto(dst, data []byte) []byte {
	if len(data)*8 < c.k {
		panic(fmt.Sprintf("ecc: SECDED encode needs %d bits, got %d", c.k, len(data)*8))
	}
	base := len(dst)
	for i := 0; i < c.CheckBytes(); i++ {
		dst = append(dst, 0)
	}
	check := dst[base:]
	syn, overall := c.synFromData(data, check)
	// Solve for check bits so the syndrome becomes zero: check bit i covers
	// exactly the positions with bit i set, and sits at position 2^i which
	// has only bit i set, so each check bit independently cancels one
	// syndrome bit: the check bits are the syndrome itself. Each set check
	// bit also flips the overall parity, stored in bit r.
	overall ^= bits.OnesCount(uint(syn)) & 1
	v := uint64(syn) | uint64(overall)<<c.r
	for i := range check {
		check[i] = byte(v >> (8 * i))
	}
	return dst
}

// synFromData folds the data and current check bits into the Hamming
// syndrome and overall parity, one table-indexed byte at a time. Bits
// beyond DataBits (in data) or the overall parity bit (in check) are
// ignored, matching the bit-addressed definition of the code.
func (c *SECDED) synFromData(data, check []byte) (syn int, overall int) {
	var e uint32
	for b := range c.dataTbl {
		e ^= c.dataTbl[b][data[b]]
	}
	for b := range c.chkTbl {
		e ^= c.chkTbl[b][check[b]]
	}
	return int(e &^ synParity), int(e >> 31)
}

// Decode verifies data against check, correcting a single-bit error in
// either in place. It reports OK, Corrected, or Detected (double error),
// and does not allocate.
func (c *SECDED) Decode(data, check []byte) Result {
	if len(data)*8 < c.k || len(check) < c.CheckBytes() {
		panic("ecc: SECDED decode buffer too small")
	}
	syn, overall := c.synFromData(data, check)
	switch {
	case syn == 0 && overall == 0:
		return OK
	case syn == 0 && overall == 1:
		// The overall parity bit itself flipped.
		flipBit(check, c.r)
		return Corrected
	case overall == 1:
		// Single error at codeword position syn.
		if syn > c.n {
			return Detected // syndrome points outside the codeword
		}
		if syn&(syn-1) == 0 {
			// Power-of-two position → a check bit flipped.
			flipBit(check, bits.TrailingZeros(uint(syn)))
			return Corrected
		}
		// Data position: find its index.
		idx := c.dataIndex(syn)
		flipBit(data, idx)
		return Corrected
	default:
		// Nonzero syndrome with even parity: double-bit error.
		return Detected
	}
}

// dataIndex maps a non-power-of-two codeword position to its data bit
// index: the count of non-power-of-two positions below pos, which is pos-1
// less the bits.Len(pos-1) powers of two among 1..pos-1.
func (c *SECDED) dataIndex(pos int) int {
	return (pos - 1) - bits.Len(uint(pos-1))
}
