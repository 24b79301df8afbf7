package ecc

import "fmt"

// SECDAEC is a single-error-correcting, double-ADJACENT-error-correcting
// binary code (the SEC-DAEC family; cf. SEC-BADAEC, Song et al., IEEE
// Access 2022). DRAM faults cluster: beam studies show multi-bit upsets
// are overwhelmingly in physically adjacent cells, so correcting adjacent
// pairs at SEC-DED-like redundancy captures most double-bit faults that
// SEC-DED can only detect.
//
// Construction: an H-matrix whose columns are chosen so that all single
// columns and all XORs of adjacent column pairs are distinct and nonzero.
// The decoder maps a syndrome to "no error", "flip bit i", "flip bits
// i,i+1", or "detected".
type SECDAEC struct {
	k       int      // data bits
	r       int      // check bits
	n       int      // total bits
	cols    []uint32 // H-matrix column per codeword position
	actions map[uint32]daecAction

	// Per-byte syndrome tables: [b][v] is the XOR of the H-columns selected
	// by byte value v at byte offset b of the data (resp. check) bits.
	dataTbl [][256]uint32
	chkTbl  [][256]uint32
}

type daecAction struct {
	first  int
	second int // -1 for single-bit corrections
}

// NewSECDAEC constructs a code for the given data width, searching for the
// smallest check width (starting from the SEC-DED width) that admits an
// adjacent-unique column assignment.
func NewSECDAEC(dataBits int) (*SECDAEC, error) {
	if dataBits <= 0 || dataBits > 256 {
		return nil, fmt.Errorf("ecc: unsupported SEC-DAEC width %d", dataBits)
	}
	minR := 0
	for (1 << minR) < dataBits+minR+1 {
		minR++
	}
	for r := minR; r <= minR+4; r++ {
		if c := buildSECDAEC(dataBits, r); c != nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("ecc: no SEC-DAEC construction found for %d data bits", dataBits)
}

// buildSECDAEC greedily assigns columns: data positions first (arbitrary
// non-unit values), then the check positions as unit vectors, verifying
// the adjacent-pair uniqueness constraints as it goes.
func buildSECDAEC(k, r int) *SECDAEC {
	n := k + r
	used := make(map[uint32]bool) // syndromes already spoken for
	cols := make([]uint32, 0, n)

	// The check region is fixed up front: unit-vector columns at positions
	// k..n-1. Reserve their syndromes AND their internal adjacency pairs
	// (e_j ^ e_{j+1}) before any data column is chosen, so the data greedy
	// can never consume a value the check region needs.
	for j := 0; j < r; j++ {
		used[1<<j] = true
	}
	for j := 0; j+1 < r; j++ {
		used[(1<<j)^(1<<(j+1))] = true
	}

	fits := func(c uint32, last bool) bool {
		if c == 0 || used[c] {
			return false
		}
		if len(cols) > 0 {
			pair := cols[len(cols)-1] ^ c
			if pair == 0 || used[pair] {
				return false
			}
		}
		if last {
			// The boundary pair with the first check column (e_0 = 1).
			pair := c ^ 1
			if pair == 0 || used[pair] {
				return false
			}
		}
		return true
	}
	place := func(c uint32) {
		if len(cols) > 0 {
			used[cols[len(cols)-1]^c] = true
		}
		used[c] = true
		cols = append(cols, c)
	}

	// Data columns: scan candidate values in a fixed pseudo-shuffled order
	// (odd multiplier walk) for determinism without adversarial clustering.
	limit := uint32(1) << r
	for i := 0; i < k; i++ {
		placed := false
		for step := uint32(1); step < limit; step++ {
			c := (step*2654435761 + 97) % limit
			if fits(c, i == k-1) {
				place(c)
				placed = true
				break
			}
		}
		if !placed {
			return nil
		}
	}
	// Check columns: everything was pre-reserved, so placement is only
	// bookkeeping (record the boundary and internal pair values as used —
	// they already are — and append the columns).
	for j := 0; j < r; j++ {
		c := uint32(1) << j
		used[cols[len(cols)-1]^c] = true
		cols = append(cols, c)
	}

	code := &SECDAEC{k: k, r: r, n: n, cols: cols, actions: make(map[uint32]daecAction)}
	for i, c := range cols {
		code.actions[c] = daecAction{first: i, second: -1}
	}
	for i := 0; i+1 < n; i++ {
		code.actions[cols[i]^cols[i+1]] = daecAction{first: i, second: i + 1}
	}
	code.buildTables()
	return code
}

// buildTables precomputes the per-byte H-column folds.
func (c *SECDAEC) buildTables() {
	c.dataTbl = make([][256]uint32, (c.k+7)/8)
	for b := range c.dataTbl {
		for v := 0; v < 256; v++ {
			var s uint32
			for j := 0; j < 8; j++ {
				if i := b*8 + j; i < c.k && v>>j&1 == 1 {
					s ^= c.cols[i]
				}
			}
			c.dataTbl[b][v] = s
		}
	}
	c.chkTbl = make([][256]uint32, c.CheckBytes())
	for b := range c.chkTbl {
		for v := 0; v < 256; v++ {
			var s uint32
			for j := 0; j < 8; j++ {
				if i := b*8 + j; i < c.r && v>>j&1 == 1 {
					s ^= c.cols[c.k+i]
				}
			}
			c.chkTbl[b][v] = s
		}
	}
}

// DataBits reports the data width.
func (c *SECDAEC) DataBits() int { return c.k }

// CheckBits reports the redundancy width.
func (c *SECDAEC) CheckBits() int { return c.r }

// CheckBytes reports redundancy storage in whole bytes.
func (c *SECDAEC) CheckBytes() int { return (c.r + 7) / 8 }

// syndrome folds data and check bits through the H-matrix, one
// table-indexed byte at a time.
func (c *SECDAEC) syndrome(data, check []byte) uint32 {
	var s uint32
	for b := range c.dataTbl {
		s ^= c.dataTbl[b][data[b]]
	}
	for b := range c.chkTbl {
		s ^= c.chkTbl[b][check[b]]
	}
	return s
}

// Encode computes the check bits for data (at least DataBits bits).
func (c *SECDAEC) Encode(data []byte) []byte {
	return c.EncodeInto(make([]byte, 0, c.CheckBytes()), data)
}

// EncodeInto appends the check bytes for data to dst and returns the
// extended slice; it does not allocate when dst has capacity.
func (c *SECDAEC) EncodeInto(dst, data []byte) []byte {
	if len(data)*8 < c.k {
		panic(fmt.Sprintf("ecc: SEC-DAEC encode needs %d bits, got %d", c.k, len(data)*8))
	}
	base := len(dst)
	for i := 0; i < c.CheckBytes(); i++ {
		dst = append(dst, 0)
	}
	check := dst[base:]
	s := c.syndrome(data, check)
	// Check columns are unit vectors, so check bit j cancels syndrome bit j.
	for j := 0; j < c.r; j++ {
		if s&(1<<j) != 0 {
			setBit(check, j, 1)
		}
	}
	return dst
}

// Decode verifies and corrects in place: any single-bit error, any
// double-adjacent-bit error. Other patterns with unknown syndromes are
// detected. It does not allocate.
func (c *SECDAEC) Decode(data, check []byte) Result {
	if len(data)*8 < c.k || len(check) < c.CheckBytes() {
		panic("ecc: SEC-DAEC decode buffer too small")
	}
	s := c.syndrome(data, check)
	if s == 0 {
		return OK
	}
	act, ok := c.actions[s]
	if !ok {
		return Detected
	}
	c.flip(data, check, act.first)
	if act.second >= 0 {
		c.flip(data, check, act.second)
	}
	return Corrected
}

func (c *SECDAEC) flip(data, check []byte, pos int) {
	if pos < c.k {
		flipBit(data, pos)
	} else {
		flipBit(check, pos-c.k)
	}
}
