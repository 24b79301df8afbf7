package ecc

import "fmt"

// RS is a systematic Reed–Solomon code over GF(2^8). A codeword is k data
// symbols followed by n-k parity symbols; the code corrects e symbol errors
// and s symbol erasures whenever 2e+s <= n-k (so up to t=(n-k)/2 errors
// with no erasures).
//
// Symbol-grain correction is what gives memory codes their chipkill-style
// behaviour: all bits of one device map to one symbol, so a whole-chip
// failure is a single symbol error.
//
// Parity is linear in the data, so it is computed as the XOR of one table
// entry per data nibble rather than by a symbol-serial LFSR division. The
// same table gives the decoder the received word's remainder modulo the
// generator, which is zero exactly for a codeword; only a nonzero
// remainder is expanded into syndromes.
type RS struct {
	n, k int
	// words is the number of uint64 words a parity vector packs into,
	// ⌈(n-k)/8⌉: parity symbol j sits in byte j%8 of word j/8.
	words int
	// par holds the parity each data nibble contributes, one plane of k
	// rows per packed word: par[w·k+i][v] is word w of the parity of the
	// symbol v at data position i, and par[w·k+i][16+v] that of v<<4.
	par [][rowLen]uint64
	// loc[i] is the error locator X_i = alpha^(n-1-i) of codeword position
	// i, and locInv[i] its inverse, the point the Chien search tests.
	loc, locInv []byte
}

const (
	// maxSymbols is the longest codeword over GF(2^8).
	maxSymbols = 255
	// maxParity caps n-k, and with it every polynomial the decoder keeps
	// on its stack.
	maxParity = 32
	// maxWords is the packed width of a maxParity parity vector.
	maxWords = maxParity / 8
	// rowLen is the number of table entries per data position: 16 for
	// each nibble.
	rowLen = 32
)

// NewRS constructs an (n,k) Reed–Solomon code. n must be at most 255 and
// greater than k, and the parity count n-k at most 32.
func NewRS(n, k int) (*RS, error) {
	if n > maxSymbols || k <= 0 || k >= n || n-k > maxParity {
		return nil, fmt.Errorf("ecc: invalid RS(%d,%d)", n, k)
	}
	// Generator g(x) = Π_{i=0}^{n-k-1} (x - alpha^i).
	gen := []byte{1}
	for i := 0; i < n-k; i++ {
		gen = polyMul(gen, []byte{1, gfAlpha(i)})
	}
	p := n - k
	r := &RS{n: n, k: k, words: (p + 7) / 8, loc: make([]byte, n), locInv: make([]byte, n)}
	r.par = make([][rowLen]uint64, r.words*k)
	// The symbol 1 at the last data position contributes x^p mod g(x),
	// which in characteristic 2 is g's coefficients below its leading one.
	var last parityRow
	for j := 0; j < p; j++ {
		last[1][j/8] |= uint64(gen[j+1]) << (8 * (j % 8))
	}
	last.fill()
	r.setRow(k-1, &last)
	// One position earlier multiplies a contribution by x: every
	// coefficient moves up a degree, a byte down in the packing, and the
	// one leaving x^(p-1) is reduced through the last position's row.
	row := last
	for i := k - 2; i >= 0; i-- {
		prev := row[1]
		f := byte(prev[0])
		for j := range prev {
			row[1][j] = prev[j] >> 8
			if j+1 < maxWords {
				row[1][j] |= prev[j+1] << 56
			}
			row[1][j] ^= last[f&15][j] ^ last[16+(f>>4)][j]
		}
		row.fill()
		r.setRow(i, &row)
	}
	for i := 0; i < n; i++ {
		r.loc[i] = gfAlpha(n - 1 - i)
		r.locInv[i] = gfAlpha(-(n - 1 - i))
	}
	return r, nil
}

// parityRow is one data position's table entries while NewRS builds them,
// each a whole packed parity vector.
type parityRow [rowLen][maxWords]uint64

// fill completes a row whose entry for the symbol 1 is set. The other
// single-bit symbols follow by doubling each packed byte in GF(2^8), and
// every other nibble value is the XOR of its bits' entries.
func (row *parityRow) fill() {
	// Entries 1, 2, 4, 8 of the low half, then of the high half.
	prev := 1
	for b := 1; b < 8; b++ {
		e := 1<<(b%4) + 16*(b/4)
		for j, v := range row[prev] {
			hi := v & 0x8080808080808080
			row[e][j] = (v&0x7f7f7f7f7f7f7f7f)<<1 ^ (hi>>7)*(gfPoly&0xff)
		}
		prev = e
	}
	for _, half := range [2]int{0, 16} {
		for v := 3; v < 16; v++ {
			if low := v & -v; low != v {
				for j := range row[half+v] {
					row[half+v][j] = row[half+v-low][j] ^ row[half+low][j]
				}
			}
		}
	}
}

// setRow stores row as data position i's entries, one word per plane.
func (r *RS) setRow(i int, row *parityRow) {
	for w := 0; w < r.words; w++ {
		for e := range row {
			r.par[w*r.k+i][e] = row[e][w]
		}
	}
}

// N reports the codeword length in symbols.
func (r *RS) N() int { return r.n }

// K reports the data length in symbols.
func (r *RS) K() int { return r.k }

// ParitySymbols reports n-k.
func (r *RS) ParitySymbols() int { return r.n - r.k }

// T reports the guaranteed symbol-error correction capability with no
// erasures.
func (r *RS) T() int { return (r.n - r.k) / 2 }

// Encode computes the parity symbols for data (len k) as the remainder of
// data·x^(n-k) divided by the generator polynomial.
func (r *RS) Encode(data []byte) []byte {
	return r.EncodeInto(make([]byte, 0, r.n-r.k), data)
}

// EncodeInto appends the parity symbols for data (len k) to dst and
// returns the extended slice. It does not allocate when dst has capacity.
func (r *RS) EncodeInto(dst, data []byte) []byte {
	if len(data) != r.k {
		panic(fmt.Sprintf("ecc: RS encode len %d, want %d", len(data), r.k))
	}
	var rem [maxWords]uint64
	r.fold(&rem, 0, data)
	return r.appendParity(dst, &rem)
}

// fold XORs into rem the parity of the symbols seg placed at data
// positions start onward. The lookups are independent of each other, so
// they overlap instead of waiting on one another as an LFSR's do. The
// tagged codec folds its tag at positions 0..tagSyms-1 and its data after.
func (r *RS) fold(rem *[maxWords]uint64, start int, seg []byte) {
	for w := 0; w < r.words; w++ {
		tbl := r.par[w*r.k+start:][:len(seg)]
		var acc uint64
		for i, d := range seg {
			e := &tbl[i]
			acc ^= e[d&15] ^ e[16+(d>>4)]
		}
		rem[w] ^= acc
	}
}

// appendParity appends the n-k parity symbols packed in rem to dst.
func (r *RS) appendParity(dst []byte, rem *[maxWords]uint64) []byte {
	for j := 0; j < r.n-r.k; j++ {
		dst = append(dst, byte(rem[j/8]>>(8*(j%8))))
	}
	return dst
}

// syndromes evaluates the codeword data++parity at alpha^0..alpha^(p-1)
// into syn (len p) and reports whether any syndrome is nonzero. Symbol
// index i carries weight alpha^((n-1-i)·j) in syndrome j; a zero vector
// means a valid codeword. Since every alpha^j is a root of the generator,
// S_j is also the value at alpha^j of the word's remainder R(x), whose
// coefficient of x^(p-1-m) is byte m of parity(data) ⊕ parity: a codeword
// is recognised by R = 0 alone, and only a nonzero R takes p·p products.
func (r *RS) syndromes(syn, data, parity []byte) bool {
	var rem [maxWords]uint64
	r.fold(&rem, 0, data)
	for m, c := range parity {
		rem[m/8] ^= uint64(c) << (8 * (m % 8))
	}
	for j := range syn {
		syn[j] = 0
	}
	if rem == [maxWords]uint64{} {
		return false
	}
	p := len(syn)
	for m := 0; m < p; m++ {
		c := byte(rem[m/8] >> (8 * (m % 8)))
		if c == 0 {
			continue
		}
		// R_m·alpha^((p-1-m)·j), stepping the exponent by p-1-m.
		e, step := int(gfLog[c]), p-1-m
		for j := range syn {
			syn[j] ^= gfExp[e]
			if e += step; e >= 255 {
				e -= 255
			}
		}
	}
	return true
}

// Decode verifies data (len k) against parity (len n-k), correcting up to T
// symbol errors in place. It does not allocate.
func (r *RS) Decode(data, parity []byte) Result {
	return r.decode(data, parity, nil, nil)
}

// DecodeErasures decodes with known erasure positions (indices into the
// full codeword: 0..k-1 are data symbols, k..n-1 parity symbols). It
// corrects e errors and s erasures whenever 2e+s <= n-k and returns the
// corrected symbol indices in ascending order (erasure positions that
// needed no change are not reported).
func (r *RS) DecodeErasures(data, parity []byte, erasures []int) (Result, []int) {
	var corrected []int
	res := r.decode(data, parity, erasures, &corrected)
	return res, corrected
}

// decode is the one RS decode path behind Decode and DecodeErasures. When
// corrected is not nil, a successful correction appends the changed
// positions to it; nothing else allocates, because every polynomial lives
// in a fixed array on the stack, never in the shared codec.
func (r *RS) decode(data, parity []byte, erasures []int, corrected *[]int) Result {
	if len(data) != r.k || len(parity) != r.n-r.k {
		panic("ecc: RS decode buffer size mismatch")
	}
	p := r.n - r.k
	var synBuf [maxParity]byte
	syn := synBuf[:p]
	if !r.syndromes(syn, data, parity) {
		return OK
	}
	if len(erasures) > p {
		return Detected
	}

	var lam [maxParity + 1]byte
	nl, ok := r.locator(&lam, syn, erasures)
	if !ok {
		return Detected
	}
	for nl > 1 && lam[nl-1] == 0 {
		nl--
	}
	nerrs := nl - 1 // total located positions incl. erasures
	if nerrs == 0 || 2*(nerrs-len(erasures))+len(erasures) > p {
		return Detected
	}

	// Chien search: position i is in error when Λ(X_i⁻¹) = 0. Λ has degree
	// nerrs, so once nerrs roots are found there are no more. A degree-one
	// Λ = 1 + Λ_1·x has the single root X = Λ_1 = alpha^(n-1-i), which
	// names i without a search.
	var pos [maxParity]uint8
	found := 0
	if nerrs == 1 {
		if l := int(gfLog[lam[1]]); l < r.n {
			pos[0] = uint8(r.n - 1 - l)
			found = 1
		}
	} else {
		for i, xinv := range r.locInv {
			if polyEvalAsc(lam[:nl], xinv) == 0 {
				pos[found] = uint8(i)
				if found++; found == nerrs {
					break
				}
			}
		}
	}
	if found != nerrs {
		return Detected
	}

	// Forney: Ω(x) = S(x)·Λ(x) mod x^p; e_l = X_l·Ω(X_l⁻¹)/Λ'(X_l⁻¹), where
	// the formal derivative Λ' keeps only Λ's odd-power terms.
	var omega [maxParity]byte
	for i := range syn {
		var o byte
		for j := 0; j <= i && j < nl; j++ {
			o ^= gfMul(lam[j], syn[i-j])
		}
		omega[i] = o
	}
	var mag [maxParity]byte
	for l, at := range pos[:found] {
		x, xinv := r.loc[at], r.locInv[at]
		x2 := gfMul(xinv, xinv)
		var den byte
		for i := (nl - 2) | 1; i >= 1; i -= 2 {
			den = gfMul(den, x2) ^ lam[i]
		}
		if den == 0 {
			return Detected
		}
		mag[l] = gfMul(x, gfDiv(polyEvalAsc(omega[:p], xinv), den))
		// Fold the correction into the syndromes: S_j(c ⊕ e) = S_j(c) ⊕
		// e·X^j. If any stays nonzero the error exceeded the code and the
		// "correction" would be a miscorrection.
		xp := byte(1)
		for j := range syn {
			syn[j] ^= gfMul(mag[l], xp)
			xp = gfMul(xp, x)
		}
	}
	for _, s := range syn {
		if s != 0 {
			return Detected
		}
	}
	for l, at := range pos[:found] {
		if mag[l] == 0 {
			continue
		}
		if int(at) < r.k {
			data[at] ^= mag[l]
		} else {
			parity[int(at)-r.k] ^= mag[l]
		}
		if corrected != nil {
			*corrected = append(*corrected, int(at))
		}
	}
	return Corrected
}

// locator runs the errors-and-erasures Berlekamp–Massey iteration into
// lam and returns the locator Λ(x)'s length, ascending coefficients,
// trailing zeros included. The erasure locator Γ(x) = Π (1 + X_l·x) seeds
// both Λ and the correction term B, and the iteration starts at the
// syndrome after the erasure count. nl and nb are Λ's and B's lengths: the
// swap decision compares lengths, not degrees. Coefficients past a length
// are always zero. ok is false for an erasure outside the codeword.
func (r *RS) locator(lam *[maxParity + 1]byte, syn []byte, erasures []int) (nl int, ok bool) {
	lam[0] = 1
	nl = 1
	for _, idx := range erasures {
		if idx < 0 || idx >= r.n {
			return 0, false
		}
		x := r.loc[idx]
		for i := nl; i > 0; i-- {
			lam[i] ^= gfMul(lam[i-1], x)
		}
		nl++
	}
	b := *lam
	nb := nl
	for k := len(erasures); k < len(syn); k++ {
		// Discrepancy Δ = Σ_j Λ_j · S_{k-j}.
		delta := syn[k]
		for j := 1; j < nl && j <= k; j++ {
			delta ^= gfMul(lam[j], syn[k-j])
		}
		// B ← x·B.
		copy(b[1:nb+1], b[:nb])
		b[0] = 0
		nb++
		if delta == 0 {
			continue
		}
		if nb > nl {
			// Λ ← Λ + Δ·B and B ← Λ/Δ, swapping the lengths.
			inv := gfInv(delta)
			for i := 0; i < nb; i++ {
				old := lam[i]
				lam[i] = old ^ gfMul(delta, b[i])
				b[i] = gfMul(old, inv)
			}
			nl, nb = nb, nl
		} else {
			for i := 0; i < nb; i++ {
				lam[i] ^= gfMul(delta, b[i])
			}
		}
	}
	return nl, true
}

// polyEvalAsc evaluates an ascending-order polynomial at x.
func polyEvalAsc(p []byte, x byte) byte {
	var y byte
	for i := len(p) - 1; i >= 0; i-- {
		y = gfMul(y, x) ^ p[i]
	}
	return y
}

// RSSector adapts an RS code to the SectorCodec interface: the sector's
// bytes are the data symbols of a single codeword.
type RSSector struct {
	rs *RS
}

// NewRSSector builds a sector codec protecting sectorBytes with
// paritySymbols parity bytes in one RS codeword.
func NewRSSector(sectorBytes, paritySymbols int) (*RSSector, error) {
	rs, err := NewRS(sectorBytes+paritySymbols, sectorBytes)
	if err != nil {
		return nil, err
	}
	return &RSSector{rs: rs}, nil
}

// RS exposes the underlying code (for the tagged variant and tests).
func (s *RSSector) RS() *RS { return s.rs }

// Name identifies the codec, e.g. "rs-36/32".
func (s *RSSector) Name() string { return fmt.Sprintf("rs-%d/%d", s.rs.n, s.rs.k) }

// SectorBytes reports the protected sector size.
func (s *RSSector) SectorBytes() int { return s.rs.k }

// RedundancyBytes reports parity bytes per sector.
func (s *RSSector) RedundancyBytes() int { return s.rs.ParitySymbols() }

// Encode computes the parity bytes for the sector.
func (s *RSSector) Encode(sector []byte) []byte { return s.rs.Encode(sector) }

// EncodeInto appends the sector's parity bytes to dst and returns the
// extended slice; it does not allocate when dst has capacity.
func (s *RSSector) EncodeInto(dst, sector []byte) []byte { return s.rs.EncodeInto(dst, sector) }

// Decode verifies and corrects the sector in place. It does not allocate.
func (s *RSSector) Decode(sector, redundancy []byte) Result {
	return s.rs.Decode(sector, redundancy)
}

var _ SectorCodec = (*RSSector)(nil)
