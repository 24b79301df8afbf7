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
type RS struct {
	n, k int
	// encTbl[j][f] is the generator's coefficient of x^(p-1-j) scaled by
	// the feedback symbol f: one LFSR encoder step is a lookup per parity
	// symbol instead of a multiply. encTbl[j][0] is zero.
	encTbl [][256]byte
	// synTbl[j][v] is v·alpha^j: one Horner step of syndrome j.
	synTbl [][256]byte
	// loc[i] is the error locator X_i = alpha^(n-1-i) of codeword position
	// i, and locInv[i] its inverse, the point the Chien search tests.
	loc, locInv []byte
}

// maxSymbols is the longest codeword over GF(2^8), and so also bounds the
// parity count and every polynomial the decoder keeps on its stack.
const maxSymbols = 255

// NewRS constructs an (n,k) Reed–Solomon code. n must be at most 255 and
// greater than k.
func NewRS(n, k int) (*RS, error) {
	if n > maxSymbols || k <= 0 || k >= n {
		return nil, fmt.Errorf("ecc: invalid RS(%d,%d)", n, k)
	}
	// Generator g(x) = Π_{i=0}^{n-k-1} (x - alpha^i).
	gen := []byte{1}
	for i := 0; i < n-k; i++ {
		gen = polyMul(gen, []byte{1, gfAlpha(i)})
	}
	p := n - k
	r := &RS{n: n, k: k, encTbl: make([][256]byte, p), synTbl: make([][256]byte, p),
		loc: make([]byte, n), locInv: make([]byte, n)}
	for j := 0; j < p; j++ {
		for f := 1; f < 256; f++ {
			r.encTbl[j][f] = gfMul(gen[j+1], byte(f))
			r.synTbl[j][f] = gfMul(byte(f), gfAlpha(j))
		}
	}
	for i := 0; i < n; i++ {
		r.loc[i] = gfAlpha(n - 1 - i)
		r.locInv[i] = gfAlpha(-(n - 1 - i))
	}
	return r, nil
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
	base := len(dst)
	for i := 0; i < r.n-r.k; i++ {
		dst = append(dst, 0)
	}
	r.encodeBody(dst[base:], data, nil)
	return dst
}

// encodeBody runs the LFSR division over segments a then b, accumulating
// the remainder into rem (len n-k, zeroed by the caller). Two segments let
// the tagged codec feed tag++data without concatenating. Each step shifts
// the remainder down a symbol while adding the feedback symbol's table
// entries; the leading symbol, which sets the next feedback, stays in a
// register.
func (r *RS) encodeBody(rem []byte, a, b []byte) {
	tbl := r.encTbl[:len(rem)]
	last := len(rem) - 1
	head := rem[0]
	for _, seg := range [2][]byte{a, b} {
		for _, d := range seg {
			f := d ^ head
			head = tbl[0][f]
			if last > 0 {
				head ^= rem[1]
				for j := 1; j < last; j++ {
					rem[j] = rem[j+1] ^ tbl[j][f]
				}
				rem[last] = tbl[last][f]
			}
		}
	}
	rem[0] = head
}

// syndromes evaluates the codeword data++parity at alpha^0..alpha^(p-1)
// into syn (len p) and reports whether any syndrome is nonzero. Symbol
// index i carries weight alpha^((n-1-i)·j) in syndrome j; a zero vector
// means a valid codeword. Each syndrome is its own Horner chain of table
// lookups, independent of the others.
func (r *RS) syndromes(syn, data, parity []byte) bool {
	var any byte
	for j := range syn {
		tbl := &r.synTbl[j]
		var y byte
		for _, c := range data {
			y = tbl[y] ^ c
		}
		for _, c := range parity {
			y = tbl[y] ^ c
		}
		syn[j] = y
		any |= y
	}
	return any != 0
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
	var synBuf [maxSymbols]byte
	syn := synBuf[:p]
	if !r.syndromes(syn, data, parity) {
		return OK
	}
	if len(erasures) > p {
		return Detected
	}

	var lam [maxSymbols + 1]byte
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
	// nerrs, so once nerrs roots are found there are no more.
	var pos [maxSymbols]uint8
	found := 0
	for i, xinv := range r.locInv {
		if polyEvalAsc(lam[:nl], xinv) == 0 {
			pos[found] = uint8(i)
			if found++; found == nerrs {
				break
			}
		}
	}
	if found != nerrs {
		return Detected
	}

	// Forney: Ω(x) = S(x)·Λ(x) mod x^p; e_l = X_l·Ω(X_l⁻¹)/Λ'(X_l⁻¹), where
	// the formal derivative Λ' keeps only Λ's odd-power terms.
	var omega [maxSymbols]byte
	for i := range syn {
		var o byte
		for j := 0; j <= i && j < nl; j++ {
			o ^= gfMul(lam[j], syn[i-j])
		}
		omega[i] = o
	}
	var mag [maxSymbols]byte
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
func (r *RS) locator(lam *[maxSymbols + 1]byte, syn []byte, erasures []int) (nl int, ok bool) {
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
