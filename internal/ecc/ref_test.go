package ecc

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refDecodeErasures is a slice-based errors-and-erasures Reed–Solomon
// decoder written for clarity, not speed: it evaluates syndromes with
// gfAlpha, builds every polynomial as a fresh slice and corrects a copy of
// the codeword. It is the oracle the production decoder is fuzzed against,
// so it must stay independent of RS's precomputed tables.
func refDecodeErasures(r *RS, data, parity []byte, erasures []int) (Result, []int) {
	p := r.n - r.k
	syn := make([]byte, p)
	if !refSyndromes(syn, data, parity) {
		return OK, nil
	}
	if len(erasures) > p {
		return Detected, nil
	}
	cw := make([]byte, 0, r.n)
	cw = append(cw, data...)
	cw = append(cw, parity...)

	// Erasure locator Γ(x) = Π (1 + X_l·x) with X_l = alpha^{n-1-idx},
	// ascending coefficient order, Γ[0] = 1.
	gamma := []byte{1}
	for _, idx := range erasures {
		if idx < 0 || idx >= r.n {
			return Detected, nil
		}
		gamma = polyMulAsc(gamma, []byte{1, gfAlpha(r.n - 1 - idx)})
	}

	lambda := trimAsc(berlekampMassey(syn, gamma, len(erasures)))
	nerrs := len(lambda) - 1 // total located positions incl. erasures
	if nerrs == 0 || 2*(nerrs-len(erasures))+len(erasures) > p {
		return Detected, nil
	}

	// Chien search over all symbol indices.
	positions := make([]int, 0, nerrs)
	for i := 0; i < r.n; i++ {
		if polyEvalAsc(lambda, gfAlpha(-(r.n-1-i))) == 0 {
			positions = append(positions, i)
		}
	}
	if len(positions) != nerrs {
		return Detected, nil
	}

	// Forney: Ω(x) = S(x)·Λ(x) mod x^p; e_l = X_l·Ω(X_l⁻¹)/Λ'(X_l⁻¹).
	omega := polyMulAsc(syn, lambda)[:p]
	deriv := polyDerivAsc(lambda)
	corrected := make([]int, 0, nerrs)
	for _, pos := range positions {
		x := gfAlpha(r.n - 1 - pos)
		xinv := gfInv(x)
		den := polyEvalAsc(deriv, xinv)
		if den == 0 {
			return Detected, nil
		}
		mag := gfMul(x, gfDiv(polyEvalAsc(omega, xinv), den))
		if mag != 0 {
			cw[pos] ^= mag
			corrected = append(corrected, pos)
		}
	}

	// Re-verify: nonzero syndromes mean a miscorrection.
	if refSyndromes(syn, cw[:r.k], cw[r.k:]) {
		return Detected, nil
	}
	copy(data, cw[:r.k])
	copy(parity, cw[r.k:])
	return Corrected, corrected
}

// refSyndromes evaluates data++parity at the first len(syn) powers of
// alpha, one syndrome at a time, and reports whether any is nonzero.
func refSyndromes(syn, data, parity []byte) bool {
	any := false
	for i := range syn {
		x := gfAlpha(i)
		var y byte
		for _, c := range data {
			y = gfMul(y, x) ^ c
		}
		for _, c := range parity {
			y = gfMul(y, x) ^ c
		}
		syn[i] = y
		if y != 0 {
			any = true
		}
	}
	return any
}

// berlekampMassey runs the errors-and-erasures Berlekamp–Massey iteration:
// it is seeded with the erasure locator gamma and processes syndromes
// starting after the erasure count, returning the combined locator Λ(x) in
// ascending order.
func berlekampMassey(syn []byte, gamma []byte, nErasures int) []byte {
	lambda := append([]byte(nil), gamma...)
	prev := append([]byte(nil), gamma...)
	for k := nErasures; k < len(syn); k++ {
		// Discrepancy Δ = Σ_j Λ_j · S_{k-j}.
		delta := syn[k]
		for j := 1; j < len(lambda) && j <= k; j++ {
			delta ^= gfMul(lambda[j], syn[k-j])
		}
		// prev ← x·prev.
		prev = append([]byte{0}, prev...)
		if delta == 0 {
			continue
		}
		if len(prev) > len(lambda) {
			next := scaleAsc(prev, delta)
			prev = scaleAsc(lambda, gfInv(delta))
			lambda = next
			// Fall through to add delta·prev (= old lambda) below.
		}
		lambda = addAsc(lambda, scaleAsc(prev, delta))
	}
	return lambda
}

func scaleAsc(p []byte, c byte) []byte {
	out := make([]byte, len(p))
	for i, v := range p {
		out[i] = gfMul(v, c)
	}
	return out
}

func addAsc(a, b []byte) []byte {
	out := make([]byte, max(len(a), len(b)))
	copy(out, a)
	for i, v := range b {
		out[i] ^= v
	}
	return out
}

// trimAsc removes trailing zero coefficients (the high-degree end in
// ascending order), keeping at least the constant term.
func trimAsc(p []byte) []byte {
	end := len(p)
	for end > 1 && p[end-1] == 0 {
		end--
	}
	return p[:end]
}

// polyMulAsc multiplies polynomials with ascending-order coefficients.
func polyMulAsc(a, b []byte) []byte {
	out := make([]byte, len(a)+len(b)-1)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			out[i+j] ^= gfMul(ca, cb)
		}
	}
	return out
}

// polyDerivAsc returns the formal derivative of an ascending-order
// polynomial; in characteristic 2 the even-power terms vanish.
func polyDerivAsc(p []byte) []byte {
	if len(p) <= 1 {
		return []byte{0}
	}
	out := make([]byte, len(p)-1)
	for i := 1; i < len(p); i += 2 {
		out[i-1] = p[i]
	}
	return out
}

func TestPolyAscHelpers(t *testing.T) {
	f := func(a, b [4]byte, x byte) bool {
		prod := polyMulAsc(a[:], b[:])
		return polyEvalAsc(prod, x) == gfMul(polyEvalAsc(a[:], x), polyEvalAsc(b[:], x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrimAsc(t *testing.T) {
	if got := trimAsc([]byte{1, 2, 0, 0}); len(got) != 2 {
		t.Fatalf("trim = %v", got)
	}
	if got := trimAsc([]byte{0, 0}); len(got) != 1 {
		t.Fatalf("trim all-zero = %v, want constant term kept", got)
	}
}

// refCodes are the geometries the decoder is checked on: the sector codes
// Table 3 and chipkill use, a wider and a narrower parity budget, a short
// code and the CCSDS whole-line code.
var refCodes = [][2]int{{36, 32}, {34, 32}, {40, 32}, {33, 32}, {10, 4}, {255, 223}}

// checkAgainstRef builds a codeword and corrupts it as the bytes of in
// direct, then decodes it with the production decoder and the reference,
// with and without erasures, and fails on any difference in Result,
// corrected positions or output bytes. Bytes of in are consumed as: code
// selector, error count, erasure count, then per error a position and a
// magnitude, per erasure a position and a magnitude (zero leaves the
// erased symbol intact); the data comes from a generator seeded by the
// rest. Counts run from 0 to p+1, erasure positions may repeat or fall
// one past the codeword.
func checkAgainstRef(t *testing.T, in []byte) {
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}
	g := refCodes[int(next())%len(refCodes)]
	r, err := NewRS(g[0], g[1])
	if err != nil {
		t.Fatal(err)
	}
	p := r.ParitySymbols()
	nErr := int(next()) % (p + 2)
	nErase := int(next()) % (p + 2)
	corrupt := func(d, par []byte, pos int, mag byte) {
		if pos < r.k {
			d[pos] ^= mag
		} else if pos < r.n {
			par[pos-r.k] ^= mag
		}
	}
	type hit struct {
		pos int
		mag byte
	}
	errs := make([]hit, nErr)
	for i := range errs {
		errs[i] = hit{int(next()) % r.n, next()}
	}
	erasures := make([]int, nErase)
	eraseMags := make([]byte, nErase)
	for i := range erasures {
		erasures[i] = int(next()) % (r.n + 1)
		eraseMags[i] = next()
	}
	var seed int64
	for _, b := range in {
		seed = seed*131 + int64(b)
	}
	data := make([]byte, r.k)
	rand.New(rand.NewSource(seed)).Read(data)
	parity := r.Encode(data)
	if refSyndromes(make([]byte, p), data, parity) {
		t.Fatalf("RS(%d,%d): Encode made a word with nonzero syndromes", r.n, r.k)
	}
	for _, h := range errs {
		corrupt(data, parity, h.pos, h.mag)
	}
	for i, pos := range erasures {
		corrupt(data, parity, pos, eraseMags[i])
	}

	for _, era := range [][]int{nil, erasures} {
		checkLocator(t, r, data, parity, era)

		gotD, gotP := append([]byte(nil), data...), append([]byte(nil), parity...)
		wantD, wantP := append([]byte(nil), data...), append([]byte(nil), parity...)
		var got Result
		var gotFixed []int
		if era == nil {
			got = r.Decode(gotD, gotP)
		} else {
			got, gotFixed = r.DecodeErasures(gotD, gotP, era)
		}
		want, wantFixed := refDecodeErasures(r, wantD, wantP, era)
		if era == nil {
			wantFixed = nil
		}
		if got != want || !slices.Equal(gotFixed, wantFixed) ||
			!bytes.Equal(gotD, wantD) || !bytes.Equal(gotP, wantP) {
			t.Fatalf("RS(%d,%d) errors %v erasures %v: got %v %v, reference %v %v (bytes equal: %v)",
				r.n, r.k, errs, era, got, gotFixed, want, wantFixed,
				bytes.Equal(gotD, wantD) && bytes.Equal(gotP, wantP))
		}
	}
}

// checkLocator compares the Berlekamp–Massey locator, untrimmed, with the
// reference iteration's: equal lengths mean equal swap decisions.
func checkLocator(t *testing.T, r *RS, data, parity []byte, erasures []int) {
	syn := make([]byte, r.n-r.k)
	if !refSyndromes(syn, data, parity) || len(erasures) > len(syn) {
		return
	}
	gamma := []byte{1}
	for _, idx := range erasures {
		if idx < 0 || idx >= r.n {
			return
		}
		gamma = polyMulAsc(gamma, []byte{1, gfAlpha(r.n - 1 - idx)})
	}
	want := berlekampMassey(syn, gamma, len(erasures))
	var lam [maxParity + 1]byte
	nl, ok := r.locator(&lam, syn, erasures)
	if !ok || !bytes.Equal(lam[:nl], want) {
		t.Fatalf("RS(%d,%d) erasures %v: locator %x, reference %x", r.n, r.k, erasures, lam[:nl], want)
	}
}

// FuzzRSDecode checks the table-driven decoder against the reference on
// arbitrary codes, error patterns and erasure lists.
func FuzzRSDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 5, 0x42})                             // one error in RS(36,32)
	f.Add([]byte{0, 2, 0, 5, 0x42, 30, 0x99})                   // two errors: t=2
	f.Add([]byte{0, 3, 0, 1, 1, 2, 2, 3, 3})                    // three: beyond t
	f.Add([]byte{0, 0, 4, 1, 9, 7, 0, 20, 1, 35, 0xff})         // four erasures, one intact
	f.Add([]byte{0, 1, 2, 9, 9, 3, 1, 3, 1})                    // repeated erasure plus an error
	f.Add([]byte{1, 2, 1, 0, 1, 33, 2, 34, 0})                  // RS(34,32), erasure past the end
	f.Add([]byte{5, 17, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6}) // RS(255,223) past t
	f.Fuzz(checkAgainstRef)
}

// TestRSDecodeMatchesReference runs the fuzz check over a deterministic
// sample of inputs, so plain go test covers many patterns per code.
func TestRSDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := make([]byte, 96)
	for trial := 0; trial < 6000; trial++ {
		rng.Read(in)
		in[0] = byte(trial % len(refCodes))
		checkAgainstRef(t, in)
	}
}
