package ecc

import (
	"testing"
	"testing/quick"
)

func TestGFTablesConsistent(t *testing.T) {
	for i := 1; i < 256; i++ {
		if gfExp[gfLog[byte(i)]] != byte(i) {
			t.Fatalf("exp(log(%d)) = %d", i, gfExp[gfLog[byte(i)]])
		}
	}
	// alpha^255 == 1.
	if gfExp[255] != gfExp[0] {
		t.Fatal("exp table does not wrap at 255")
	}
}

func TestGFMulProperties(t *testing.T) {
	mulComm := func(a, b byte) bool { return gfMul(a, b) == gfMul(b, a) }
	if err := quick.Check(mulComm, nil); err != nil {
		t.Fatal("multiplication not commutative:", err)
	}
	mulAssoc := func(a, b, c byte) bool {
		return gfMul(gfMul(a, b), c) == gfMul(a, gfMul(b, c))
	}
	if err := quick.Check(mulAssoc, nil); err != nil {
		t.Fatal("multiplication not associative:", err)
	}
	distrib := func(a, b, c byte) bool {
		return gfMul(a, gfAdd(b, c)) == gfAdd(gfMul(a, b), gfMul(a, c))
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Fatal("distributivity fails:", err)
	}
}

func TestGFIdentityAndZero(t *testing.T) {
	for i := 0; i < 256; i++ {
		b := byte(i)
		if gfMul(b, 1) != b {
			t.Fatalf("%d * 1 != %d", b, b)
		}
		if gfMul(b, 0) != 0 {
			t.Fatalf("%d * 0 != 0", b)
		}
	}
}

func TestGFInverse(t *testing.T) {
	for i := 1; i < 256; i++ {
		b := byte(i)
		if gfMul(b, gfInv(b)) != 1 {
			t.Fatalf("%d * inv(%d) != 1", b, b)
		}
	}
}

func TestGFInverseOfZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gfInv(0) must panic")
		}
	}()
	gfInv(0)
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gfDiv(x, 0) must panic")
		}
	}()
	gfDiv(3, 0)
}

func TestGFDiv(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return gfMul(gfDiv(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFPow(t *testing.T) {
	if gfPow(0, 0) != 1 {
		t.Fatal("x^0 must be 1 even for x=0 by convention")
	}
	if gfPow(0, 5) != 0 {
		t.Fatal("0^n must be 0 for n>0")
	}
	for i := 1; i < 20; i++ {
		want := byte(1)
		for j := 0; j < i; j++ {
			want = gfMul(want, 3)
		}
		if got := gfPow(3, i); got != want {
			t.Fatalf("3^%d = %d, want %d", i, got, want)
		}
	}
}

func TestGFAlphaPeriodicity(t *testing.T) {
	for n := -300; n < 600; n++ {
		if gfAlpha(n) != gfAlpha(n+255) {
			t.Fatalf("alpha^%d != alpha^%d", n, n+255)
		}
	}
	if gfAlpha(0) != 1 {
		t.Fatal("alpha^0 must be 1")
	}
}

func TestPolyEvalDescending(t *testing.T) {
	// p(x) = 2x^2 + 3x + 1 at x=1 → 2^3^1 = 0 (XOR in GF(2^8)).
	p := []byte{2, 3, 1}
	if got := polyEval(p, 1); got != 0 {
		t.Fatalf("eval = %d, want 0", got)
	}
	if got := polyEval(p, 0); got != 1 {
		t.Fatalf("eval at 0 = %d, want constant 1", got)
	}
}

func TestPolyMulMatchesEval(t *testing.T) {
	f := func(a, b [3]byte, x byte) bool {
		prod := polyMul(a[:], b[:])
		return polyEval(prod, x) == gfMul(polyEval(a[:], x), polyEval(b[:], x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
