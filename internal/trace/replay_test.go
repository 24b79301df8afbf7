package trace

import (
	"bytes"
	"io"
	"slices"
	"testing"
	"testing/quick"
)

func TestRecordReplayRoundTrip(t *testing.T) {
	for _, name := range Names() {
		p := DefaultParams(0, 4, 9)
		p.Accesses = 150
		orig, _ := Build(name, p)

		var buf bytes.Buffer
		n, err := Record(orig, &buf)
		if err != nil {
			t.Fatalf("%s: record: %v", name, err)
		}
		if n != p.Accesses {
			t.Fatalf("%s: recorded %d", name, n)
		}

		replay, err := NewReplayer(name, &buf, p.FootprintBytes)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := Build(name, p)
		count := 0
		for {
			want, okW := fresh.Next()
			got, okG := replay.Next()
			if okW != okG {
				t.Fatalf("%s: stream lengths differ at %d", name, count)
			}
			if !okW {
				break
			}
			if got.PC != want.PC || got.Write != want.Write ||
				got.Dependent != want.Dependent || got.Bytes != want.Bytes ||
				got.ComputeWeight != want.ComputeWeight || len(got.Addrs) != len(want.Addrs) {
				t.Fatalf("%s: access %d metadata differs: %+v vs %+v", name, count, got, want)
			}
			for i := range want.Addrs {
				if got.Addrs[i] != want.Addrs[i] {
					t.Fatalf("%s: access %d addr %d: %#x vs %#x",
						name, count, i, got.Addrs[i], want.Addrs[i])
				}
			}
			count++
		}
		if err := replay.Err(); err != nil {
			t.Fatalf("%s: replay error: %v", name, err)
		}
	}
}

func TestReplayerRejectsBadMagic(t *testing.T) {
	if _, err := NewReplayer("x", bytes.NewReader([]byte("NOTATRACE123")), 1<<20); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReplayer("x", bytes.NewReader(nil), 1<<20); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestReplayerDetectsTruncation(t *testing.T) {
	p := DefaultParams(0, 1, 1)
	p.Accesses = 10
	w, _ := Build("stream", p)
	var buf bytes.Buffer
	if _, err := Record(w, &buf); err != nil {
		t.Fatal(err)
	}
	// Chop the last few bytes.
	data := buf.Bytes()[:buf.Len()-3]
	replay, err := NewReplayer("x", bytes.NewReader(data), p.FootprintBytes)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := replay.Next(); !ok {
			break
		}
	}
	if replay.Err() == nil {
		t.Fatal("truncation not reported")
	}
}

func TestReplayerRejectsOutOfFootprintAddresses(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(Access{PC: 1, Bytes: 4, Addrs: []uint64{1 << 40}}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	replay, err := NewReplayer("x", &buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := replay.Next(); ok {
		t.Fatal("out-of-footprint address accepted")
	}
	if replay.Err() == nil {
		t.Fatal("no error reported")
	}
}

func TestWriterRejectsEmptyAccess(t *testing.T) {
	tw, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(Access{}); err == nil {
		t.Fatal("empty access accepted")
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTraceIsCompact(t *testing.T) {
	// Delta encoding should keep coalesced accesses small: a stream access
	// (32 ascending addresses) must average well under 8 bytes/address.
	p := DefaultParams(0, 1, 1)
	p.Accesses = 1000
	w, _ := Build("stream", p)
	var buf bytes.Buffer
	if _, err := Record(w, &buf); err != nil {
		t.Fatal(err)
	}
	perAddr := float64(buf.Len()) / float64(1000*WarpSize)
	if perAddr > 2.0 {
		t.Fatalf("trace too large: %.2f bytes/address", perAddr)
	}
}

func TestReplayerAccessors(t *testing.T) {
	p := DefaultParams(0, 1, 1)
	p.Accesses = 3
	w, _ := Build("stream", p)
	var buf bytes.Buffer
	if _, err := Record(w, &buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReplayer("mytrace", &buf, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "mytrace" {
		t.Fatalf("name = %q", r.Name())
	}
	if r.Footprint() != 12345 {
		t.Fatalf("footprint = %d", r.Footprint())
	}
}

func TestWorkloadFootprintAccessor(t *testing.T) {
	p := DefaultParams(0, 1, 1)
	w, _ := Build("bfs", p)
	if w.Footprint() != p.FootprintBytes {
		t.Fatalf("footprint = %d", w.Footprint())
	}
}

// errWriter fails after n bytes, exercising writer error paths.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > e.n {
		p = p[:e.n]
	}
	e.n -= len(p)
	return len(p), nil
}

func TestWriterPropagatesIOErrors(t *testing.T) {
	if _, err := NewWriter(&errWriter{n: 2}); err == nil {
		// Header is buffered; the error may surface at flush instead.
		w, _ := NewWriter(&errWriter{n: 2})
		if w != nil {
			_ = w.Write(Access{PC: 1, Bytes: 4, Addrs: []uint64{0}})
			if err := w.Flush(); err == nil {
				t.Fatal("flush on a failing writer must error")
			}
		}
	}
}

func TestReplayerTruncatedMidRecordVariants(t *testing.T) {
	// Build one valid record, then truncate at several byte offsets; every
	// cut must surface an error, never a bogus access.
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Write(Access{PC: 7, Write: true, Bytes: 4, ComputeWeight: 2,
		Addrs: []uint64{100, 200, 300}}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 9; cut < len(full); cut++ { // keep the 8-byte magic intact
		r, err := NewReplayer("x", bytes.NewReader(full[:cut]), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Next(); ok {
			t.Fatalf("cut at %d yielded an access", cut)
		}
		if r.Err() == nil && cut > 9 {
			// A cut exactly at the record boundary reads as clean EOF;
			// everything shorter must error.
			if cut < len(full) {
				t.Fatalf("cut at %d silently ended", cut)
			}
		}
	}
}

// FuzzReplayer decodes arbitrary bytes as a trace. Every access it yields
// must be in bounds (1–WarpSize addresses inside the footprint, a width of
// 1–MaxAccessBytes, a compute weight of at most MaxComputeWeight), the
// stream must end within one record per input byte, and the accesses
// must survive a Writer round trip unchanged.
func FuzzReplayer(f *testing.F) {
	p := DefaultParams(0, 4, 9)
	p.Accesses = 6
	for _, name := range []string{"stream", "histogram", "bfs"} {
		w, err := Build(name, p)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := Record(w, &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("CCTRACE1"))
	footprint := p.FootprintBytes
	f.Fuzz(func(t *testing.T, data []byte) {
		replay, err := NewReplayer("fuzz", bytes.NewReader(data), footprint)
		if err != nil {
			return
		}
		var out bytes.Buffer
		tw, err := NewWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		var got []Access
		for {
			a, ok := replay.Next()
			if !ok {
				break
			}
			if len(got) > len(data) {
				t.Fatalf("%d accesses from %d bytes", len(got), len(data))
			}
			if len(a.Addrs) == 0 || len(a.Addrs) > WarpSize || a.Bytes < 1 || a.Bytes > MaxAccessBytes ||
				a.ComputeWeight < 0 || a.ComputeWeight > MaxComputeWeight {
				t.Fatalf("access out of bounds: %+v", a)
			}
			for _, addr := range a.Addrs {
				if addr >= footprint {
					t.Fatalf("address %#x outside footprint", addr)
				}
			}
			if err := tw.Write(a); err != nil {
				t.Fatalf("writer rejects a replayed access %+v: %v", a, err)
			}
			a.Addrs = append([]uint64(nil), a.Addrs...)
			got = append(got, a)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := NewReplayer("again", &out, footprint)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range got {
			a, ok := again.Next()
			if !ok || a.PC != want.PC || a.Write != want.Write || a.Dependent != want.Dependent ||
				a.Bytes != want.Bytes || a.ComputeWeight != want.ComputeWeight || !slices.Equal(a.Addrs, want.Addrs) {
				t.Fatalf("access %d round-trips as %+v (ok %v), want %+v", i, a, ok, want)
			}
		}
		if _, ok := again.Next(); ok || again.Err() != nil {
			t.Fatalf("round trip has extra records or an error: %v", again.Err())
		}
	})
}
