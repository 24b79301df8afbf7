package obs

import (
	"reflect"
	"testing"
)

// TestWindowLongerThanRun: every observation lands in the first window,
// so the run produces exactly one sample, stamped at the window start.
func TestWindowLongerThanRun(t *testing.T) {
	p := NewProbes(1_000_000)
	s := p.Series("x", Sum)
	for cy := uint64(0); cy < 500; cy++ {
		s.Add(cy, 2)
	}
	p.Flush()
	d := s.Snapshot()
	if len(d.Samples) != 1 {
		t.Fatalf("samples = %d, want 1 (window outlives the run)", len(d.Samples))
	}
	if got := d.Samples[0]; got.Cycle != 0 || got.Sum != 1000 || got.Count != 500 {
		t.Fatalf("sample = %+v, want {Cycle:0 Sum:1000 Count:500}", got)
	}
	if d.Window != d.BaseWindow {
		t.Fatalf("window %d decimated from base %d with only one sample", d.Window, d.BaseWindow)
	}
}

// TestZeroSampleFlush: a series that never observed anything flushes to
// nothing and is dropped from the snapshot; a nil series is a no-op at
// every method.
func TestZeroSampleFlush(t *testing.T) {
	p := NewProbes(100)
	p.Series("never", Mean)
	touched := p.Series("touched", Sum)
	touched.Add(7, 1)
	p.Flush()
	p.Flush() // double flush must not duplicate the closed window
	snap := p.Snapshot()
	if len(snap) != 1 || snap[0].Name != "touched" {
		t.Fatalf("snapshot = %+v, want only the touched series", snap)
	}
	if len(snap[0].Samples) != 1 {
		t.Fatalf("double flush produced %d samples, want 1", len(snap[0].Samples))
	}

	var nilSeries *Series
	nilSeries.Add(1, 1) // must not panic
	nilSeries.Flush()
	var nilProbes *Probes
	if s := nilProbes.Series("x", Sum); s != nil {
		t.Fatal("nil Probes minted a non-nil Series")
	}
	nilProbes.Flush()
	if snap := nilProbes.Snapshot(); snap != nil {
		t.Fatalf("nil Probes snapshot = %v", snap)
	}
}

// feed drives one deterministic synthetic trace into a fresh series and
// returns its flushed snapshot.
func feed(window uint64, depth int, n uint64) SeriesData {
	p := NewProbesDepth(window, depth)
	s := p.Series("x", Sum)
	for cy := uint64(0); cy < n; cy++ {
		s.Add(cy, float64(cy%13))
	}
	p.Flush()
	return s.Snapshot()
}

// TestDownsamplingDeterminism pins decimation: identical observation
// streams snapshot identically, mass is conserved across merges, the
// effective window is base × 2^k, sample cycles stay strictly
// increasing and window-aligned, and the buffer never exceeds depth.
func TestDownsamplingDeterminism(t *testing.T) {
	const window, depth, n = 10, 16, 10_000
	a := feed(window, depth, n)
	b := feed(window, depth, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical runs snapshot differently:\n%+v\n%+v", a, b)
	}
	if len(a.Samples) > depth {
		t.Fatalf("%d samples exceed depth %d", len(a.Samples), depth)
	}
	if a.Window <= a.BaseWindow {
		t.Fatalf("run of %d cycles at window %d depth %d never decimated (window %d)",
			n, window, depth, a.Window)
	}
	for k := a.Window; k > a.BaseWindow; k /= 2 {
		if k%2 != 0 {
			t.Fatalf("window %d is not base × 2^k (base %d)", a.Window, a.BaseWindow)
		}
	}
	var sum float64
	var count uint64
	for i, s := range a.Samples {
		sum += s.Sum
		count += s.Count
		if i > 0 && s.Cycle <= a.Samples[i-1].Cycle {
			t.Fatalf("sample cycles not increasing: %d then %d", a.Samples[i-1].Cycle, s.Cycle)
		}
		if s.Cycle%a.BaseWindow != 0 {
			t.Fatalf("sample cycle %d not aligned to base window %d", s.Cycle, a.BaseWindow)
		}
	}
	var want float64
	for cy := uint64(0); cy < n; cy++ {
		want += float64(cy % 13)
	}
	if sum != want || count != n {
		t.Fatalf("decimation lost mass: sum %v count %d, want %v %d", sum, count, want, n)
	}
}

// TestModeMismatchPanics: re-registering a series under a different
// aggregation mode is a wiring bug and must fail loudly.
func TestModeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mode mismatch did not panic")
		}
	}()
	p := NewProbes(10)
	p.Series("x", Sum)
	p.Series("x", Mean)
}

// TestSeriesAddZeroAllocs pins the probes-on hot path: after
// construction, Add never allocates — closing windows and decimating
// included — and the nil (probes-off) path is allocation-free too.
func TestSeriesAddZeroAllocs(t *testing.T) {
	p := NewProbesDepth(4, 8)
	s := p.Series("x", Sum)
	var cy uint64
	allocs := testing.AllocsPerRun(10_000, func() {
		s.Add(cy, 1)
		cy += 3 // crosses windows and forces repeated decimation
	})
	if allocs != 0 {
		t.Fatalf("Series.Add allocated %.1f times per op, want 0", allocs)
	}
	var nilSeries *Series
	allocs = testing.AllocsPerRun(1000, func() { nilSeries.Add(1, 1) })
	if allocs != 0 {
		t.Fatalf("nil Series.Add allocated %.1f times per op, want 0", allocs)
	}
}

// TestMeanMode: Mean series report per-observation averages per window.
func TestMeanMode(t *testing.T) {
	p := NewProbes(10)
	s := p.Series("hit_rate", Mean)
	// Window [0,10): 3 hits of 4 accesses. Window [10,20): 1 of 2.
	s.Add(1, 1)
	s.Add(2, 1)
	s.Add(3, 0)
	s.Add(4, 1)
	s.Add(12, 0)
	s.Add(13, 1)
	p.Flush()
	got := s.Snapshot().Values()
	want := []float64{0.75, 0.5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mean values = %v, want %v", got, want)
	}
}
