package obs

import (
	"fmt"
	"sync"
)

// ProbeMode selects how a Series condenses the observations that land in
// one sampling window into a single sample value.
type ProbeMode int

const (
	// Sum reports the total of all values observed in the window —
	// bytes moved, requests issued, lines filled.
	Sum ProbeMode = iota
	// Mean reports the average of all values observed in the window —
	// hit rates (Add 1 for a hit, 0 for a miss), occupancies, latencies.
	Mean
)

// String returns the wire name of the mode ("sum" or "mean").
func (m ProbeMode) String() string {
	if m == Mean {
		return "mean"
	}
	return "sum"
}

// ProbeModeByName is the inverse of ProbeMode.String.
func ProbeModeByName(s string) (ProbeMode, error) {
	switch s {
	case "sum":
		return Sum, nil
	case "mean":
		return Mean, nil
	}
	return 0, fmt.Errorf("unknown probe mode %q", s)
}

// Sample is one condensed sampling window. Cycle is the window's start
// cycle; Sum and Count are the raw accumulators, so samples can be merged
// losslessly during decimation and the mode-appropriate value recomputed
// at any time.
type Sample struct {
	Cycle uint64  `json:"cycle"`
	Sum   float64 `json:"sum"`
	Count uint64  `json:"count"`
}

// Value reports the sample under the given mode: the window total for
// Sum, the per-observation average for Mean (0 when the window is empty).
func (s Sample) Value(mode ProbeMode) float64 {
	if mode == Mean {
		if s.Count == 0 {
			return 0
		}
		return s.Sum / float64(s.Count)
	}
	return s.Sum
}

// DefaultProbeDepth is the per-series sample capacity. The buffer is
// preallocated once; when a run outlives depth windows, adjacent samples
// merge pairwise and the window doubles, so a series of any run length
// costs a fixed amount of memory and its Add path never allocates.
const DefaultProbeDepth = 512

// Series is one probe track: a preallocated sample buffer fed by
// synchronous Add calls at component probe points. Observations falling
// in the same window accumulate into one pending sample; a window closes
// when an observation arrives for a later cycle (cycles at probe points
// are monotonically non-decreasing — the event engine runs in cycle
// order) or when Flush is called.
//
// All methods are nil-safe: components hold *Series fields that stay nil
// when probes are off, so the off cost is one predictable branch per
// probe point — the same contract internal/audit's hooks follow.
//
// Series is not safe for concurrent use; each simulation owns its Probes.
type Series struct {
	name    string
	mode    ProbeMode
	base    uint64 // configured window, cycles
	window  uint64 // current window after decimation (base × 2^k)
	samples []Sample
	cur     Sample
	curEnd  uint64 // first cycle outside the pending window
	open    bool   // cur holds observations
}

// Name reports the series' registered name.
func (s *Series) Name() string { return s.name }

// Add records one observation at the given cycle. Nil-safe and
// allocation-free: the sample buffer is preallocated and decimation
// merges in place.
func (s *Series) Add(cycle uint64, v float64) {
	if s == nil {
		return
	}
	if s.open && cycle >= s.curEnd {
		s.closeWindow()
	}
	if !s.open {
		start := cycle - cycle%s.window
		s.cur = Sample{Cycle: start}
		s.curEnd = start + s.window
		s.open = true
	}
	s.cur.Sum += v
	s.cur.Count++
}

// closeWindow appends the pending sample, decimating first if the buffer
// is full.
func (s *Series) closeWindow() {
	if len(s.samples) == cap(s.samples) {
		s.decimate()
	}
	s.samples = append(s.samples, s.cur)
	s.open = false
}

// decimate halves the buffer by merging adjacent sample pairs (sums and
// counts add; the pair keeps the first sample's cycle) and doubles the
// window. The merge is a pure function of the samples already taken, so
// two identical runs decimate identically — downsampling cannot break
// the determinism guarantee.
func (s *Series) decimate() {
	n := len(s.samples)
	half := (n + 1) / 2
	for i := 0; i < half; i++ {
		m := s.samples[2*i]
		if 2*i+1 < n {
			o := s.samples[2*i+1]
			m.Sum += o.Sum
			m.Count += o.Count
		}
		s.samples[i] = m
	}
	s.samples = s.samples[:half]
	s.window *= 2
}

// Flush closes the pending window, if any. Call once at end of run; a
// series that never observed anything flushes to zero samples.
func (s *Series) Flush() {
	if s == nil || !s.open {
		return
	}
	s.closeWindow()
}

// Snapshot returns the series' data for export. The samples slice is
// copied so the caller may outlive the Series.
func (s *Series) Snapshot() SeriesData {
	out := SeriesData{
		Name:       s.name,
		Mode:       s.mode.String(),
		Window:     s.window,
		BaseWindow: s.base,
		Samples:    append([]Sample(nil), s.samples...),
	}
	return out
}

// SeriesData is the exportable form of one probe track. Window is the
// effective cycles-per-sample after any decimation; BaseWindow is the
// window the probes were configured with.
type SeriesData struct {
	Name       string   `json:"name"`
	Mode       string   `json:"mode"`
	Window     uint64   `json:"window"`
	BaseWindow uint64   `json:"base_window"`
	Samples    []Sample `json:"samples"`
}

// Values reports the mode-adjusted value of every sample, in order.
func (d SeriesData) Values() []float64 {
	mode, err := ProbeModeByName(d.Mode)
	if err != nil {
		mode = Sum
	}
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = s.Value(mode)
	}
	return out
}

// Probes is a simulation's set of probe tracks, created once before the
// run and handed to components via their SetProbes hooks. Registration
// is guarded by a mutex (bench fans simulations out across goroutines,
// and each simulation registers its series at construction time), but
// Series.Add itself is unsynchronized — each engine is single-threaded.
type Probes struct {
	window uint64
	depth  int

	mu     sync.Mutex
	names  []string
	series map[string]*Series
}

// NewProbes returns an empty probe set sampling at the given window (in
// cycles, minimum 1) with DefaultProbeDepth samples per series.
func NewProbes(window uint64) *Probes {
	return NewProbesDepth(window, DefaultProbeDepth)
}

// NewProbesDepth is NewProbes with an explicit per-series sample
// capacity (minimum 2, so decimation always makes room).
func NewProbesDepth(window uint64, depth int) *Probes {
	if window == 0 {
		window = 1
	}
	if depth < 2 {
		depth = 2
	}
	return &Probes{window: window, depth: depth, series: make(map[string]*Series)}
}

// Series returns the track registered under name, creating it on first
// use. Re-registering an existing name returns the same Series; the mode
// must match. Nil-safe: a nil Probes returns a nil Series, whose Add is
// a no-op — components can wire probes unconditionally.
func (p *Probes) Series(name string, mode ProbeMode) *Series {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.series[name]; ok {
		if s.mode != mode {
			panic(fmt.Sprintf("obs: probe series %q re-registered as %v, was %v", name, mode, s.mode))
		}
		return s
	}
	s := &Series{
		name:    name,
		mode:    mode,
		base:    p.window,
		window:  p.window,
		samples: make([]Sample, 0, p.depth),
	}
	p.series[name] = s
	p.names = append(p.names, name)
	return s
}

// Flush closes every series' pending window. Call once after the run.
func (p *Probes) Flush() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, name := range p.names {
		p.series[name].Flush()
	}
}

// Snapshot returns every series' data in registration order, skipping
// series that never observed anything (a probe point that never fired
// adds no track to the timeline).
func (p *Probes) Snapshot() []SeriesData {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SeriesData, 0, len(p.names))
	for _, name := range p.names {
		s := p.series[name]
		if len(s.samples) == 0 && !s.open {
			continue
		}
		out = append(out, s.Snapshot())
	}
	return out
}
