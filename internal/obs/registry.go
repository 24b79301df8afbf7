// Package obs is the repository's telemetry layer: a concurrent metrics
// registry that renders Prometheus text exposition, and a lightweight span
// tracer with an NDJSON exporter (trace.go). It depends only on the
// standard library and internal/stats, so every layer of the system — the
// simulator, the evaluation harness, the HTTP service — can report through
// the same substrate without pulling in third-party clients.
//
// The registry is pull-based: instruments are registered once (Counter,
// Gauge, Histogram, and their label-carrying Vec forms), mutated from any
// goroutine, and rendered on demand with WritePrometheus. Values owned by
// other subsystems (e.g. bench.Runner's accounting) are exposed through
// CounterFunc/GaugeFunc collectors that sample at render time, so the
// exposition can never drift from the owner's source of truth.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cachecraft/internal/stats"
)

// DefBuckets are the default latency histogram bounds, in seconds. They
// span sub-millisecond warm cache hits through multi-second cold
// simulations.
var DefBuckets = []float64{.001, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64, safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments (or with a negative delta decrements) the gauge.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram over float64 samples (typically
// seconds), safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[idx]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count reports the number of samples observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// snapshot returns cumulative bucket counts (ending with the +Inf total),
// the sample sum, and the sample count.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return cum, h.sum, h.count
}

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (metric, label values) time series.
type series struct {
	labels []string // values aligned with the family's label keys
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one metric name: HELP/TYPE metadata plus its series (or a
// sampling function for externally-owned values).
type family struct {
	name      string
	help      string
	kind      metricKind
	labelKeys []string
	buckets   []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
	order  []string // series keys in registration order (rendering sorts)

	counterFn func() uint64  // CounterFunc families
	gaugeFn   func() float64 // GaugeFunc families
}

// Registry holds metric families and renders them as Prometheus text
// exposition. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register returns the family for name, creating it on first use. A
// re-registration must agree on kind and label keys; a mismatch is a
// programming error and panics.
func (r *Registry) register(name, help string, kind metricKind, labelKeys []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !equalStrings(f.labelKeys, labelKeys) {
			panic(fmt.Sprintf("obs: conflicting registration of %q", name))
		}
		return f
	}
	f := &family{
		name:      name,
		help:      help,
		kind:      kind,
		labelKeys: append([]string(nil), labelKeys...),
		buckets:   append([]float64(nil), buckets...),
		series:    make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get returns the series for the given label values, creating it on first
// use. Arity must match the family's label keys.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labelKeys) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelKeys), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: append([]string(nil), values...)}
	switch f.kind {
	case counterKind:
		s.c = &Counter{}
	case gaugeKind:
		s.g = &Gauge{}
	case histogramKind:
		bounds := append([]float64(nil), f.buckets...)
		sort.Float64s(bounds)
		s.h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, counterKind, nil, nil).get(nil).c
}

// Histogram registers (or fetches) an unlabelled histogram with the given
// bucket upper bounds (DefBuckets if none are given).
func (r *Registry) Histogram(name, help string, buckets ...float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return r.register(name, help, histogramKind, nil, buckets).get(nil).h
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a counter family keyed by the given label names.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, counterKind, labelKeys, nil)}
}

// With returns the counter for the given label values (created on first
// use). Arity must match the registered label keys.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a gauge family keyed by the given label names.
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, gaugeKind, labelKeys, nil)}
}

// With returns the gauge for the given label values (created on first
// use). Arity must match the registered label keys.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).g }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a histogram family keyed by the given label
// names, with the given bucket upper bounds (DefBuckets if nil).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, histogramKind, labelKeys, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).h }

// CounterFunc registers a counter whose value is sampled from fn at render
// time — for monotonic values owned by another subsystem. The name must
// not already be registered.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.fams[name]; ok {
		panic(fmt.Sprintf("obs: conflicting registration of %q", name))
	}
	r.fams[name] = &family{name: name, help: help, kind: counterKind, counterFn: fn}
}

// GaugeFunc registers a gauge sampled from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.fams[name]; ok {
		panic(fmt.Sprintf("obs: conflicting registration of %q", name))
	}
	r.fams[name] = &family{name: name, help: help, kind: gaugeKind, gaugeFn: fn}
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries snapshots a family's series in label-value order.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.order))
	for _, key := range f.order {
		out = append(out, f.series[key])
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].labels, "\x00") < strings.Join(out[j].labels, "\x00")
	})
	return out
}

// labelString renders {k1="v1",...} for the given keys/values, with an
// optional extra pair appended (used for histogram le labels). It returns
// "" when there are no labels at all.
func labelString(keys, values []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", k, escapeLabel(values[i]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", extraKey, escapeLabel(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format
// (version 0.0.4), which defines exactly three escapes inside label
// values: backslash, double-quote, and line feed. Anything else — tabs,
// high bytes — passes through verbatim; Go's %q must not be used here
// because it both invents escapes the format does not define and
// double-escapes any pre-escaped backslash.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): families sorted by name, each with one # HELP
// and # TYPE line, series sorted by label values, histograms with
// cumulative le buckets plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		switch {
		case f.counterFn != nil:
			fmt.Fprintf(w, "%s %d\n", f.name, f.counterFn())
		case f.gaugeFn != nil:
			fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.gaugeFn()))
		default:
			for _, s := range f.sortedSeries() {
				switch f.kind {
				case counterKind:
					fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labelKeys, s.labels, "", ""), s.c.Value())
				case gaugeKind:
					fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labelKeys, s.labels, "", ""), s.g.Value())
				case histogramKind:
					cum, sum, count := s.h.snapshot()
					for i, c := range cum {
						le := "+Inf"
						if i < len(s.h.bounds) {
							le = formatFloat(s.h.bounds[i])
						}
						fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labelKeys, s.labels, "le", le), c)
					}
					fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labelKeys, s.labels, "", ""), formatFloat(sum))
					fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labelKeys, s.labels, "", ""), count)
				}
			}
		}
	}
}

// Snapshot flattens the registry into a stats.Counters set: one entry per
// counter/gauge series (negative gauges clamp to zero, since Counters is
// unsigned) and one <name>_count entry per histogram series. Func-backed
// collectors are sampled, so a snapshot agrees with a concurrent
// WritePrometheus render. Families merge into the result via
// stats.Counters.Merge, preserving name order.
func (r *Registry) Snapshot() *stats.Counters {
	out := stats.NewCounters()
	for _, f := range r.sortedFamilies() {
		out.Merge(f.snapshotCounters())
	}
	return out
}

func (f *family) snapshotCounters() *stats.Counters {
	c := stats.NewCounters()
	switch {
	case f.counterFn != nil:
		c.Set(f.name, f.counterFn())
	case f.gaugeFn != nil:
		c.Set(f.name, clampUint(f.gaugeFn()))
	default:
		for _, s := range f.sortedSeries() {
			ls := labelString(f.labelKeys, s.labels, "", "")
			switch f.kind {
			case counterKind:
				c.Set(f.name+ls, s.c.Value())
			case gaugeKind:
				v := s.g.Value()
				if v < 0 {
					v = 0
				}
				c.Set(f.name+ls, uint64(v))
			case histogramKind:
				c.Set(f.name+"_count"+ls, s.h.Count())
			}
		}
	}
	return c
}

func clampUint(v float64) uint64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return uint64(v)
}
