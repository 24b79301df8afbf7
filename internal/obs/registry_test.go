package obs

import (
	"bufio"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second family").Add(7)
	c := r.CounterVec("a_total", "first family", "endpoint", "code")
	c.With("sweep", "200").Add(2)
	c.With("simulate", "200").Inc()
	g := r.GaugeVec("depth", "a gauge").With()
	g.Set(3)

	var buf strings.Builder
	r.WritePrometheus(&buf)
	want := `# HELP a_total first family
# TYPE a_total counter
a_total{endpoint="simulate",code="200"} 1
a_total{endpoint="sweep",code="200"} 2
# HELP b_total second family
# TYPE b_total counter
b_total 7
# HELP depth a gauge
# TYPE depth gauge
depth 3
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", 0.1, 1)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10)

	var buf strings.Builder
	r.WritePrometheus(&buf)
	want := `# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 2
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 10.6
lat_seconds_count 4
`
	if buf.String() != want {
		t.Fatalf("histogram exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
}

// TestHistogramEdgeExposition pins the exposition of the two degenerate
// histogram shapes: a histogram that has observed nothing (all-zero
// cumulative buckets, zero sum and count) and one with a single
// observation (every bucket at or above it reads 1, and +Inf equals
// _count). Both are required by the 0.0.4 text format — scrapers divide
// by _count and difference adjacent buckets, so a missing series or a
// non-cumulative rendering silently corrupts rates.
func TestHistogramEdgeExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty_seconds", "never observed", 0.1, 1)
	r.Histogram("single_seconds", "observed once", 0.1, 1).Observe(0.5)

	var buf strings.Builder
	r.WritePrometheus(&buf)
	want := `# HELP empty_seconds never observed
# TYPE empty_seconds histogram
empty_seconds_bucket{le="0.1"} 0
empty_seconds_bucket{le="1"} 0
empty_seconds_bucket{le="+Inf"} 0
empty_seconds_sum 0
empty_seconds_count 0
# HELP single_seconds observed once
# TYPE single_seconds histogram
single_seconds_bucket{le="0.1"} 0
single_seconds_bucket{le="1"} 1
single_seconds_bucket{le="+Inf"} 1
single_seconds_sum 0.5
single_seconds_count 1
`
	if buf.String() != want {
		t.Fatalf("edge-histogram exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
	parseExposition(t, buf.String())
}

// TestLabelValueEscaping pins the three escapes the text format defines
// inside label values — backslash, double-quote, and line feed — and
// nothing else. The old renderer pre-replaced newlines and then quoted
// with %q, double-escaping the backslash (rendering \\n instead of \n)
// and inventing escapes like \t that the format does not define.
func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("esc_total", "escaping", "path")
	c.With("a\nb").Inc()
	c.With(`back\slash`).Add(2)
	c.With(`quo"te`).Add(3)
	c.With("tab\there").Add(4)

	var buf strings.Builder
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`esc_total{path="a\nb"} 1`,
		`esc_total{path="back\\slash"} 2`,
		`esc_total{path="quo\"te"} 3`,
		"esc_total{path=\"tab\there\"} 4", // tab passes through verbatim
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, `\\n`) {
		t.Fatalf("newline double-escaped:\n%s", out)
	}
}

func TestFuncCollectors(t *testing.T) {
	r := NewRegistry()
	n := uint64(0)
	r.CounterFunc("sampled_total", "sampled", func() uint64 { return n })
	r.GaugeFunc("inflight", "live", func() float64 { return 2.5 })
	n = 41

	var buf strings.Builder
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE sampled_total counter\nsampled_total 41\n",
		"# TYPE inflight gauge\ninflight 2.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering x_total as a gauge did not panic")
		}
	}()
	r.GaugeVec("x_total", "x but different")
}

// parseExposition is a minimal exposition-format validator: every sample
// line must be preceded by HELP and TYPE for its family, and each series
// (name + label set, for the base metric name) must appear exactly once.
// It returns the series keys in output order.
func parseExposition(t *testing.T, text string) []string {
	t.Helper()
	help := map[string]bool{}
	typed := map[string]string{}
	seen := map[string]bool{}
	var order []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			help[strings.Fields(rest)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch f[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			typed[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment %q", line)
		}
		// Sample line: name{labels} value | name value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		key := line[:sp]
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && typed[trimmed] == "histogram" {
				base = trimmed
			}
		}
		if !help[base] || typed[base] == "" {
			t.Fatalf("sample %q has no preceding HELP/TYPE for %q", line, base)
		}
		if seen[key] {
			t.Fatalf("duplicate series %q", key)
		}
		seen[key] = true
		order = append(order, key)
	}
	return order
}

func TestExpositionParsesAndIsStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "runs").Add(3)
	r.CounterVec("req_total", "requests", "endpoint").With("simulate").Inc()
	r.HistogramVec("req_seconds", "latency", []float64{0.1, 1}, "endpoint").With("sweep").Observe(0.2)
	r.GaugeFunc("queue", "depth", func() float64 { return 1 })

	var a, b strings.Builder
	r.WritePrometheus(&a)
	order := parseExposition(t, a.String())
	if len(order) == 0 {
		t.Fatal("no samples rendered")
	}
	r.WritePrometheus(&b)
	if a.String() != b.String() {
		t.Fatalf("two renders of an unchanged registry differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestSnapshotMatchesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "runs").Add(5)
	r.CounterVec("req_total", "requests", "endpoint").With("sweep").Add(2)
	g := r.GaugeVec("temp", "can go negative").With()
	g.Set(-4)
	r.Histogram("lat_seconds", "latency", 1).Observe(0.5)
	r.CounterFunc("fn_total", "sampled", func() uint64 { return 9 })

	snap := r.Snapshot()
	for name, want := range map[string]uint64{
		"runs_total":                  5,
		`req_total{endpoint="sweep"}`: 2,
		"temp":                        0, // clamped: Counters is unsigned
		"lat_seconds_count":           1,
		"fn_total":                    9,
	} {
		if got := snap.Get(name); got != want {
			t.Fatalf("snapshot[%s] = %d, want %d\n%s", name, got, want, snap)
		}
	}
	if names := snap.Names(); len(names) != 5 {
		t.Fatalf("snapshot has %d entries, want 5: %v", len(names), names)
	}
}

// TestRegistryRace hammers counters, gauges, histograms, and the renderer
// from 32 goroutines; run under -race this is the concurrency contract.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("ops_total", "ops", "kind")
	g := r.GaugeVec("level", "level").With()
	hv := r.HistogramVec("dur_seconds", "durations", []float64{0.001, 0.01, 0.1}, "kind")
	r.GaugeFunc("fn", "fn", func() float64 { return float64(g.Value()) })

	const goroutines = 32
	const iters = 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kind := fmt.Sprintf("k%d", i%4)
			for j := 0; j < iters; j++ {
				cv.With(kind).Inc()
				g.Add(1)
				hv.With(kind).Observe(float64(j) / 1e4)
				if j%100 == 0 {
					var sink strings.Builder
					r.WritePrometheus(&sink)
					r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()

	var total uint64
	for i := 0; i < 4; i++ {
		total += cv.With(fmt.Sprintf("k%d", i)).Value()
	}
	if total != goroutines*iters {
		t.Fatalf("lost increments: %d, want %d", total, goroutines*iters)
	}
	if g.Value() != goroutines*iters {
		t.Fatalf("gauge = %d, want %d", g.Value(), goroutines*iters)
	}
	var h uint64
	for i := 0; i < 4; i++ {
		h += hv.With(fmt.Sprintf("k%d", i)).Count()
	}
	if h != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", h, goroutines*iters)
	}
}

func TestGaugeVecExposition(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("worker_leases", "live leases by worker", "worker")
	v.With("w1").Add(2)
	v.With("w2").Add(1)
	v.With("w1").Add(-1)
	// Same label value resolves to the same gauge, so deltas accumulate.
	if got := v.With("w1").Value(); got != 1 {
		t.Fatalf("w1 = %d, want 1", got)
	}
	var buf strings.Builder
	r.WritePrometheus(&buf)
	want := `# HELP worker_leases live leases by worker
# TYPE worker_leases gauge
worker_leases{worker="w1"} 1
worker_leases{worker="w2"} 1
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}
