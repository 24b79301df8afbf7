// Command perfbench is the CacheCraft performance benchmark. It drives the
// simulator (gpu.New, Machine.Run) and the harness around it (bench.Runner,
// store.Store, serve.Server, cluster.Coordinator/Worker) from one process,
// checks every result it measures, and prints one JSON result line.
//
// Usage (from the repository root, after building with run.sh):
//
//	perfbench --workload sim-divergent --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it makes
// an untraced and a traced run of the same work and reports the per-layer
// metrics plus the tracing overhead. The metric names and units are read
// from BENCHMARK.json in the working directory. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*benchRun) error{
	"sim-divergent": runSimDivergent,
	"sim-coalesced": runSimCoalesced,
	"sweep-quick":   runSweepQuick,
	"service":       runService,
}

// opts are one run's settings.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a seconds-long smoke size; the
	// self-test uses it. Figures from a tiny run are not comparable.
	tiny bool
	// plant names a correctness check whose input is deliberately
	// corrupted, so the self-test can prove the check fires.
	plant string
	// outDir receives the span file and scratch stores.
	outDir string
}

// benchRun is one run's state: options, correctness accounting, metrics, the
// in-memory span recorder, and the report printed before the result line.
type benchRun struct {
	o       opts
	start   time.Time
	tmp     string
	spans   *spanRecorder
	cal     calibration
	metrics map[string]float64
	report  map[string]any

	attempted int
	failed    int
	problems  []string
}

// op counts one attempted operation; a non-nil err counts it failed.
func (b *benchRun) op(err error) {
	b.attempted++
	if err != nil {
		b.fail(err)
	}
}

// check counts one attempted correctness check.
func (b *benchRun) check(ok bool, format string, args ...any) {
	if ok {
		b.op(nil)
		return
	}
	b.op(fmt.Errorf(format, args...))
}

func (b *benchRun) fail(err error) {
	b.failed++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, err.Error())
	}
}

// planted reports whether the named correctness check should see a
// corrupted input on this run.
func (b *benchRun) planted(name string) bool { return b.o.plant == name }

// set records a metric value.
func (b *benchRun) set(name string, v float64) { b.metrics[name] = v }

// elapsed is the time since the run started.
func (b *benchRun) elapsed() float64 { return time.Since(b.start).Seconds() }

// more reports whether another round of lastDur seconds still fits in the
// run's measuring time.
func (b *benchRun) more(measureStart time.Time, lastDur float64) bool {
	return time.Since(measureStart).Seconds()+lastDur <= b.o.seconds
}

// catalog is the metric list of BENCHMARK.json.
type catalog struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadCatalog(path string) (catalog, error) {
	var c catalog
	raw, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("metric catalog: %w", err)
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("metric catalog %s: %w", path, err)
	}
	return c, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// run executes one workload and returns the result line. A missing metric
// is an error in the benchmark, not a measurement.
func run(o opts, cat catalog, stdout io.Writer) (resultLine, error) {
	drive, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return resultLine{}, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	tmp, err := os.MkdirTemp(o.outDir, "tmp-"+o.workload+"-")
	if err != nil {
		return resultLine{}, err
	}
	defer os.RemoveAll(tmp)
	b := &benchRun{
		o:       o,
		start:   time.Now(),
		tmp:     tmp,
		metrics: map[string]float64{},
		report:  map[string]any{},
	}
	if o.trace {
		b.spans = newSpanRecorder()
	}
	b.report["environment"] = environment(tmp)
	if err := drive(b); err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	b.set("peak_rss_mb", peakRSSMiB())

	defs := cat.EndToEnd
	if o.trace {
		defs = cat.PerLayer
	}
	out := resultLine{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricOut{}}
	var missing []string
	for _, d := range defs {
		v, ok := b.metrics[d.Name]
		if !ok {
			if !o.trace {
				missing = append(missing, d.Name)
				continue
			}
			// A layer this workload never calls reports zero; the
			// report's "exercised" list names the layers it did call.
			v = 0
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return resultLine{}, fmt.Errorf("%s did not measure %s", o.workload, strings.Join(missing, ", "))
	}
	out.Correct = b.failed == 0 && b.attempted > 0
	if o.trace {
		b.report["exercised"] = exercised(b.metrics, cat.PerLayer)
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.ndjson", o.workload, o.seed))
		if err := b.spans.writeFile(path); err != nil {
			return resultLine{}, err
		}
		b.report["spans_file"] = path
		b.report["span_self_time"] = b.spans.selfTimes()
	}
	b.report["calibration"] = map[string]any{"kernel_cpu_s": b.cal.cpu, "nominal_s": calibNominal}
	b.report["problems"] = b.problems
	b.report["wall_s"] = b.elapsed()
	rep, err := json.Marshal(map[string]any{"report": b.report})
	if err != nil {
		return resultLine{}, err
	}
	fmt.Fprintln(stdout, string(rep))
	return out, nil
}

// exercised lists the per-layer metrics this run measured, so a zero can
// be told apart from a layer the workload never calls.
func exercised(m map[string]float64, defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := m[d.Name]; ok {
			out = append(out, d.Name)
		}
	}
	return out
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (config.GPU.Seed)")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files and scratch stores")
	catPath := flag.String("catalog", "BENCHMARK.json", "metric catalog")
	flag.Parse()
	o.trace = traceFlag == 1

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.seconds <= 0 {
		die(fmt.Errorf("--seconds must be positive"))
	}
	cat, err := loadCatalog(*catPath)
	if err != nil {
		die(err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		die(err)
	}
	res, err := run(o, cat, os.Stdout)
	if err != nil {
		die(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		die(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
