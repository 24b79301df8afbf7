package main

import (
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cachecraft/internal/bench"
	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/store"
)

// timedStore is the bench.ResultStore the benchmark hands to runners: it
// times every call into store.Store and remembers what each Save wrote,
// so a sweep's cold cells can be counted in accesses and simulated
// cycles.
type timedStore struct {
	inner bench.ResultStore
	spans *spanRecorder

	mu      sync.Mutex
	parent  int
	lookups []float64 // wall ms, every Lookup
	hitCPU  []float64 // thread CPU ms, Lookups that hit
	saves   []float64 // wall ms
	saved   []savedCell
}

type savedCell struct {
	accesses float64
	cycles   float64
}

func newTimedStore(inner bench.ResultStore, spans *spanRecorder) *timedStore {
	return &timedStore{inner: inner, spans: spans}
}

// under parents later calls' spans to span id.
func (t *timedStore) under(id int) {
	t.mu.Lock()
	t.parent = id
	t.mu.Unlock()
}

func (t *timedStore) Lookup(cfg config.GPU, workload, scheme string) (gpu.Result, bool) {
	t.mu.Lock()
	parent := t.parent
	t.mu.Unlock()
	id := t.spans.begin(parent, "store.Lookup", nil)
	runtime.LockOSThread()
	t0, c0 := time.Now(), threadCPU()
	res, ok := t.inner.Lookup(cfg, workload, scheme)
	c := ms(threadCPU() - c0)
	d := ms(time.Since(t0))
	runtime.UnlockOSThread()
	t.spans.end(id)
	t.mu.Lock()
	t.lookups = append(t.lookups, d)
	if ok {
		t.hitCPU = append(t.hitCPU, c)
	}
	t.mu.Unlock()
	return res, ok
}

func (t *timedStore) Save(cfg config.GPU, workload, scheme string, res gpu.Result) error {
	t.mu.Lock()
	parent := t.parent
	t.mu.Unlock()
	id := t.spans.begin(parent, "store.Save", nil)
	t0 := time.Now()
	err := t.inner.Save(cfg, workload, scheme, res)
	d := ms(time.Since(t0))
	t.spans.end(id)
	t.mu.Lock()
	t.saves = append(t.saves, d)
	t.saved = append(t.saved, savedCell{accesses: accessesOf(cfg), cycles: float64(res.Cycles)})
	t.mu.Unlock()
	return err
}

// setStoreMetrics reports the store's call latencies.
func (t *timedStore) setStoreMetrics(b *benchRun) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lookups) > 0 {
		b.set("store.lookup_ms_p50", quantile(t.lookups, 0.5))
		b.set("store.lookup_ms_p99", quantile(t.lookups, 0.99))
	}
	if len(t.saves) > 0 {
		b.set("store.save_ms_p50", quantile(t.saves, 0.5))
		b.set("store.save_ms_p99", quantile(t.saves, 0.99))
	}
	b.report["store_samples"] = map[string]int{"lookups": len(t.lookups), "saves": len(t.saves)}
}

// setBenchMetrics reports the runner's accounting.
func setBenchMetrics(b *benchRun, s bench.Stats) {
	b.set("bench.runs", float64(s.Runs))
	b.set("bench.memo_hits", float64(s.MemoHits))
	b.set("bench.store_hits", float64(s.StoreHits))
}

// addStats sums the counts setBenchMetrics reports.
func addStats(a, s bench.Stats) bench.Stats {
	a.Runs += s.Runs
	a.MemoHits += s.MemoHits
	a.StoreHits += s.StoreHits
	return a
}

// hitSamples is the number of warm lookups a sim run times: ten chunks
// for p99.
const hitSamples = 10 * tailChunk

// simWarmPhase serves a sim workload's cells warm: their results are
// saved to a fresh store.Store, then fresh bench.Runners (empty memo) read
// them back through the store, each read timed, until hitSamples reads.
// Read times cluster by cell (record sizes differ by scheme), so a median
// over the mix would sit between clusters and jump with small shifts:
// hit_ms_p50 is the mean over cells of each cell's median instead.
func simWarmPhase(b *benchRun, cfg config.GPU, cells []cell, refs []gpu.Result) error {
	parent := b.spans.begin(0, "warm-phase", nil)
	defer b.spans.end(parent)
	st, err := store.Open(filepath.Join(b.tmp, "warm-store"))
	if err != nil {
		return err
	}
	ts := newTimedStore(st, b.spans)
	ts.under(parent)
	for i, c := range cells {
		b.op(ts.Save(cfg, c.Workload, c.Scheme, refs[i]))
	}
	want := hitSamples
	if b.o.tiny {
		want = 3 * len(cells)
	}
	var (
		lat    []float64
		byCell = make([][]float64, len(cells))
		total  float64 // process CPU seconds, garbage collection included
		stats  bench.Stats
	)
	// Each read's latency is its thread CPU time: it runs synchronously on
	// this goroutine, locked to its thread, and the host's steal stays out.
	runtime.GC() // start from a collected heap whatever ran before
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	warmCal := b.cal.mark()
	for round := 0; len(lat) < want; round++ {
		if round%20 == 0 {
			b.cal.sample(1)
		}
		r := bench.NewRunner(cfg)
		r.SetWorkers(1)
		r.SetStore(ts)
		for i, c := range cells {
			t0, p0 := threadCPU(), cpuTime()
			res, err := r.Result(bench.Spec{CfgID: "base", Workload: c.Workload, Variant: c.Scheme})
			p1, t1 := cpuTime(), threadCPU()
			b.op(err)
			if err != nil {
				return err
			}
			total += (p1 - p0).Seconds()
			lat = append(lat, ms(t1-t0))
			byCell[i] = append(byCell[i], ms(t1-t0))
			if b.planted("warm") {
				res.Cycles++
			}
			b.check(sameResult(res, refs[i]), "%s: warm store read differs from the simulated result", c)
		}
		stats = addStats(stats, r.Stats())
	}
	b.cal.sample(1)
	b.check(stats.Runs == 0, "warm phase simulated %d cells; want 0", stats.Runs)
	scale := b.cal.scale(warmCal)
	p50 := 0.0
	for _, xs := range byCell {
		p50 += median(xs) / float64(len(byCell))
	}
	b.set("warm_cells_per_s", float64(len(lat))/(total*scale))
	b.set("hit_ms_p50", p50*scale)
	b.set("hit_ms_p99", p99(lat)*scale)
	b.report["warm"] = map[string]any{"hit_samples": len(lat), "process_cpu_s": total, "scale": scale,
		"pooled_p50_ms": median(lat)}
	ts.setStoreMetrics(b)
	setBenchMetrics(b, stats)
	return nil
}
