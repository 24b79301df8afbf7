package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// layers are the packages the per-layer metrics are named after. Time or
// allocations in any other cachecraft/internal package (stats, mem,
// layout, obs, ...) are charged to the nearest enclosing layer frame, so a
// counter bump inside the DRAM model counts as DRAM work.
var layers = []string{"sim", "trace", "gpu", "cache", "xbar", "dram", "protect", "core", "bench", "store", "serve", "cluster"}

var isLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

const repoPrefix = "cachecraft/internal/"

// layerOf maps a function name to its layer, or "" when it is outside
// every layer package.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	rest := fn[len(repoPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if isLayer[rest] {
		return rest
	}
	return ""
}

// gcFrames mark garbage-collector work: background marking and sweeping
// and allocation-time assists. A sample with any of them on its stack is
// GC time wherever it was taken.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcStart"}

func isGC(fn string) bool {
	for _, g := range gcFrames {
		if fn == g {
			return true
		}
	}
	return false
}

// cpuProfile collects a CPU profile in memory between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// attribution is a sample (or allocation) count per layer, plus GC and
// everything else. The buckets partition the total.
type attribution struct {
	byLayer map[string]float64
	gc      float64
	other   float64
	total   float64
}

func newAttribution() *attribution { return &attribution{byLayer: map[string]float64{}} }

// charge attributes weight w to the innermost layer frame of a stack given
// innermost-first.
func (a *attribution) charge(frames []string, w float64) {
	a.total += w
	for _, f := range frames {
		if isGC(f) {
			a.gc += w
			return
		}
	}
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			a.byLayer[l] += w
			return
		}
	}
	a.other += w
}

// stop ends the profile and charges every sample.
func (p *cpuProfile) stop() (*attribution, error) {
	pprof.StopCPUProfile()
	return attributeCPU(p.buf.Bytes())
}

// attributeCPU decodes a gzipped pprof protobuf (runtime/pprof's output)
// far enough to charge each sample's count to a layer.
func attributeCPU(gz []byte) (*attribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}    // function id → string index
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, d)
				case 2:
					vals = appendVarints(vals, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	a := newAttribution()
	var frames []string
	for _, s := range samples {
		frames = frames[:0]
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		a.charge(frames, float64(s.count))
	}
	return a, nil
}

// appendVarints appends a repeated varint field given either unpacked (v)
// or packed (d) encoding.
func appendVarints(dst []uint64, v uint64, d []byte) []uint64 {
	if d == nil {
		return append(dst, v)
	}
	for len(d) > 0 {
		x, n := binary.Uvarint(d)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		d = d[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// fields walks one protobuf message, calling fn with each field number and
// either its varint value (data == nil) or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// heapSnapshot is the cumulative allocation count per allocation stack.
type heapSnapshot map[[32]uintptr]int64

// takeHeapSnapshot reads the heap profile after forcing the GC cycles the
// runtime needs to publish every allocation made so far.
func takeHeapSnapshot() heapSnapshot {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	s := heapSnapshot{}
	for _, r := range recs {
		s[r.Stack0] += r.AllocObjects
	}
	return s
}

// chargeAllocs attributes the allocations made between before and after
// to layers. It is exact only while runtime.MemProfileRate is 1.
func chargeAllocs(a *attribution, before, after heapSnapshot) {
	var frames []string
	for stk, n := range after {
		d := n - before[stk]
		if d <= 0 {
			continue
		}
		frames = frames[:0]
		pcs := stk[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		it := runtime.CallersFrames(pcs)
		for {
			f, more := it.Next()
			frames = append(frames, f.Function)
			if !more {
				break
			}
		}
		a.charge(frames, float64(d))
	}
}
