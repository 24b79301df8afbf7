package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"cachecraft/internal/version"
)

// environment records what the figures depend on: scheduler and GC
// settings (recorded, never tuned), CPU, toolchain, source identity and
// the filesystem the stores and journals write to.
func environment(tmp string) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "default (100)"
	}
	return map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"num_cpu":       runtime.NumCPU(),
		"gogc":          gogc,
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"sim_revision":  version.String(),
		"tmp_dir":       tmp,
		"tmp_fs":        fsType(tmp),
		"time_source":   "CPU time (clock_gettime process/thread clocks), calibrated; raw wall-clock figures in the report",
		"sim_time_unit": "simulated GPU cycles",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown (" + runtime.GOARCH + ")"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown (" + runtime.GOARCH + ")"
}

// commit names the source the binary was built from: the VCS revision
// when the build saw one, else a SHA-256 over the module's Go sources and
// go.mod files under the working directory (benchmark checkouts are not
// git repositories).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	n := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		if _, err := io.Copy(h, f); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil || n == 0 {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir (statfs magic numbers).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("%#x", st.Type)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's CPU time (all threads, steal excluded).
func cpuTime() time.Duration { return clock(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadCPU is the calling thread's CPU time; the caller holds
// runtime.LockOSThread so the goroutine stays on that thread.
func threadCPU() time.Duration { return clock(3) } // CLOCK_THREAD_CPUTIME_ID

func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// calibNominal is the calibration kernel's CPU time on the reference
// host (Intel Xeon, 2 vCPUs). CPU time already excludes steal, but on a
// shared host the core itself runs slower or faster from one minute to
// the next (sibling threads, clocks): the kernel's CPU time moved by up
// to a fifth between runs. So every end-to-end host time is multiplied by
// calibNominal / the median kernel time sampled during the same phase,
// which halved the run-to-run spread of sim-coalesced's throughput while
// a change to the program still shows. Raw figures go to the report.
const calibNominal = 0.0065

// calibTable is the kernel's 512 KiB working set. It fits the core's
// private caches, so the kernel tracks core speed rather than
// last-level-cache contention.
var calibTable = make([]uint64, 1<<16)

// calibration holds the kernel's CPU times, sampled between operations.
type calibration struct{ cpu []float64 }

// sample records n kernel samples. Each runs the kernel twice on a locked
// thread — the first run reloads calibTable into the caches — and records
// the second run's thread CPU time. The kernel is 2M xorshift-driven
// read-modify-writes over calibTable, independent of any repository code.
func (c *calibration) sample(n int) {
	for ; n > 0; n-- {
		c.cpu = append(c.cpu, kernel())
	}
}

func kernel() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var d time.Duration
	for rep := 0; rep < 2; rep++ {
		x := uint64(88172645463325252)
		c0 := threadCPU()
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			calibTable[x&(1<<16-1)] += x
		}
		d = threadCPU() - c0
	}
	return d.Seconds()
}

// mark returns the index of the next sample.
func (c *calibration) mark() int { return len(c.cpu) }

// scale converts CPU seconds measured during a phase to reference-host
// seconds, using the samples from lo up to the latest.
func (c *calibration) scale(lo int) float64 { return calibNominal / median(c.cpu[lo:]) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailChunk is the sample count per chunk for tail percentiles: a 99th
// percentile then has ten samples beyond it.
const tailChunk = 1000

// p99 is the median, over consecutive chunks of tailChunk samples in the
// order taken, of each chunk's 99th percentile (the plain 99th percentile
// below two chunks). A burst of slow operations inflates one chunk's tail
// without moving the median chunk.
func p99(xs []float64) float64 {
	if len(xs) < 2*tailChunk {
		return quantile(xs, 0.99)
	}
	var tails []float64
	for i := 0; i+tailChunk <= len(xs); i += tailChunk {
		tails = append(tails, quantile(xs[i:i+tailChunk], 0.99))
	}
	return median(tails)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// secs converts float seconds to a duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one benchmark call into a layer, in host time.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one branch per call.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span under parent (0 = root) and returns its ID.
func (r *spanRecorder) begin(parent int, name string, attrs map[string]any) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(r.t0)), Attrs: attrs,
	})
	return len(r.spans)
}

// end closes span id.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = int64(time.Since(r.t0))
	r.mu.Unlock()
}

func (r *spanRecorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, the count, total time and self time (the
// part of each span's interval its child spans do not cover), in ms.
func (r *spanRecorder) selfTimes() map[string]map[string]float64 {
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]map[string]float64{}
	for _, s := range r.spans {
		e := out[s.Name]
		if e == nil {
			e = map[string]float64{}
			out[s.Name] = e
		}
		e["count"]++
		e["total_ms"] += float64(s.End-s.Start) / 1e6
		e["self_ms"] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}
