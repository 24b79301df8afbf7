package cachecraft

import (
	"context"
	"io"

	"cachecraft/internal/gpu"
	"cachecraft/internal/schemes"
	"cachecraft/internal/trace"
)

// Trace recording and replay: the simulator's workloads are an interface,
// so externally-captured access traces plug in alongside the built-in
// synthetic generators.

// Access is one warp-level memory instruction (up to 32 thread addresses).
type Access = trace.Access

// Workload is a finite stream of warp accesses for one SM.
type Workload = trace.Workload

// WorkloadSource supplies one workload per SM for RunCustom.
type WorkloadSource = gpu.WorkloadSource

// BuildWorkload constructs one SM's slice of a named synthetic workload
// (for recording or inspection).
func BuildWorkload(name string, smID, numSMs int, seed int64, accesses int, footprint uint64) (Workload, error) {
	return trace.Build(name, trace.Params{
		SMID:           smID,
		NumSMs:         numSMs,
		Seed:           seed,
		Accesses:       accesses,
		FootprintBytes: footprint,
	})
}

// RecordTrace serializes a workload's access stream to the compact binary
// trace format, returning the number of accesses written.
func RecordTrace(w Workload, out io.Writer) (int, error) {
	return trace.Record(w, out)
}

// NewTraceReplayer opens a serialized trace as a Workload. footprint
// declares the logical extent the trace's addresses live in.
func NewTraceReplayer(name string, r io.Reader, footprint uint64) (Workload, error) {
	return trace.NewReplayer(name, r, footprint)
}

// RunCustom simulates caller-supplied workloads (one per SM) under the
// named protection scheme. The result is labelled workload "custom".
func RunCustom(cfg Config, scheme string, src WorkloadSource) (Result, error) {
	factory, err := schemes.ByName(scheme)
	if err != nil {
		return Result{}, err
	}
	return gpu.Simulate(context.Background(), cfg, "custom", scheme, factory, src, gpu.Observers{})
}
