package cachecraft

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"
)

// TestReplayMatchesDirectRun: replaying a recorded workload must produce
// exactly the same simulation results as running the generator directly.
func TestReplayMatchesDirectRun(t *testing.T) {
	cfg := quickCfg()

	direct, err := Run(cfg, "scan", "cachecraft")
	if err != nil {
		t.Fatal(err)
	}

	// Record each SM's stream.
	recorded := make([]*bytes.Buffer, cfg.NumSMs)
	for sm := 0; sm < cfg.NumSMs; sm++ {
		w, err := BuildWorkload("scan", sm, cfg.NumSMs, cfg.Seed,
			cfg.AccessesPerSM, cfg.FootprintBytes)
		if err != nil {
			t.Fatal(err)
		}
		recorded[sm] = &bytes.Buffer{}
		if _, err := RecordTrace(w, recorded[sm]); err != nil {
			t.Fatal(err)
		}
	}

	replayed, err := RunCustom(cfg, "cachecraft", func(smID, numSMs int) (Workload, error) {
		return NewTraceReplayer("scan-replay", bytes.NewReader(recorded[smID].Bytes()),
			cfg.FootprintBytes)
	})
	if err != nil {
		t.Fatal(err)
	}

	if replayed.Cycles != direct.Cycles {
		t.Fatalf("cycles differ: replay %d vs direct %d", replayed.Cycles, direct.Cycles)
	}
	if replayed.Instructions != direct.Instructions {
		t.Fatalf("instructions differ: %d vs %d", replayed.Instructions, direct.Instructions)
	}
	for k, v := range direct.DRAMBytes {
		if replayed.DRAMBytes[k] != v {
			t.Fatalf("traffic %s differs: %d vs %d", k, replayed.DRAMBytes[k], v)
		}
	}
}

func TestRunCustomValidatesFootprint(t *testing.T) {
	cfg := quickCfg()
	_, err := RunCustom(cfg, "none", func(smID, numSMs int) (Workload, error) {
		w, err := BuildWorkload("stream", smID, numSMs, 1, 10, cfg.MemoryBytes*4)
		return w, err
	})
	if err == nil {
		t.Fatal("oversized custom footprint accepted")
	}
}

func TestRunCustomUnknownScheme(t *testing.T) {
	if _, err := RunCustom(quickCfg(), "nope", nil); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// rawRecord encodes one trace record field by field, bypassing the
// Writer's checks: pc 1, a load, the given width and compute weight, and
// one address.
func rawRecord(width, weight, addr uint64) []byte {
	b := binary.AppendUvarint(nil, 1)
	b = append(b, 0)
	b = binary.AppendUvarint(b, width)
	b = binary.AppendUvarint(b, weight)
	b = binary.AppendUvarint(b, 1)
	return binary.AppendUvarint(b, addr<<1) // zig-zag of a positive delta
}

// oneAccess is a Go-supplied workload that issues a single access.
type oneAccess struct {
	a         Access
	footprint uint64
	done      bool
}

func (w *oneAccess) Name() string      { return "one" }
func (w *oneAccess) Footprint() uint64 { return w.footprint }
func (w *oneAccess) Next() (Access, bool) {
	if w.done {
		return Access{}, false
	}
	w.done = true
	return w.a, true
}

// TestRunCustomRejectsMalformedTraces: a malformed access, whether a
// replayed record or one a Go workload returns, makes RunCustom return an
// error promptly instead of hanging, panicking, failing to converge or
// returning a short result with a nil error.
func TestRunCustomRejectsMalformedTraces(t *testing.T) {
	cfg := quickCfg()
	good := rawRecord(4, 0, 64)
	for _, tc := range []struct {
		name, want string
		record     []byte // a .cct record, or nil to issue access from Go
		access     Access
	}{
		{"width 2^40", "width", rawRecord(1<<40, 0, 64), Access{}},
		{"width 0", "width", rawRecord(0, 0, 64), Access{}},
		{"width 17", "width", rawRecord(17, 0, 64), Access{}},
		{"weight 2^63", "compute weight", rawRecord(4, 1<<63, 64), Access{}},
		{"weight past the bound", "compute weight", rawRecord(4, 1<<12+1, 64), Access{}},
		{"truncated record", "reading address", append(append([]byte{}, good...), good[:len(good)-1]...), Access{}},
		{"address outside the footprint", "outside footprint", rawRecord(4, 0, cfg.FootprintBytes), Access{}},
		{"Go access width 2^40", "width", nil, Access{Addrs: []uint64{64}, Bytes: 1 << 40}},
		{"Go access past the protected capacity", "outside footprint", nil, Access{Addrs: []uint64{cfg.MemoryBytes}, Bytes: 4}},
		{"Go access weight -100", "compute weight", nil, Access{Addrs: []uint64{64}, Bytes: 4, ComputeWeight: -100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace := append([]byte("CCTRACE1"), tc.record...)
			start := time.Now()
			res, err := RunCustom(cfg, "none", func(smID, numSMs int) (Workload, error) {
				if tc.record == nil {
					return &oneAccess{a: tc.access, footprint: cfg.FootprintBytes}, nil
				}
				return NewTraceReplayer("bad", bytes.NewReader(trace), cfg.FootprintBytes)
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one naming %q (result: %d cycles, %d instructions)",
					err, tc.want, res.Cycles, res.Instructions)
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Fatalf("rejecting took %v", d)
			}
		})
	}
	// The same trace with only well-formed records replays cleanly.
	trace := append([]byte("CCTRACE1"), good...)
	if _, err := RunCustom(cfg, "none", func(smID, numSMs int) (Workload, error) {
		return NewTraceReplayer("good", bytes.NewReader(trace), cfg.FootprintBytes)
	}); err != nil {
		t.Fatalf("well-formed record rejected: %v", err)
	}
}
