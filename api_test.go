package cachecraft

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func quickCfg() Config {
	cfg := QuickConfig()
	cfg.AccessesPerSM = 300
	return cfg
}

func TestWorkloadsAndSchemesEnumerations(t *testing.T) {
	if len(Workloads()) != 10 {
		t.Fatalf("workloads = %v", Workloads())
	}
	s := Schemes()
	if len(s) != 4 || s[0] != "none" || s[3] != "cachecraft" {
		t.Fatalf("schemes = %v", s)
	}
}

func TestVersionAndFingerprint(t *testing.T) {
	if Version() == "" {
		t.Fatal("empty simulator version")
	}
	a := Fingerprint(DefaultConfig(), "stream", "cachecraft")
	if len(a) != 64 {
		t.Fatalf("fingerprint %q is not a hex sha256", a)
	}
	if a != Fingerprint(DefaultConfig(), "stream", "cachecraft") {
		t.Fatal("fingerprint not deterministic")
	}
	if a == Fingerprint(DefaultConfig(), "stream", "none") {
		t.Fatal("fingerprint ignores the scheme")
	}
	cfg := DefaultConfig()
	cfg.Seed++
	if a == Fingerprint(cfg, "stream", "cachecraft") {
		t.Fatal("fingerprint ignores the configuration")
	}
}

func TestRunPublicAPI(t *testing.T) {
	res, err := Run(quickCfg(), "stream", "cachecraft")
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "stream" || res.Scheme != "cachecraft" {
		t.Fatalf("result not labeled: %q/%q", res.Workload, res.Scheme)
	}
	if res.IPC <= 0 || res.Cycles == 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

// TestRunAllMatchesSerialRuns: the parallel batch API must return the
// same results, in the same order, as serial Run calls over the grid.
func TestRunAllMatchesSerialRuns(t *testing.T) {
	workloads := []string{"stream", "scan"}
	schemes := []string{"none", "cachecraft"}
	batch, err := RunAll(quickCfg(), workloads, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(workloads)*len(schemes) {
		t.Fatalf("got %d results, want %d", len(batch), len(workloads)*len(schemes))
	}
	i := 0
	for _, wl := range workloads {
		for _, s := range schemes {
			got := batch[i]
			i++
			if got.Workload != wl || got.Scheme != s {
				t.Fatalf("result %d is %s/%s, want %s/%s (order must be deterministic)",
					i-1, got.Workload, got.Scheme, wl, s)
			}
			want, err := Run(quickCfg(), wl, s)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
				t.Fatalf("%s/%s: parallel result diverged: cycles %d/%d, instructions %d/%d",
					wl, s, got.Cycles, want.Cycles, got.Instructions, want.Instructions)
			}
		}
	}
}

func TestRunAllRejectsUnknownScheme(t *testing.T) {
	if _, err := RunAll(quickCfg(), []string{"stream"}, []string{"nope"}); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := RunAll(quickCfg(), []string{"nope"}, []string{"none"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	if _, err := Run(quickCfg(), "nope", "none"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Run(quickCfg(), "stream", "nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestRunCacheCraftOptions(t *testing.T) {
	opt := DefaultOptions()
	opt.Reconstruct = false
	opt.UseRC = false
	opt.WBuf = false
	res, err := Run(quickCfg(), "scan", "cachecraft", WithCacheCraft(opt))
	if err != nil {
		t.Fatal(err)
	}
	if res.ControllerSt.Get("reconstruct_sectors") != 0 {
		t.Fatal("reconstruction ran while disabled")
	}
	if res.ControllerSt.Get("red_rc_hits") != 0 {
		t.Fatal("RC hit while disabled")
	}
	// Without RC and write buffer, writebacks must RMW like the naive
	// controller.
	if res.ControllerSt.Get("red_rmw") == 0 {
		t.Fatal("expected RMWs with RC and write buffer disabled")
	}
	if _, err := Run(quickCfg(), "scan", "inline-naive", WithCacheCraft(opt)); err == nil {
		t.Fatal("WithCacheCraft accepted a non-cachecraft scheme")
	}
}

// TestProbeTimelinePinned pins the probe layer's output byte for byte:
// the SHA-256 of each cell's single-cell NDJSON timeline (quick config,
// 500-cycle window) must match the digests recorded before the probe
// points moved onto the machine observer, so both the track order and
// every sample value are fixed.
func TestProbeTimelinePinned(t *testing.T) {
	want := map[string]string{
		"spmv/inline-naive":    "a01d65c1e3bd3cf7d53a4db0ff4a982705b4d1c1946edabe4c13f2dbbb19b192",
		"spmv/cachecraft":      "30f1820384fda2eab19d792e35ad8140aa43401a5a04fb16ad4abc70910505dc",
		"stencil/inline-naive": "fb285adee0817b092ee2308280a315b974d7c79e4cbcba4046beb52db5a6b5c1",
		"stencil/cachecraft":   "38154f1ad238f5a992317c532eabd30a5dbe2424c3281e3bd5c7bc00ce363ac8",
	}
	for _, wl := range []string{"spmv", "stencil"} {
		for _, scheme := range []string{"inline-naive", "cachecraft"} {
			label := wl + "/" + scheme
			p := NewProbes(500)
			if _, err := Run(QuickConfig(), wl, scheme, WithProbes(p)); err != nil {
				t.Fatal(err)
			}
			tl := NewTimeline()
			tl.AddCell(label, p)
			var buf bytes.Buffer
			if err := tl.WriteNDJSON(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want[label] {
				t.Errorf("%s: timeline sha256 %s, want %s", label, got, want[label])
			}
		}
	}
}

func TestPublicCodecs(t *testing.T) {
	for _, build := range []func() (SectorCodec, error){
		NewSECDED6472, NewRS3632, NewRS3432,
	} {
		codec, err := build()
		if err != nil {
			t.Fatal(err)
		}
		sector := make([]byte, codec.SectorBytes())
		for i := range sector {
			sector[i] = byte(i * 3)
		}
		red := codec.Encode(sector)
		if len(red) != codec.RedundancyBytes() {
			t.Fatalf("%s: redundancy size %d", codec.Name(), len(red))
		}
		if res := codec.Decode(sector, red); res != CodecOK {
			t.Fatalf("%s: clean decode = %v", codec.Name(), res)
		}
		sector[0] ^= 1
		if res := codec.Decode(sector, red); res != CodecCorrected {
			t.Fatalf("%s: single-bit decode = %v", codec.Name(), res)
		}
	}
}

func TestPublicTaggedCodec(t *testing.T) {
	codec, err := NewTaggedCodec(32, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 32)
	tag := []byte{0x3}
	parity := codec.Encode(data, tag)
	if got := codec.Check(data, parity, tag); got != TagOK {
		t.Fatalf("matching tag = %v", got)
	}
	if got := codec.Check(data, parity, []byte{0x4}); got != TagMismatch {
		t.Fatalf("wrong tag = %v", got)
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := QuickConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossSchemeInstructionParity is the protection-transparency
// invariant at the public API level: all schemes retire identical work.
func TestCrossSchemeInstructionParity(t *testing.T) {
	for _, wl := range []string{"stream", "histogram", "bfs"} {
		var want uint64
		for i, s := range Schemes() {
			res, err := Run(quickCfg(), wl, s)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = res.Instructions
				continue
			}
			if res.Instructions != want {
				t.Fatalf("%s/%s retired %d, want %d", wl, s, res.Instructions, want)
			}
		}
	}
}

func TestPublicSECDAECAndChipkill(t *testing.T) {
	daec, err := NewSECDAEC6472()
	if err != nil {
		t.Fatal(err)
	}
	sector := make([]byte, 32)
	red := daec.Encode(sector)
	sector[0] ^= 0b11 // adjacent double
	if res := daec.Decode(sector, red); res != CodecCorrected {
		t.Fatalf("secdaec adjacent double = %v", res)
	}
	ck, err := NewChipkill()
	if err != nil {
		t.Fatal(err)
	}
	red = ck.Encode(sector)
	for _, p := range ck.DeviceSymbols(3) {
		if p < 32 {
			sector[p] ^= 0x55
		} else {
			red[p-32] ^= 0x55
		}
	}
	if res := ck.DecodeWithDeadDevice(sector, red, 3); res != CodecCorrected {
		t.Fatalf("chipkill dead device = %v", res)
	}
}
