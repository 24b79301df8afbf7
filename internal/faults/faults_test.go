package faults

import (
	"math/rand"
	"reflect"
	"testing"

	"cachecraft/internal/ecc"
)

func secded(t *testing.T) ecc.SectorCodec {
	t.Helper()
	c, err := ecc.NewSECDEDSector(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func rs(t *testing.T) ecc.SectorCodec {
	t.Helper()
	c, err := ecc.NewRSSector(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSECDEDCorrectsAllSingleBitFlips(t *testing.T) {
	rep := Campaign{Codec: secded(t), Trials: 500, Seed: 1}.Run("1bit", BitFlips(1))
	if rep.Counts[Corrected] != rep.Trials {
		t.Fatalf("single-bit: %+v", rep.Counts)
	}
	if rep.SDCRate() != 0 {
		t.Fatalf("single-bit SDC rate %v", rep.SDCRate())
	}
}

func TestSECDEDDoubleBitNeverSilent(t *testing.T) {
	rep := Campaign{Codec: secded(t), Trials: 500, Seed: 2}.Run("2bit", BitFlips(2))
	// Two flips in one word: detected. Two flips in different words: both
	// corrected. Either way no SDC.
	if rep.SDCRate() != 0 {
		t.Fatalf("double-bit SDC rate %v (%+v)", rep.SDCRate(), rep.Counts)
	}
	if rep.Counts[Detected] == 0 {
		t.Fatal("expected some same-word double errors to be detected")
	}
	if rep.Counts[Corrected] == 0 {
		t.Fatal("expected some cross-word double errors to be corrected")
	}
}

func TestSECDEDChipErrorOftenEscapes(t *testing.T) {
	// A whole-byte error concentrates up to 8 flips in one 64-bit word —
	// beyond SEC-DED's design point. It must never be reported as clean
	// Corrected-with-wrong-data silently... but miscorrections are
	// expected; that is the motivation for symbol codes.
	rep := Campaign{Codec: secded(t), Trials: 2000, Seed: 3}.Run("chip", ChipError())
	if rep.Counts[Miscorrected]+rep.Counts[SilentBad] == 0 {
		t.Fatal("SEC-DED should suffer SDC under chip errors (that is the point of Table 3)")
	}
}

func TestRSChipErrorAlwaysCorrected(t *testing.T) {
	rep := Campaign{Codec: rs(t), Trials: 2000, Seed: 4}.Run("chip", ChipError())
	if rep.Counts[Corrected] != rep.Trials {
		t.Fatalf("RS(36,32) must correct any single symbol error: %+v", rep.Counts)
	}
}

func TestRSDoubleChipCorrected(t *testing.T) {
	rep := Campaign{Codec: rs(t), Trials: 1000, Seed: 5}.Run("2chip", DoubleChipError())
	// t=2: two symbol errors corrected (the occasional same-position
	// collision is a single error — also corrected).
	if rep.Counts[Corrected] != rep.Trials {
		t.Fatalf("RS(36,32) must correct double symbol errors: %+v", rep.Counts)
	}
}

func TestRSBurstWithinTwoSymbols(t *testing.T) {
	// An 8-bit burst spans at most two adjacent symbols — within t=2.
	rep := Campaign{Codec: rs(t), Trials: 1000, Seed: 6}.Run("burst8", Burst(8))
	if rep.Counts[Corrected] != rep.Trials {
		t.Fatalf("RS(36,32) must correct 8-bit bursts: %+v", rep.Counts)
	}
}

func TestReportRates(t *testing.T) {
	rep := Report{Trials: 4}
	rep.Counts[Corrected] = 2
	rep.Counts[Miscorrected] = 1
	rep.Counts[SilentBad] = 1
	if rep.Rate(Corrected) != 0.5 {
		t.Fatalf("rate = %v", rep.Rate(Corrected))
	}
	if rep.SDCRate() != 0.5 {
		t.Fatalf("sdc = %v", rep.SDCRate())
	}
	var empty Report
	if empty.Rate(Corrected) != 0 {
		t.Fatal("empty report rate must be 0")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		Corrected: "corrected", Detected: "detected",
		Miscorrected: "miscorrected", SilentBad: "silent-bad",
	} {
		if o.String() != want {
			t.Fatalf("%d renders %q", int(o), o.String())
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	a := Campaign{Codec: rs(t), Trials: 200, Seed: 7}.Run("3bit", BitFlips(3))
	b := Campaign{Codec: rs(t), Trials: 200, Seed: 7}.Run("3bit", BitFlips(3))
	if a.Counts != b.Counts {
		t.Fatalf("campaigns differ: %v vs %v", a.Counts, b.Counts)
	}
}

// TestRunAllocsDoNotGrowWithTrials pins the campaign's buffer reuse: a
// campaign allocates its generator and buffers once, so a hundred times
// the trials must cost no more allocations, for every Table 3 codec and
// fault model. A per-trial allocation would add about a thousand; the
// slack of a few absorbs the runtime's own allocations, which the race
// detector makes visible in longer runs.
func TestRunAllocsDoNotGrowWithTrials(t *testing.T) {
	rs34, err := ecc.NewRSSector(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	injectors := map[string]Injector{
		"1bit": BitFlips(1), "2bit": BitFlips(2), "8bit": BitFlips(8), "burst4": Burst(4),
		"chip": ChipError(), "2chip": DoubleChipError(),
	}
	for _, codec := range []ecc.SectorCodec{secded(t), rs(t), rs34} {
		for name, inj := range injectors {
			allocs := func(trials int) float64 {
				return testing.AllocsPerRun(5, func() {
					Campaign{Codec: codec, Trials: trials, Seed: 3}.Run(name, inj)
				})
			}
			if few, many := allocs(10), allocs(1000); many > few+3 {
				t.Errorf("%s/%s: %.0f allocations for 10 trials, %.0f for 1000", codec.Name(), name, few, many)
			}
		}
	}
}

// TestBitFlipsDrawsLikeASet checks BitFlips against the set-based
// injector it replaced: the same generator state must flip the same bits
// and leave the generator in the same state, so reports stay identical.
func TestBitFlipsDrawsLikeASet(t *testing.T) {
	setFlips := func(n int) Injector {
		return func(rng *rand.Rand, sector, redundancy []byte) {
			total := len(sector)*8 + len(redundancy)*8
			seen := map[int]bool{}
			for len(seen) < n {
				seen[rng.Intn(total)] = true
			}
			for bit := range seen {
				flip(sector, redundancy, bit)
			}
		}
	}
	for _, n := range []int{1, 2, 3, 8, 20} {
		got, want := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 500; trial++ {
			gs, gr := make([]byte, 8), make([]byte, 1)
			ws, wr := make([]byte, 8), make([]byte, 1)
			BitFlips(n)(got, gs, gr)
			setFlips(n)(want, ws, wr)
			if !reflect.DeepEqual(gs, ws) || !reflect.DeepEqual(gr, wr) {
				t.Fatalf("%d flips, trial %d: flipped %x %x, set-based %x %x", n, trial, gs, gr, ws, wr)
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("%d flips: generators diverged", n)
		}
	}
}

// TestDoubleChipErrorHitsTwoBytes: every trial changes exactly two
// bytes, never one byte twice.
func TestDoubleChipErrorHitsTwoBytes(t *testing.T) {
	inject, rng := DoubleChipError(), rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		sector, redundancy := make([]byte, 32), make([]byte, 2)
		inject(rng, sector, redundancy)
		changed := 0
		for _, b := range append(sector, redundancy...) {
			if b != 0 {
				changed++
			}
		}
		if changed != 2 {
			t.Fatalf("trial %d changed %d bytes: %x %x", trial, changed, sector, redundancy)
		}
	}
}

// taggedCodec adapts *ecc.Tagged (whose API takes an asserted tag per
// call) to the SectorCodec interface by pinning one tag value, so the
// tagged code can sit in the same injection matrix as the plain sector
// codecs. A tag mismatch or uncorrectable word both surface as Detected:
// either way the access must not consume the data.
type taggedCodec struct {
	inner *ecc.Tagged
	tag   []byte
}

func (c taggedCodec) Name() string           { return c.inner.Name() }
func (c taggedCodec) SectorBytes() int       { return c.inner.DataBytes() }
func (c taggedCodec) RedundancyBytes() int   { return c.inner.ParityBytes() }
func (c taggedCodec) Encode(s []byte) []byte { return c.inner.Encode(s, c.tag) }

func (c taggedCodec) EncodeInto(dst, s []byte) []byte {
	return c.inner.EncodeInto(dst, s, c.tag)
}

func (c taggedCodec) Decode(sector, redundancy []byte) ecc.Result {
	switch c.inner.Check(sector, redundancy, c.tag) {
	case ecc.TagOK:
		return ecc.OK
	case ecc.TagOKCorrected:
		return ecc.Corrected
	default:
		return ecc.Detected
	}
}

// TestInjectorCodecMatrix runs every injector against every codec and
// checks the invariants that hold regardless of cell: outcome counts
// partition the trials, reports carry the right identity fields, and an
// identical seed replays an identical report. Codec-specific guarantees
// (which cells must be all-Corrected, which may miscorrect) are pinned by
// the dedicated tests above; this matrix is the safety net that no
// (injector, codec) pairing crashes, loses trials, or went nondeterministic.
func TestInjectorCodecMatrix(t *testing.T) {
	secdaec, err := ecc.NewSECDAECSector(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	chipkill, err := ecc.NewChipkill(32, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := ecc.NewTagged(32, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	codecs := []ecc.SectorCodec{
		secded(t),
		rs(t),
		secdaec,
		chipkill,
		taggedCodec{inner: tagged, tag: []byte{0xA5, 0x3C}},
	}
	injectors := []struct {
		name   string
		inject Injector
	}{
		{"1bit", BitFlips(1)},
		{"2bit", BitFlips(2)},
		{"burst4", Burst(4)},
		{"chip", ChipError()},
		{"2chip", DoubleChipError()},
	}
	for _, codec := range codecs {
		for _, inj := range injectors {
			t.Run(codec.Name()+"/"+inj.name, func(t *testing.T) {
				c := Campaign{Codec: codec, Trials: 300, Seed: 99}
				rep := c.Run(inj.name, inj.inject)
				if rep.Codec != codec.Name() || rep.Fault != inj.name || rep.Trials != 300 {
					t.Fatalf("report identity wrong: %+v", rep)
				}
				sum := 0
				for _, n := range rep.Counts {
					sum += n
				}
				if sum != rep.Trials {
					t.Fatalf("outcome counts %v sum to %d, want %d trials", rep.Counts, sum, rep.Trials)
				}
				if again := c.Run(inj.name, inj.inject); !reflect.DeepEqual(rep, again) {
					t.Fatalf("same seed produced different reports:\n%+v\n%+v", rep, again)
				}
			})
		}
	}
}

// TestSingleBitNeverSDC pins the floor guarantee every codec in the matrix
// shares: a single flipped bit is within each code's correction radius, so
// it must never miscorrect or pass silently — for SEC-DED that is the
// literal design point, and the symbol codes correct any one damaged symbol.
func TestSingleBitNeverSDC(t *testing.T) {
	secdaec, err := ecc.NewSECDAECSector(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []ecc.SectorCodec{secded(t), rs(t), secdaec} {
		rep := Campaign{Codec: codec, Trials: 400, Seed: 11}.Run("1bit", BitFlips(1))
		if rep.Counts[Corrected] != rep.Trials {
			t.Fatalf("%s: single-bit flips not fully corrected: %+v", codec.Name(), rep.Counts)
		}
		if rep.Counts[Miscorrected] != 0 || rep.Counts[SilentBad] != 0 {
			t.Fatalf("%s: single-bit SDC: %+v", codec.Name(), rep.Counts)
		}
	}
}
