package faults

import (
	"testing"

	"cachecraft/internal/ecc"
)

// table3Codecs builds the codecs Table 3 compares, in its row order.
func table3Codecs(tb testing.TB) []ecc.SectorCodec {
	tb.Helper()
	secded, err := ecc.NewSECDEDSector(32, 64)
	if err != nil {
		tb.Fatal(err)
	}
	rs36, err := ecc.NewRSSector(32, 4)
	if err != nil {
		tb.Fatal(err)
	}
	rs34, err := ecc.NewRSSector(32, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return []ecc.SectorCodec{secded, rs36, rs34}
}

// table3Injectors are Table 3's fault models, in its row order.
var table3Injectors = []struct {
	name   string
	inject Injector
}{
	{"1 bit", BitFlips(1)},
	{"2 bits", BitFlips(2)},
	{"4-bit burst", Burst(4)},
	{"1 chip (byte)", ChipError()},
	{"2 chips", DoubleChipError()},
}

// TestTable3CampaignsPinned pins the outcome counts of Table 3's exact
// campaigns (10000 trials, seed 99), so a codec rewrite is checked
// against the published table in well under a second. The counts are in
// Outcome order: corrected, detected, miscorrected, silent-bad.
func TestTable3CampaignsPinned(t *testing.T) {
	want := map[string][numOutcomes]int{
		"secded-72/64/1 bit":         {10000, 0, 0, 0},
		"secded-72/64/2 bits":        {7570, 2430, 0, 0},
		"secded-72/64/4-bit burst":   {0, 6218, 411, 3371},
		"secded-72/64/1 chip (byte)": {311, 4965, 4477, 247},
		"secded-72/64/2 chips":       {6, 7053, 2918, 23},
		"rs-36/32/1 bit":             {10000, 0, 0, 0},
		"rs-36/32/2 bits":            {10000, 0, 0, 0},
		"rs-36/32/4-bit burst":       {10000, 0, 0, 0},
		"rs-36/32/1 chip (byte)":     {10000, 0, 0, 0},
		"rs-36/32/2 chips":           {10000, 0, 0, 0},
		"rs-34/32/1 bit":             {10000, 0, 0, 0},
		"rs-34/32/2 bits":            {269, 8634, 1097, 0},
		"rs-34/32/4-bit burst":       {6277, 3647, 76, 0},
		"rs-34/32/1 chip (byte)":     {10000, 0, 0, 0},
		"rs-34/32/2 chips":           {0, 8739, 1261, 0},
	}
	ran := 0
	for _, codec := range table3Codecs(t) {
		for _, in := range table3Injectors {
			key := codec.Name() + "/" + in.name
			rep := Campaign{Codec: codec, Trials: 10000, Seed: 99}.Run(in.name, in.inject)
			if w, ok := want[key]; !ok || rep.Counts != w {
				t.Errorf("%s: counts %v, want %v", key, rep.Counts, w)
			}
			ran++
		}
	}
	if ran != len(want) {
		t.Fatalf("ran %d campaigns, want %d", ran, len(want))
	}
}

// campaignSink keeps BenchmarkCampaign's reports live.
var campaignSink Report

// BenchmarkCampaign times one Table 3 row group per codec: its five
// campaigns of 10000 trials each.
func BenchmarkCampaign(b *testing.B) {
	for _, codec := range table3Codecs(b) {
		b.Run(codec.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, in := range table3Injectors {
					campaignSink = Campaign{Codec: codec, Trials: 10000, Seed: 99}.Run(in.name, in.inject)
				}
			}
		})
	}
}
