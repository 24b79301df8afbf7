package cachecraft_test

import (
	"fmt"

	"cachecraft"
)

// ExampleRun simulates one workload under one protection scheme.
func ExampleRun() {
	cfg := cachecraft.QuickConfig()
	cfg.AccessesPerSM = 200

	res, err := cachecraft.Run(cfg, "stream", "inline-naive")
	if err != nil {
		panic(err)
	}
	// The naive controller re-fetches the 32B redundancy block for each of
	// the granule's two lines: twice the storage ratio of 1/8. (The
	// caching schemes get this down to 0.125 and below.)
	ratio := float64(res.DRAMBytes["redundancy"]) / float64(res.DRAMBytes["demand"])
	fmt.Printf("redundancy/demand = %.3f\n", ratio)
	// Output:
	// redundancy/demand = 0.250
}

// ExampleWithCacheCraft runs an ablated CacheCraft configuration.
func ExampleWithCacheCraft() {
	cfg := cachecraft.QuickConfig()
	cfg.AccessesPerSM = 200

	opt := cachecraft.DefaultOptions()
	opt.Reconstruct = false // ablate mechanism R

	res, err := cachecraft.Run(cfg, "stream", "cachecraft", cachecraft.WithCacheCraft(opt))
	if err != nil {
		panic(err)
	}
	fmt.Printf("reconstructed sectors: %d\n", res.ControllerSt.Get("reconstruct_sectors"))
	// Output:
	// reconstructed sectors: 0
}

// ExampleNewTaggedCodec demonstrates zero-storage memory tagging.
func ExampleNewTaggedCodec() {
	codec, err := cachecraft.NewTaggedCodec(32, 4, 1)
	if err != nil {
		panic(err)
	}
	data := make([]byte, 32)
	parity := codec.Encode(data, []byte{0x7}) // tag 0x7, never stored

	fmt.Println(codec.Check(data, parity, []byte{0x7}))
	fmt.Println(codec.Check(data, parity, []byte{0x8}))
	// Output:
	// tag-ok
	// tag-mismatch
}

// ExampleNewRS3632 shows symbol-grain correction.
func ExampleNewRS3632() {
	codec, err := cachecraft.NewRS3632()
	if err != nil {
		panic(err)
	}
	sector := []byte("an entire DRAM burst of data!!!!")[:32]
	red := codec.Encode(sector)

	sector[5] ^= 0xff // a whole corrupted byte
	fmt.Println(codec.Decode(sector, red))
	fmt.Println(string(sector[:8]))
	// Output:
	// corrected
	// an entir
}

// ExampleWorkloads lists the synthetic workload suite.
func ExampleWorkloads() {
	for _, w := range cachecraft.Workloads() {
		fmt.Println(w)
	}
	// Output:
	// bfs
	// gemm
	// histogram
	// ptrchase
	// random
	// scan
	// spmv
	// stencil
	// stream
	// transpose
}
