package core_test

import (
	"fmt"

	"compresso/internal/core"
	"compresso/internal/dram"
	"compresso/internal/memctl"
)

// exampleSource serves zero lines except one counter array at page 0.
type exampleSource struct{}

func (exampleSource) ReadLine(addr uint64, buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	if addr < 64 {
		// A tiny counter per word keeps the page highly compressible.
		for w := 0; w < 16; w++ {
			buf[w*4] = byte(addr + uint64(w))
		}
	}
}

// Example builds a Compresso controller, installs one compressible
// page, and serves a demand read — the minimal end-to-end flow.
func Example() {
	src := exampleSource{}
	mem := dram.New(dram.DDR4_2666())
	ctl := core.New(core.DefaultConfig(64, 1<<20), mem, src)

	ctl.InstallPage(0) // the controller reads the page from src

	ctl.ReadLine(0 /*cycle*/, 3 /*OSPA line*/)
	fmt.Printf("page stored in %d bytes (ratio %.0fx); demand reads: %d\n",
		ctl.CompressedBytes(), memctl.CompressionRatio(ctl), ctl.Stats().DemandReads)
	// Output: page stored in 512 bytes (ratio 8x); demand reads: 1
}
