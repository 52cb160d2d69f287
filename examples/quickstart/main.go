// Quickstart: the smallest end-to-end tour of the library.
//
//  1. Compress individual cache lines with the paper's modified BPC.
//  2. Stand up a Compresso memory controller over a DDR4 model.
//  3. Install a page, serve reads and writebacks, and watch the
//     controller's translation metadata, inflation room and compression
//     ratio react.
//
// Run with: go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"fmt"

	"compresso/internal/compress"
	"compresso/internal/core"
	"compresso/internal/datagen"
	"compresso/internal/dram"
	"compresso/internal/memctl"
	"compresso/internal/rng"
)

// image is a minimal memctl.LineSource: the current value of every
// OSPA line (a real system would be the DRAM contents themselves).
type image map[uint64][]byte

func (im image) ReadLine(addr uint64, buf []byte) {
	if l, ok := im[addr]; ok {
		copy(buf, l)
		return
	}
	for i := range buf {
		buf[i] = 0
	}
}

func main() {
	// --- 1. Line compression -----------------------------------------
	fmt.Println("== compressing cache lines with modified BPC ==")
	bpc := compress.BPC{}
	counters := make([]byte, 64)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(counters[i*4:], uint32(1000+i))
	}
	var buf [64]byte
	n := bpc.Compress(buf[:], counters)
	fmt.Printf("a line of sequential counters compresses to %d bytes (bin: %d B)\n",
		n, compress.CompressoBins.Fit(n))

	r := rng.New(1)
	noise := datagen.Line(r, datagen.Random)
	n = bpc.Compress(buf[:], noise)
	fmt.Printf("a line of random bytes compresses to %d bytes (stored raw)\n\n", n)

	// --- 2. A Compresso controller ------------------------------------
	fmt.Println("== building a Compresso memory controller ==")
	im := image{}
	mem := dram.New(dram.DDR4_2666())
	cfg := core.DefaultConfig(64 /*OSPA pages*/, 1<<20 /*1 MB machine*/)
	ctl := core.New(cfg, mem, im)

	// Install one page of counter arrays (warm start): the controller
	// reads the page's lines from its source.
	for i := uint64(0); i < 64; i++ {
		im[i] = datagen.Line(r, datagen.Seq)
	}
	ctl.InstallPage(0)
	fmt.Printf("installed a 4 KB page of counters -> %d machine bytes (ratio %.1fx)\n",
		ctl.CompressedBytes(), memctl.CompressionRatio(ctl))

	// --- 3. Demand traffic --------------------------------------------
	res := ctl.ReadLine(0 /*cycle*/, 5 /*line*/)
	fmt.Printf("LLC fill of line 5 completed at cycle %d (metadata + data + decompress)\n", res.Done)

	// A writeback that no longer compresses: the inflation room absorbs
	// the overflow with a single write instead of repacking the page.
	incompressible := datagen.Line(r, datagen.Random)
	im[7] = incompressible
	ctl.WriteLine(1000, 7, incompressible)
	st := ctl.Stats()
	fmt.Printf("incompressible writeback: %d line overflow, %d inflation-room placement\n",
		st.LineOverflows, st.IRPlacements)

	// Zero lines are free: served from metadata alone.
	zero := make([]byte, 64)
	im[8] = zero
	ctl.WriteLine(2000, 8, zero)
	fmt.Printf("zero writeback: %d zero-line ops (no DRAM access)\n", ctl.Stats().ZeroLineOps)

	fmt.Printf("\nfinal: %d demand accesses, %.1f%% extra accesses, ratio %.2fx\n",
		ctl.Stats().DemandAccesses(),
		100*ctl.Stats().RelativeExtra(),
		memctl.CompressionRatio(ctl))
	fmt.Println("\nnext: examples/graphanalytics, examples/capacityplanner, examples/algorithmlab")
}
