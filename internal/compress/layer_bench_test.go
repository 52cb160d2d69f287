package compress_test

import (
	"testing"

	"compresso/internal/compress"
	"compresso/internal/workload"
)

// dmcBlocks assembles 1 KB blocks the way DMC prices a cold page: 16
// consecutive lines of one page, from the first pages of every suite
// profile's image.
func dmcBlocks() [][]byte {
	const linesPerBlock = 1024 / compress.LineSize
	var blocks [][]byte
	for _, p := range workload.All() {
		im := workload.NewImage(workload.Scale(p, 64), 42)
		for b := uint64(0); b < 8; b++ {
			block := make([]byte, 0, 1024)
			for l := uint64(0); l < linesPerBlock; l++ {
				block = append(block, im.Line(b*linesPerBlock+l)...)
			}
			blocks = append(blocks, block)
		}
	}
	return blocks
}

// BenchmarkLZSizeBlock prices DMC-shaped 1 KB blocks, the cold-path
// sizing call behind dmc's priceCold/repriceBlock.
func BenchmarkLZSizeBlock(b *testing.B) {
	blocks := dmcBlocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compress.LZSizeBlock(blocks[i%len(blocks)])
	}
}
