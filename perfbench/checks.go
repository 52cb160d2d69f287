package main

import (
	"bytes"
	"fmt"

	"compresso/internal/compress"
	"compresso/internal/memctl"
	"compresso/internal/rng"
	"compresso/internal/workload"
)

// checks tallies correctness checks: invariants of the simulator's
// outputs, never golden values.
type checks struct {
	attempted, failed int
	failures          []string
}

func (c *checks) add(ok bool, what string) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, what)
		}
	}
}

// Sampling sizes for the codec checks and probes.
const (
	sampleTraceOps  = 20_000 // trace length that produces stored lines
	sampleLines     = 2048   // image and stored lines per workload
	sampleBlocks    = 128    // 1 KiB LZ blocks per workload
	lzBlockBytes    = 1024
	linesPerLZBlock = lzBlockBytes / compress.LineSize
)

// lineSample is the content the codec checks and probes run on: lines
// of the workload's images, lines its traces stored, and 1 KiB blocks.
type lineSample struct {
	lines  [][]byte
	blocks [][]byte
}

// sampleImages runs a short trace over each profile's image (so some
// lines hold stored content) and samples lines and blocks, half from
// random image addresses and half from stored-to lines.
func sampleImages(profs []workload.Profile, scale int, seed uint64) lineSample {
	r := rng.New(seed ^ 0x5a3b1e)
	var s lineSample
	perProf := max(sampleLines/len(profs), 8)
	blocksPerProf := max(sampleBlocks/len(profs), 2)
	for i, p := range profs {
		p = workload.Scale(p, scale)
		tr := workload.NewTrace(p, seed+uint64(i)*7919, sampleTraceOps)
		img := tr.Image()
		var stored []uint64
		var op workload.Op
		for k := 0; k < sampleTraceOps; k++ {
			tr.Next(&op)
			if op.Write {
				stored = append(stored, op.LineAddr)
			}
		}
		copyLine := func(addr uint64) []byte { return append([]byte(nil), img.Line(addr)...) }
		for k := 0; k < perProf/2; k++ {
			s.lines = append(s.lines, copyLine(uint64(r.Intn(int(img.Lines())))))
		}
		for k := 0; k < perProf/2 && len(stored) > 0; k++ {
			s.lines = append(s.lines, copyLine(stored[r.Intn(len(stored))]))
		}
		for k := 0; k < blocksPerProf; k++ {
			page := uint64(r.Intn(p.FootprintPages))
			first := page*memctl.LinesPerPage + uint64(r.Intn(memctl.LinesPerPage-linesPerLZBlock+1))
			block := make([]byte, 0, lzBlockBytes)
			for l := uint64(0); l < linesPerLZBlock; l++ {
				block = append(block, img.Line(first+l)...)
			}
			s.blocks = append(s.blocks, block)
		}
	}
	return s
}

// lineCodecs are the line codecs the round-trip checks cover.
var lineCodecs = []compress.Codec{compress.BPC{}, compress.BDI{}, compress.FPC{}, compress.CPack{}}

// roundTrip checks Decompress(Compress(x)) == x and that the
// compressed length equals SizeOnly, for every sampled line under every
// line codec and for LZ on every sampled block.
func roundTrip(s lineSample, c *checks) {
	var dst, out [compress.LineSize]byte
	for _, codec := range lineCodecs {
		for i, line := range s.lines {
			n := codec.Compress(dst[:], line)
			err := codec.Decompress(out[:], dst[:n])
			c.add(err == nil && bytes.Equal(out[:], line) && n == compress.SizeOnly(codec, line),
				fmt.Sprintf("%s round trip of sampled line %d", codec.Name(), i))
		}
	}
	blockDst := make([]byte, lzBlockBytes)
	blockOut := make([]byte, lzBlockBytes)
	for i, b := range s.blocks {
		n := compress.LZCompressBlock(blockDst, b)
		err := compress.LZDecompressBlock(blockOut, blockDst[:n])
		c.add(err == nil && bytes.Equal(blockOut, b) && n == compress.LZSizeBlock(b),
			fmt.Sprintf("lz round trip of sampled block %d", i))
	}
}
