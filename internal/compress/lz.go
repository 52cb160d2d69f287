package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"compresso/internal/bitstream"
)

// This file implements a small LZ77 compressor. The paper's survey
// (§II-A) notes LZ achieves the highest compression of the candidate
// algorithms but costs too much energy for the inline path; IBM MXT
// used it at 1 KB granularity and DMC uses it for cold pages. We
// provide it both as a 64 B line Codec (LZ) and as block functions for
// the MXT/DMC-style coarse-granularity baselines.
//
// Format, MSB-first: a sequence of tokens until the decoded length
// reaches the block size.
//
//	0 + 8 bits            literal byte
//	1 + off + len         copy (length 3..maxLen) from distance off+1
//
// off is ceil(log2(blockSize)) bits, len is 6 bits storing length-3.

const lzLenBits = 6
const lzMinMatch = 3
const lzMaxMatch = (1 << lzLenBits) - 1 + lzMinMatch

func lzOffBits(blockSize int) int {
	if blockSize <= 1 {
		return 1
	}
	return bits.Len(uint(blockSize - 1))
}

// Match tables. Positions are stored +1 so a zeroed table is empty.
// A block up to lzStackBlock bytes keeps its tables on the stack (a
// 64 B line gets its own small class, so it does not clear the 1 KiB
// block's tables); a longer block allocates them and runs the same
// matcher.
const (
	lzLineHashBits  = 7  // 128 buckets for a 64 B line's 62 positions
	lzBlockHashBits = 11 // 2048 buckets for up to 1 KiB of positions
	lzStackBlock    = 1024
)

// lzMatcher finds greedy longest matches through 3-byte hash chains.
// Every position j with j+2 < len(src) below the queried position is
// chained, including positions inside emitted matches, so any earlier
// position whose first three bytes equal those at i is on i's chain.
// Walking the chain nearest-first and keeping only strictly longer
// matches returns the same (longest length, smallest offset) as the
// brute-force lzRefBestMatch. A hash collision only yields a match
// shorter than lzMinMatch, which the parse emits as a literal.
type lzMatcher struct {
	src   []byte
	head  []int32 // bucket -> most recent chained position+1, 0 if none
	prev  []int32 // position -> previous position+1 in its bucket
	shift uint
	next  int // positions below next are chained
}

func (m *lzMatcher) hash(j int) uint32 {
	s := m.src[j : j+3]
	v := uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16
	return v * 0x9e3779b1 >> m.shift
}

// find chains every position below i and returns the longest match
// for position i, capped at min(lzMaxMatch, len(src)-i).
func (m *lzMatcher) find(i int) (bestLen, bestOff int) {
	src := m.src
	maxLen := min(lzMaxMatch, len(src)-i)
	if maxLen < lzMinMatch {
		return 0, 0
	}
	for j := m.next; j < i; j++ {
		h := m.hash(j)
		m.prev[j] = m.head[h]
		m.head[h] = int32(j + 1)
	}
	m.next = i
	for c := m.head[m.hash(i)]; c != 0; c = m.prev[c-1] {
		j := int(c - 1)
		// A strictly longer match must agree at index bestLen.
		if src[j+bestLen] != src[i+bestLen] {
			continue
		}
		if l := lzMatchLen(src, j, i, maxLen); l > bestLen {
			bestLen, bestOff = l, i-j
			if l == maxLen {
				break
			}
		}
	}
	return bestLen, bestOff
}

// lzMatchLen returns how many bytes from j agree with those from i
// (j < i; the ranges may overlap), up to maxLen, comparing eight
// bytes per step.
func lzMatchLen(src []byte, j, i, maxLen int) int {
	l := 0
	for ; l+8 <= maxLen; l += 8 {
		x := binary.LittleEndian.Uint64(src[i+l:]) ^ binary.LittleEndian.Uint64(src[j+l:])
		if x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
	}
	for l < maxLen && src[i+l] == src[j+l] {
		l++
	}
	return l
}

// lzParse is the greedy parse shared by the compress and size walks:
// it writes the token stream for src to w (when w is non-nil) and
// returns the LZCompressBlock size, stopping as soon as the counted
// bits round up to len(src) bytes, where the block is stored raw.
func lzParse(src []byte, w *bitstream.Writer) int {
	if IsZeroLine(src) {
		return 0
	}
	switch {
	case len(src) <= LineSize:
		var head [1 << lzLineHashBits]int32
		var prev [LineSize]int32
		return lzParseWith(src, w, head[:], prev[:])
	case len(src) <= lzStackBlock:
		var head [1 << lzBlockHashBits]int32
		var prev [lzStackBlock]int32
		return lzParseWith(src, w, head[:], prev[:])
	}
	hashBits := min(bits.Len(uint(len(src))), 16)
	return lzParseWith(src, w, make([]int32, 1<<hashBits), make([]int32, len(src)))
}

// lzParseWith runs lzParse over caller-provided match tables; head's
// length must be a power of two.
func lzParseWith(src []byte, w *bitstream.Writer, head, prev []int32) int {
	m := lzMatcher{src: src, head: head, prev: prev, shift: uint(33 - bits.Len(uint(len(head))))}
	offBits := lzOffBits(len(src))
	nbits := 0
	for i := 0; i < len(src); {
		bestLen, bestOff := m.find(i)
		if bestLen >= lzMinMatch {
			nbits += 1 + offBits + lzLenBits
			if w != nil {
				w.WriteBit(1)
				w.WriteBits(uint64(bestOff-1), offBits)
				w.WriteBits(uint64(bestLen-lzMinMatch), lzLenBits)
			}
			i += bestLen
		} else {
			nbits += 1 + 8
			if w != nil {
				w.WriteBit(0)
				w.WriteBits(uint64(src[i]), 8)
			}
			i++
		}
		if (nbits+7)/8 >= len(src) {
			return len(src)
		}
	}
	return (nbits + 7) / 8
}

// LZCompressBlock compresses src into dst following the package size
// conventions generalized to the block size: 0 means all-zero,
// len(src) means stored raw. dst must hold len(src) bytes.
func LZCompressBlock(dst, src []byte) int {
	var s Scratch
	return LZCompressBlockScratch(dst, src, &s)
}

// LZCompressBlockScratch is LZCompressBlock drawing its writer from
// caller-owned scratch.
func LZCompressBlockScratch(dst, src []byte, s *Scratch) int {
	w := &s.wa
	w.Reset()
	n := lzParse(src, w)
	if n == len(src) {
		copy(dst[:n], src)
	} else {
		copy(dst, w.Bytes())
	}
	return n
}

// LZSizeBlock returns exactly what LZCompressBlock would return for
// src without materializing the stream.
func LZSizeBlock(src []byte) int {
	return lzParse(src, nil)
}

// LZDecompressBlock expands a stream produced by LZCompressBlock into
// dst (whose length is the original block size).
func LZDecompressBlock(dst, src []byte) error {
	switch {
	case len(src) == 0:
		for i := range dst {
			dst[i] = 0
		}
		return nil
	case len(src) == len(dst):
		copy(dst, src)
		return nil
	case len(src) > len(dst):
		return fmt.Errorf("lz: stream longer than block (%d > %d)", len(src), len(dst))
	}
	offBits := lzOffBits(len(dst))
	r := bitstream.NewReader(src)
	i := 0
	for i < len(dst) {
		flag, err := r.ReadBit()
		if err != nil {
			return fmt.Errorf("lz: truncated token at byte %d: %w", i, err)
		}
		if flag == 0 {
			b, err := r.ReadBits(8)
			if err != nil {
				return fmt.Errorf("lz: truncated literal: %w", err)
			}
			dst[i] = byte(b)
			i++
			continue
		}
		off, err := r.ReadBits(offBits)
		if err != nil {
			return fmt.Errorf("lz: truncated offset: %w", err)
		}
		l, err := r.ReadBits(lzLenBits)
		if err != nil {
			return fmt.Errorf("lz: truncated length: %w", err)
		}
		dist := int(off) + 1
		length := int(l) + lzMinMatch
		if dist > i {
			return fmt.Errorf("lz: match distance %d beyond %d decoded bytes", dist, i)
		}
		if i+length > len(dst) {
			return fmt.Errorf("lz: match of %d overflows block at %d", length, i)
		}
		for k := 0; k < length; k++ {
			dst[i] = dst[i-dist]
			i++
		}
	}
	return nil
}

// LZ is the 64-byte-line Codec wrapper around the block compressor.
type LZ struct{}

// Name implements Codec.
func (LZ) Name() string { return "lz" }

// Compress implements Codec.
func (LZ) Compress(dst, src []byte) int {
	checkCompressArgs(dst, src)
	return LZCompressBlock(dst, src)
}

// CompressScratch implements ScratchCompressor.
func (LZ) CompressScratch(dst, src []byte, s *Scratch) int {
	checkCompressArgs(dst, src)
	return LZCompressBlockScratch(dst, src, s)
}

// SizeOnly implements Sizer.
func (LZ) SizeOnly(src []byte) int {
	checkLine(src)
	return LZSizeBlock(src)
}

// Decompress implements Codec.
func (LZ) Decompress(dst, src []byte) error {
	checkLine(dst)
	return LZDecompressBlock(dst, src)
}
