package compress

import "compresso/internal/bitstream"

// This file retains the original brute-force LZ matcher and compress
// walk as the executable specification of the greedy parse. The hash-
// chain matcher in lz.go must pick exactly the tokens these do;
// FuzzLZSizeBlock, FuzzLZBlockRoundTrip and TestLZMatchesReference
// hold the two together. The reference tries every back offset at
// every position, so its correctness is auditable by inspection.

// lzRefBestMatch returns the greedy longest match for position i over
// every offset 1..i, keeping the smallest offset among equal lengths.
func lzRefBestMatch(src []byte, i int) (bestLen, bestOff int) {
	for off := 1; off <= i; off++ {
		l := 0
		for i+l < len(src) && l < lzMaxMatch && src[i+l] == src[i-off+l] {
			l++
		}
		if l > bestLen {
			bestLen, bestOff = l, off
		}
	}
	return bestLen, bestOff
}

// lzRefCompressBlock returns the bytes LZCompressBlock writes for src:
// empty for an all-zero block, src itself when the stream reaches
// len(src) bytes, the token stream otherwise.
func lzRefCompressBlock(src []byte) []byte {
	if IsZeroLine(src) {
		return []byte{}
	}
	offBits := lzOffBits(len(src))
	var w bitstream.Writer
	for i := 0; i < len(src); {
		bestLen, bestOff := lzRefBestMatch(src, i)
		if bestLen >= lzMinMatch {
			w.WriteBit(1)
			w.WriteBits(uint64(bestOff-1), offBits)
			w.WriteBits(uint64(bestLen-lzMinMatch), lzLenBits)
			i += bestLen
		} else {
			w.WriteBit(0)
			w.WriteBits(uint64(src[i]), 8)
			i++
		}
		if w.Len() >= len(src) {
			return append([]byte{}, src...)
		}
	}
	return append([]byte{}, w.Bytes()...)
}
