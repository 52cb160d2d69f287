package compress

import (
	"bytes"
	"fmt"
	"testing"

	"compresso/internal/rng"
)

// checkLZMatchesReference fails t unless the hash-chain compress and
// size walks agree with the brute-force reference on src: the same
// compressed bytes, and LZSizeBlock equal to their length.
func checkLZMatchesReference(t *testing.T, src []byte) {
	t.Helper()
	want := lzRefCompressBlock(src)
	dst := make([]byte, len(src))
	n := LZCompressBlock(dst, src)
	if !bytes.Equal(dst[:n], want) {
		t.Fatalf("%d-byte block: LZCompressBlock wrote %d bytes, reference %d bytes (equal length: contents differ)", len(src), n, len(want))
	}
	if got := LZSizeBlock(src); got != len(want) {
		t.Fatalf("%d-byte block: LZSizeBlock = %d, reference length %d", len(src), got, len(want))
	}
}

// collidingTriples returns n distinct 3-byte strings that all land in
// one bucket of the matcher's hash at the given table size.
func collidingTriples(hashBits, n int) [][]byte {
	m := lzMatcher{shift: uint(32 - hashBits)}
	var out [][]byte
	want := uint32(0)
	for v := 0; len(out) < n; v++ {
		tr := []byte{byte(v), byte(v >> 8), byte(v >> 16)}
		m.src = tr
		if h := m.hash(0); len(out) == 0 {
			want = h
		} else if h != want {
			continue
		}
		out = append(out, tr)
	}
	return out
}

// TestLZMatchesReference holds the hash-chain matcher to the brute-
// force reference over random blocks of 1 B to 4 KiB, a block longer
// than the stack tables, and inputs built to stress the chains:
// single-byte runs, short periods, a ramp with no repeats, and triples
// that collide in the hash.
func TestLZMatchesReference(t *testing.T) {
	blocks := map[string][]byte{}
	r := rng.New(12)
	for k := 0; k < 150; k++ {
		size := 1 + r.Intn(4096)
		src := make([]byte, size)
		// Small alphabets make long chains of true and partial matches.
		alphabet := 1 + r.Intn(16)
		for i := range src {
			if r.Intn(8) == 0 {
				src[i] = byte(r.Uint32())
			} else {
				src[i] = byte(r.Intn(alphabet))
			}
		}
		blocks[fmt.Sprintf("random-%d/%dB", k, size)] = src
	}
	long := make([]byte, 9000)
	for i := range long {
		long[i] = byte(r.Intn(4))
	}
	blocks["long-9000B"] = long

	for _, size := range []int{3, 64, 1024, 4096} {
		blocks[fmt.Sprintf("repeat/%dB", size)] = bytes.Repeat([]byte{0x5a}, size)
		for _, period := range []int{2, 3, 7} {
			src := make([]byte, size)
			for i := range src {
				src[i] = byte(1 + i%period)
			}
			blocks[fmt.Sprintf("period-%d/%dB", period, size)] = src
		}
		ramp := make([]byte, size)
		for i := range ramp {
			ramp[i] = byte(i)
		}
		blocks[fmt.Sprintf("ramp/%dB", size)] = ramp
	}
	for _, c := range []struct{ hashBits, size int }{
		{lzLineHashBits, 64}, {lzBlockHashBits, 1024},
	} {
		triples := collidingTriples(c.hashBits, 24)
		src := make([]byte, 0, c.size)
		for len(src) < c.size {
			src = append(src, triples[r.Intn(len(triples))]...)
		}
		blocks[fmt.Sprintf("collide-%dbits/%dB", c.hashBits, c.size)] = src[:c.size]
	}

	for name, src := range blocks {
		t.Run(name, func(t *testing.T) { checkLZMatchesReference(t, src) })
	}
}
