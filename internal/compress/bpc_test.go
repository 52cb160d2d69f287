package compress

import (
	"encoding/binary"
	"testing"
)

// Reference plane builders: the original one-bit-per-iteration
// scatter loops, retained as the executable specification for the
// fused delta-swap transpose network in bpc.go (buildBPCPlanes), and
// the 32-bit network it replaced, which transposes one variant at a
// time.

// bpcTranspose32 runs the delta-swap network over 32-bit rows; in
// position terms a'[r] bit p == a[31-p] bit (31-r).
func bpcTranspose32(a *[32]uint32) {
	m := uint32(0x0000ffff)
	for j := 16; j != 0; {
		for k := 0; k < 32; k = (k + j + 1) &^ j {
			t := (a[k] ^ (a[k+j] >> uint(j))) & m
			a[k] ^= t
			a[k+j] ^= t << uint(j)
		}
		j >>= 1
		m ^= m << uint(j)
	}
}

func refTransformedPlanes(words [WordsPerLine]uint32) [33]uint32 {
	const nDeltas = WordsPerLine - 1
	const nPlanes = 33
	var deltas [nDeltas]uint64
	for j := 0; j < nDeltas; j++ {
		d := int64(words[j+1]) - int64(words[j])
		deltas[j] = uint64(d) & (1<<33 - 1)
	}
	var ord [nPlanes]uint32
	for p := 0; p < nPlanes; p++ {
		var v uint32
		for j := 0; j < nDeltas; j++ {
			v |= uint32(deltas[j]>>uint(p)&1) << uint(j)
		}
		ord[nPlanes-1-p] = v
	}
	return ord
}

func refRawPlanes(words [WordsPerLine]uint32) [32]uint32 {
	const nPlanes = 32
	var ord [nPlanes]uint32
	for i := 0; i < nPlanes; i++ {
		p := nPlanes - 1 - i
		var v uint32
		for j := 0; j < WordsPerLine; j++ {
			v |= words[j] >> uint(p) & 1 << uint(j)
		}
		ord[i] = v
	}
	return ord
}

// TestBPCPlaneBuilders differentially tests the fused transpose-network
// plane builder against the reference builders over structured and
// random word patterns.
func TestBPCPlaneBuilders(t *testing.T) {
	cases := [][WordsPerLine]uint32{}

	var zero, ones, seq, alt [WordsPerLine]uint32
	for i := range seq {
		seq[i] = uint32(i * 0x01010101)
		ones[i] = ^uint32(0)
		alt[i] = 0xaaaa5555
	}
	cases = append(cases, zero, ones, seq, alt)

	// Single-bit probes: word j with only bit p set must land in plane
	// p bit j and nowhere else.
	for _, j := range []int{0, 1, 7, 15} {
		for _, p := range []int{0, 1, 16, 31} {
			var w [WordsPerLine]uint32
			w[j] = 1 << uint(p)
			cases = append(cases, w)
		}
	}

	// xorshift noise.
	x := uint64(12345)
	for n := 0; n < 64; n++ {
		var w [WordsPerLine]uint32
		for i := range w {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			w[i] = uint32(x)
		}
		cases = append(cases, w)
	}

	for ci, w := range cases {
		w := w
		var got bpcPlanes
		buildBPCPlanes(&w, &got)
		if want := refTransformedPlanes(w); got.t != want {
			t.Errorf("case %d: transformed planes diverge from reference\n got: %x\nwant: %x", ci, got.t, want)
		}
		if want := refRawPlanes(w); got.r != want {
			t.Errorf("case %d: raw planes diverge from reference\n got: %x\nwant: %x", ci, got.r, want)
		}
		// The fused network must equal two separate 32-bit transposes:
		// no bit crosses between the 64-bit rows' halves.
		var delta, raw [32]uint32
		for j := 0; j < WordsPerLine; j++ {
			if j < WordsPerLine-1 {
				delta[31-j] = w[j+1] - w[j]
			}
			raw[31-j] = w[j]
		}
		bpcTranspose32(&delta)
		bpcTranspose32(&raw)
		if [32]uint32(got.t[1:]) != delta || got.r != raw {
			t.Errorf("case %d: fused transpose diverges from two 32-bit transposes", ci)
		}
	}
}

// TestBPCKnownSizes pins a few absolute sizes so a symbol-cost change
// in countPlanes or encodePlanes cannot slip through as a matched
// pair of bugs.
func TestBPCKnownSizes(t *testing.T) {
	line := make([]byte, LineSize)
	for i := 0; i < WordsPerLine; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], uint32(100+i))
	}
	// Base 100 (SE16), all deltas 1: a known highly-compressible line.
	var dst [LineSize]byte
	n := (BPC{}).Compress(dst[:], line)
	if n <= 0 || n >= 16 {
		t.Errorf("sequential line compressed to %d bytes, want small nonzero", n)
	}
	if got := (BPC{}).SizeOnly(line); got != n {
		t.Errorf("SizeOnly = %d, Compress = %d", got, n)
	}
}

func BenchmarkBPCPlanes(b *testing.B) {
	lines := benchLines()
	words := make([][WordsPerLine]uint32, len(lines))
	for i, l := range lines {
		words[i] = loadWords(l)
	}
	var p bpcPlanes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildBPCPlanes(&words[i%len(words)], &p)
	}
}
