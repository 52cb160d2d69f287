package compress

import (
	"fmt"
	mathbits "math/bits"

	"compresso/internal/bitstream"
)

// BPC implements Bit-Plane Compression (Kim et al., ISCA 2016) adapted
// from the original 128-byte GPU granularity to 64-byte CPU cache lines
// as described in §II-A of the Compresso paper, including Compresso's
// modification: the line is compressed both with and without the
// Delta-Bitplane-XOR (DBX) transform, in parallel, and the smaller
// encoding wins (the paper reports this saves an average of 13% more
// memory than always applying the transform).
//
// Transformed pipeline for a 64 B line:
//
//	16 x 32-bit words -> base word + 15 deltas (33-bit two's complement)
//	-> 33 bit-planes of 15 bits -> XOR of adjacent planes (DBX)
//	-> per-plane symbol encoding (runs of zero planes, all-ones,
//	   single/double set bits, raw escape).
//
// The untransformed pipeline applies the same symbol encoder directly
// to the 32 bit-planes of the 16 raw words, which wins on data whose
// word-to-word deltas are noisy but whose bit-planes are uniform.
type BPC struct {
	// DisableBestOf forces the DBX transform unconditionally,
	// reproducing baseline BPC for the §II-A ablation.
	DisableBestOf bool
}

// Name implements Codec.
func (b BPC) Name() string {
	if b.DisableBestOf {
		return "bpc-baseline"
	}
	return "bpc"
}

// Variant header values (1 bit).
const (
	bpcVariantTransformed = 0
	bpcVariantRaw         = 1
)

// Base-word selector values (2 bits).
const (
	bpcBaseZero = 0 // base == 0, no payload
	bpcBaseSE4  = 1 // 4-bit sign-extended payload
	bpcBaseSE16 = 2 // 16-bit sign-extended payload
	bpcBaseRaw  = 3 // raw 32-bit payload
)

// Plane-symbol codes. The code set is prefix-free:
// 1, 01, 001, 00000, 00001, 00010, 00011.
// Adapted from Table 2 of the BPC paper with positions shrunk to 4 bits
// for our narrower (15/16-bit) planes.

const bpcPosBits = 4

// Compress implements Codec.
func (b BPC) Compress(dst, src []byte) int {
	var s Scratch
	return b.CompressScratch(dst, src, &s)
}

// CompressScratch implements ScratchCompressor: both best-of encodings
// run against the scratch's two writers, so steady-state compression
// performs no heap allocation.
func (b BPC) CompressScratch(dst, src []byte, s *Scratch) int {
	checkCompressArgs(dst, src)
	if IsZeroLine(src) {
		return 0
	}
	words := loadWords(src)
	var p bpcPlanes
	buildBPCPlanes(&words, &p)

	wT := &s.wa
	wT.Reset()
	encodeBPCTransformed(wT, words[0], &p.t)

	best := wT
	if !b.DisableBestOf {
		wR := &s.wb
		wR.Reset()
		encodeBPCRaw(wR, &p.r)
		if wR.Len() < wT.Len() {
			best = wR
		}
	}
	if best.Len() >= LineSize {
		copy(dst[:LineSize], src)
		return LineSize
	}
	copy(dst, best.Bytes())
	return best.Len()
}

// SizeOnly implements Sizer: it counts the bits both best-of variants
// would emit without materializing either stream. Equality with
// Compress is pinned by FuzzCodecSizeOnly. Note the best-of compare is
// on byte lengths (as in CompressScratch), with ties going to the
// transformed variant.
func (b BPC) SizeOnly(src []byte) int {
	checkLine(src)
	if IsZeroLine(src) {
		return 0
	}
	words := loadWords(src)
	var p bpcPlanes
	buildBPCPlanes(&words, &p)
	best := (countBPCTransformed(words[0], &p.t) + 7) / 8
	if !b.DisableBestOf {
		if lenR := (countBPCRaw(&p.r) + 7) / 8; lenR < best {
			best = lenR
		}
	}
	if best >= LineSize {
		return LineSize
	}
	return best
}

// bpcPlanes holds both best-of variants' bit-planes in encode order
// (MSB plane first): t the 33 delta planes of the transformed variant
// (plane p holds bit p of every 33-bit two's-complement word-to-word
// delta, delta j in plane bit j), r the 32 planes of the raw words.
type bpcPlanes struct {
	t [33]uint32
	r [32]uint32
}

// buildBPCPlanes builds both plane sets with one pass of the recursive
// delta-swap bit-matrix transpose network (Hacker's Delight §7-3) over
// 64-bit rows: row 31-j holds delta j's low 32 bits in its low half
// and raw word j in its high half. Every mask repeats in both halves,
// so no bit crosses between them and the one network performs two
// independent 32x32 transposes. In position terms each half satisfies
//
//	a'[r] bit p == a[31-p] bit (31-r)
//
// so row 31-q ends up holding bit-plane q of both variants, already in
// encode order. Delta plane 32 (the sign bit) is gathered scalarly.
// TestBPCPlaneBuilders pins this against the scalar reference builders
// and against two separate 32-bit transposes.
func buildBPCPlanes(words *[WordsPerLine]uint32, p *bpcPlanes) {
	var a [32]uint64
	var top uint32
	for j := 0; j < WordsPerLine-1; j++ {
		d := uint64(int64(words[j+1]) - int64(words[j]))
		a[31-j] = uint64(words[j])<<32 | uint64(uint32(d))
		top |= uint32(d>>32&1) << uint(j)
	}
	a[31-(WordsPerLine-1)] = uint64(words[WordsPerLine-1]) << 32
	bpcSwapStage(&a, 16, 0x0000ffff0000ffff)
	bpcSwapStage(&a, 8, 0x00ff00ff00ff00ff)
	bpcSwapStage(&a, 4, 0x0f0f0f0f0f0f0f0f)
	bpcSwapStage(&a, 2, 0x3333333333333333)
	bpcSwapStage(&a, 1, 0x5555555555555555)
	p.t[0] = top
	for i, row := range a {
		p.t[i+1] = uint32(row)
		p.r[i] = uint32(row >> 32)
	}
}

// bpcSwapStage is one stage of the transpose network: it swaps the
// j-bit blocks selected by m between rows k and k+j. Inlined at each
// call with a constant j, so every shift is a constant.
func bpcSwapStage(a *[32]uint64, j int, m uint64) {
	for k := 0; k < 32; k = (k + j + 1) &^ j {
		t := (a[k] ^ a[k+j]>>uint(j)) & m
		a[k] ^= t
		a[k+j] ^= t << uint(j)
	}
}

func encodeBPCTransformed(w *bitstream.Writer, base uint32, planes *[33]uint32) {
	w.WriteBits(bpcVariantTransformed, 1)
	encodeBPCBase(w, base)
	encodePlanes(w, planes[:], WordsPerLine-1, true)
}

func encodeBPCRaw(w *bitstream.Writer, planes *[32]uint32) {
	w.WriteBits(bpcVariantRaw, 1)
	encodePlanes(w, planes[:], WordsPerLine, false)
}

func countBPCTransformed(base uint32, planes *[33]uint32) int {
	return 1 + countBPCBase(base) + countPlanes(planes[:], WordsPerLine-1, true)
}

func countBPCRaw(planes *[32]uint32) int {
	return 1 + countPlanes(planes[:], WordsPerLine, false)
}

func encodeBPCBase(w *bitstream.Writer, base uint32) {
	switch {
	case base == 0:
		w.WriteBits(bpcBaseZero, 2)
	case seFits(base, 4):
		w.WriteBits(bpcBaseSE4, 2)
		w.WriteBits(uint64(base&0xf), 4)
	case seFits(base, 16):
		w.WriteBits(bpcBaseSE16, 2)
		w.WriteBits(uint64(base&0xffff), 16)
	default:
		w.WriteBits(bpcBaseRaw, 2)
		w.WriteBits(uint64(base), 32)
	}
}

// countBPCBase returns the bit count encodeBPCBase would emit.
func countBPCBase(base uint32) int {
	switch {
	case base == 0:
		return 2
	case seFits(base, 4):
		return 2 + 4
	case seFits(base, 16):
		return 2 + 16
	default:
		return 2 + 32
	}
}

// encodePlanes writes the symbol stream for planes (already in encode
// order, MSB plane first). width is the number of significant bits per
// plane. When chain is set, the DBX transform is applied: the emitted
// symbol for plane i covers dbx = plane[i] XOR plane[i-1] (plane[-1]
// taken as zero), and the special "DBX!=0 but DBP==0" symbol may fire.
func encodePlanes(w *bitstream.Writer, planes []uint32, width int, chain bool) {
	allOnes := uint32(1)<<uint(width) - 1
	prev := uint32(0)
	for i := 0; i < len(planes); {
		dbp := planes[i]
		dbx := dbp
		if chain {
			dbx = dbp ^ prev
		}
		if dbx == 0 {
			// Count the zero-DBX run.
			run := 1
			p2 := dbp
			for i+run < len(planes) && run < 33 {
				next := planes[i+run]
				ndbx := next
				if chain {
					ndbx = next ^ p2
				}
				if ndbx != 0 {
					break
				}
				p2 = next
				run++
			}
			if run >= 2 {
				w.WriteBits(0b001, 3)
				w.WriteBits(uint64(run-2), 5)
			} else {
				w.WriteBits(0b01, 2)
			}
			i += run
			prev = p2
			continue
		}
		switch {
		case dbx == allOnes:
			w.WriteBits(0b00000, 5)
		case chain && dbp == 0:
			w.WriteBits(0b00001, 5)
		case isTwoConsecutiveOnes(dbx):
			w.WriteBits(0b00010, 5)
			w.WriteBits(uint64(trailingZeros32(dbx)), bpcPosBits)
		case dbx&(dbx-1) == 0:
			w.WriteBits(0b00011, 5)
			w.WriteBits(uint64(trailingZeros32(dbx)), bpcPosBits)
		default:
			w.WriteBits(0b1, 1)
			w.WriteBits(uint64(dbx), width)
		}
		prev = dbp
		i++
	}
}

// countPlanes returns the bit count encodePlanes would emit for the
// same plane sequence. The two walk the symbol stream identically; the
// only divergence allowed is that this one never touches a writer.
func countPlanes(planes []uint32, width int, chain bool) int {
	allOnes := uint32(1)<<uint(width) - 1
	prev := uint32(0)
	bits := 0
	for i := 0; i < len(planes); {
		dbp := planes[i]
		dbx := dbp
		if chain {
			dbx = dbp ^ prev
		}
		if dbx == 0 {
			run := 1
			p2 := dbp
			for i+run < len(planes) && run < 33 {
				next := planes[i+run]
				ndbx := next
				if chain {
					ndbx = next ^ p2
				}
				if ndbx != 0 {
					break
				}
				p2 = next
				run++
			}
			if run >= 2 {
				bits += 3 + 5
			} else {
				bits += 2
			}
			i += run
			prev = p2
			continue
		}
		switch {
		case dbx == allOnes:
			bits += 5
		case chain && dbp == 0:
			bits += 5
		case isTwoConsecutiveOnes(dbx):
			bits += 5 + bpcPosBits
		case dbx&(dbx-1) == 0:
			bits += 5 + bpcPosBits
		default:
			bits += 1 + width
		}
		prev = dbp
		i++
	}
	return bits
}

func isTwoConsecutiveOnes(v uint32) bool {
	t := trailingZeros32(v)
	return v == 3<<uint(t)
}

func trailingZeros32(v uint32) int {
	return mathbits.TrailingZeros32(v)
}

// Decompress implements Codec.
func (b BPC) Decompress(dst, src []byte) error {
	checkLine(dst)
	switch {
	case len(src) == 0:
		for i := range dst {
			dst[i] = 0
		}
		return nil
	case len(src) == LineSize:
		copy(dst, src)
		return nil
	}
	r := bitstream.NewReader(src)
	variant, err := r.ReadBits(1)
	if err != nil {
		return fmt.Errorf("bpc: truncated header: %w", err)
	}
	var words [WordsPerLine]uint32
	switch variant {
	case bpcVariantTransformed:
		base, err := decodeBPCBase(r)
		if err != nil {
			return err
		}
		const nDeltas = WordsPerLine - 1
		const nPlanes = 33
		ord, err := decodePlanes(r, nPlanes, nDeltas, true)
		if err != nil {
			return err
		}
		// Undo plane ordering and rebuild deltas.
		var deltas [nDeltas]uint64
		for i, plane := range ord {
			p := nPlanes - 1 - i
			for j := 0; j < nDeltas; j++ {
				deltas[j] |= uint64(plane>>uint(j)&1) << uint(p)
			}
		}
		words[0] = base
		for j := 0; j < nDeltas; j++ {
			d := int64(deltas[j])
			if d&(1<<32) != 0 {
				d -= 1 << 33
			}
			words[j+1] = uint32(int64(words[j]) + d)
		}
	case bpcVariantRaw:
		const nPlanes = 32
		ord, err := decodePlanes(r, nPlanes, WordsPerLine, false)
		if err != nil {
			return err
		}
		for i, plane := range ord {
			p := nPlanes - 1 - i
			for j := 0; j < WordsPerLine; j++ {
				words[j] |= plane >> uint(j) & 1 << uint(p)
			}
		}
	}
	storeWords(dst, words)
	return nil
}

func decodeBPCBase(r *bitstream.Reader) (uint32, error) {
	sel, err := r.ReadBits(2)
	if err != nil {
		return 0, fmt.Errorf("bpc: truncated base selector: %w", err)
	}
	switch sel {
	case bpcBaseZero:
		return 0, nil
	case bpcBaseSE4:
		v, err := r.ReadBits(4)
		if err != nil {
			return 0, fmt.Errorf("bpc: truncated base: %w", err)
		}
		return uint32(int32(v<<28) >> 28), nil
	case bpcBaseSE16:
		v, err := r.ReadBits(16)
		if err != nil {
			return 0, fmt.Errorf("bpc: truncated base: %w", err)
		}
		return uint32(int32(v<<16) >> 16), nil
	default:
		v, err := r.ReadBits(32)
		if err != nil {
			return 0, fmt.Errorf("bpc: truncated base: %w", err)
		}
		return uint32(v), nil
	}
}

// decodePlanes reads count planes of the given width, undoing the DBX
// chaining when chain is set, and returns them in encode order.
func decodePlanes(r *bitstream.Reader, count, width int, chain bool) ([]uint32, error) {
	allOnes := uint32(1)<<uint(width) - 1
	planes := make([]uint32, 0, count)
	prev := uint32(0)
	emit := func(dbx uint32) {
		dbp := dbx
		if chain {
			dbp = dbx ^ prev
		}
		planes = append(planes, dbp)
		prev = dbp
	}
	for len(planes) < count {
		b0, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("bpc: truncated plane symbol at %d: %w", len(planes), err)
		}
		if b0 == 1 { // raw plane
			v, err := r.ReadBits(width)
			if err != nil {
				return nil, fmt.Errorf("bpc: truncated raw plane: %w", err)
			}
			emit(uint32(v))
			continue
		}
		b1, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("bpc: truncated plane symbol: %w", err)
		}
		if b1 == 1 { // 01: single zero-DBX plane
			emit(0)
			continue
		}
		b2, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("bpc: truncated plane symbol: %w", err)
		}
		if b2 == 1 { // 001: zero-DBX run
			rl, err := r.ReadBits(5)
			if err != nil {
				return nil, fmt.Errorf("bpc: truncated run length: %w", err)
			}
			run := int(rl) + 2
			if len(planes)+run > count {
				return nil, fmt.Errorf("bpc: zero run of %d overflows %d planes", run, count)
			}
			for k := 0; k < run; k++ {
				emit(0)
			}
			continue
		}
		// 000xx: five-bit symbols.
		rest, err := r.ReadBits(2)
		if err != nil {
			return nil, fmt.Errorf("bpc: truncated plane symbol: %w", err)
		}
		switch rest {
		case 0b00: // all ones
			emit(allOnes)
		case 0b01: // DBX != 0 but DBP == 0
			if !chain {
				return nil, fmt.Errorf("bpc: DBP symbol in unchained stream")
			}
			planes = append(planes, 0)
			prev = 0
		case 0b10, 0b11: // two consecutive ones / single one
			pos, err := r.ReadBits(bpcPosBits)
			if err != nil {
				return nil, fmt.Errorf("bpc: truncated position: %w", err)
			}
			v := uint32(1) << uint(pos)
			if rest == 0b10 {
				v |= v << 1
			}
			if v&^allOnes != 0 {
				return nil, fmt.Errorf("bpc: position %d exceeds plane width %d", pos, width)
			}
			emit(v)
		}
	}
	return planes, nil
}
