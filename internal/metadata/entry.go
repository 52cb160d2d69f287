// Package metadata implements Compresso's per-OSPA-page translation
// metadata (§III of the paper): the bit-exact 64-byte entry format and
// the memory-controller metadata cache with the half-entry optimization
// of §IV-B5.
//
// Every main-memory access in a Compresso system consults one of these
// entries to translate an OSPA line address to its machine physical
// location. Entries live in a dedicated MPA region (64 B per 4 KB OSPA
// page, a 1.6% overhead) and are cached in the controller.
package metadata

import (
	"fmt"

	"compresso/internal/bitstream"
)

// Geometry constants from the paper.
const (
	// EntrySize is the metadata entry size in bytes (one cache line,
	// so an entry miss costs exactly one memory access).
	EntrySize = 64

	// HalfEntrySize is the portion cached for uncompressed pages: the
	// control word and chunk pointers fit in the first half, and all
	// line sizes are implicitly 64 B.
	HalfEntrySize = EntrySize / 2

	// MaxChunks is the number of 512 B machine chunks a page can span.
	MaxChunks = 8

	// MaxInflated is the number of inflation-room pointers (§III).
	MaxInflated = 17

	// LinesPerPage is the number of cache lines per 4 KB OSPA page.
	LinesPerPage = 64

	// ChunkSize is the MPA allocation unit in bytes.
	ChunkSize = 512

	// PageSize is the fixed OSPA page size in bytes.
	PageSize = 4096

	// MPFNBits is the width of a machine chunk pointer: 28 bits
	// address 2^28 512 B chunks = 128 GB of machine memory while
	// letting the control word and all eight pointers fit the first
	// 32 bytes of the entry (the half-entry boundary).
	MPFNBits = 28
)

// Entry is the decoded form of one metadata entry.
//
// Packed layout (MSB-first bit order within each half):
//
//	Half 1 (bytes 0..31):
//	  valid(1) zero(1) compressed(1) pageSizeCode(3) inflatedCount(6)
//	  freeSpace(12) spare(8) mpfn[8](28 each)
//	Half 2 (bytes 32..63):
//	  lineSizeCode[64](2 each)  inflated[17](6 each)  spare(26)
type Entry struct {
	Valid      bool // OSPA page is mapped in MPA
	Zero       bool // page is all zeros (no MPA storage)
	Compressed bool // false: page stored uncompressed (8 chunks)

	// PageSizeCode encodes the allocated size: (code+1) * 512 bytes,
	// i.e. the number of allocated chunks minus one.
	PageSizeCode uint8

	// InflatedCount is the number of valid inflation-room pointers.
	InflatedCount uint8

	// FreeSpace tracks the reclaimable bytes in the page, updated on
	// underflows so repacking can be triggered cheaply (§IV-B4). The
	// packed field is 12 bits, so it holds 0..PageSize-1.
	FreeSpace uint16

	// MPFN holds the machine chunk numbers backing the page; entries
	// past the allocated count are meaningless.
	MPFN [MaxChunks]uint32

	// LineSizeCode holds the 2-bit compressed-size bin code per line.
	LineSizeCode [LinesPerPage]uint8

	// Inflated lists the line indices stored uncompressed in the
	// inflation room, in room order; only the first InflatedCount are
	// valid.
	Inflated [MaxInflated]uint8
}

// Chunks returns the number of allocated 512 B chunks.
func (e *Entry) Chunks() int {
	if !e.Valid || e.Zero {
		return 0
	}
	return int(e.PageSizeCode) + 1
}

// AllocatedBytes returns the page's MPA footprint in bytes.
func (e *Entry) AllocatedBytes() int { return e.Chunks() * ChunkSize }

// Pack encodes the entry into dst, which must hold EntrySize bytes.
func (e *Entry) Pack(dst []byte) {
	if len(dst) < EntrySize {
		panic(fmt.Sprintf("metadata: Pack into %d bytes", len(dst)))
	}
	e.validate()
	w := bitstream.NewWriter(EntrySize)
	packBool := func(b bool) {
		if b {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
	}
	packBool(e.Valid)
	packBool(e.Zero)
	packBool(e.Compressed)
	w.WriteBits(uint64(e.PageSizeCode), 3)
	w.WriteBits(uint64(e.InflatedCount), 6)
	w.WriteBits(uint64(e.FreeSpace), 12)
	w.WriteBits(0, 8) // spare
	for _, m := range e.MPFN {
		w.WriteBits(uint64(m), MPFNBits)
	}
	if w.Len() != HalfEntrySize {
		panic(fmt.Sprintf("metadata: half 1 packed to %d bytes", w.Len()))
	}
	for _, c := range e.LineSizeCode {
		w.WriteBits(uint64(c), 2)
	}
	for _, l := range e.Inflated {
		w.WriteBits(uint64(l), 6)
	}
	w.WriteBits(0, 26) // spare
	if w.Len() != EntrySize {
		panic(fmt.Sprintf("metadata: packed to %d bytes", w.Len()))
	}
	copy(dst[:EntrySize], w.Bytes())
}

func (e *Entry) validate() {
	if e.PageSizeCode >= MaxChunks {
		panic(fmt.Sprintf("metadata: page size code %d", e.PageSizeCode))
	}
	if e.InflatedCount > MaxInflated {
		panic(fmt.Sprintf("metadata: inflated count %d", e.InflatedCount))
	}
	if int(e.FreeSpace) >= PageSize {
		panic(fmt.Sprintf("metadata: free space %d", e.FreeSpace))
	}
	for _, m := range e.MPFN {
		if m >= 1<<MPFNBits {
			panic(fmt.Sprintf("metadata: MPFN %#x exceeds %d bits", m, MPFNBits))
		}
	}
	for _, c := range e.LineSizeCode {
		if c >= 4 {
			panic(fmt.Sprintf("metadata: line size code %d", c))
		}
	}
	for _, l := range e.Inflated {
		if l >= LinesPerPage {
			panic(fmt.Sprintf("metadata: inflated line %d", l))
		}
	}
}

// Unpack decodes an entry from src (at least EntrySize bytes).
func Unpack(src []byte) (Entry, error) {
	var e Entry
	if len(src) < EntrySize {
		return e, fmt.Errorf("metadata: unpack from %d bytes", len(src))
	}
	r := bitstream.NewReader(src[:EntrySize])
	readBits := func(n int) uint64 {
		v, err := r.ReadBits(n)
		if err != nil {
			panic("metadata: unreachable short read") // length checked above
		}
		return v
	}
	e.Valid = readBits(1) == 1
	e.Zero = readBits(1) == 1
	e.Compressed = readBits(1) == 1
	e.PageSizeCode = uint8(readBits(3))
	e.InflatedCount = uint8(readBits(6))
	e.FreeSpace = uint16(readBits(12))
	readBits(8) // spare
	for i := range e.MPFN {
		e.MPFN[i] = uint32(readBits(MPFNBits))
	}
	for i := range e.LineSizeCode {
		e.LineSizeCode[i] = uint8(readBits(2))
	}
	for i := range e.Inflated {
		e.Inflated[i] = uint8(readBits(6))
	}
	if e.InflatedCount > MaxInflated {
		return e, fmt.Errorf("metadata: inflated count %d out of range", e.InflatedCount)
	}
	for i := uint8(0); i < e.InflatedCount; i++ {
		if e.Inflated[i] >= LinesPerPage {
			return e, fmt.Errorf("metadata: inflated pointer %d out of range", e.Inflated[i])
		}
	}
	return e, nil
}

// IsInflated reports whether line is in the inflation room and, if so,
// its position there.
func (e *Entry) IsInflated(line int) (pos int, ok bool) {
	for i := 0; i < int(e.InflatedCount); i++ {
		if int(e.Inflated[i]) == line {
			return i, true
		}
	}
	return 0, false
}

// AddInflated appends a line to the inflation room, returning its
// position, or ok=false when all pointers are in use.
func (e *Entry) AddInflated(line int) (pos int, ok bool) {
	if e.InflatedCount >= MaxInflated {
		return 0, false
	}
	e.Inflated[e.InflatedCount] = uint8(line)
	e.InflatedCount++
	return int(e.InflatedCount) - 1, true
}

// RemoveInflated removes a line from the inflation room if present,
// compacting the pointer list, and reports whether it was there.
func (e *Entry) RemoveInflated(line int) bool {
	pos, ok := e.IsInflated(line)
	if !ok {
		return false
	}
	copy(e.Inflated[pos:], e.Inflated[pos+1:int(e.InflatedCount)])
	e.InflatedCount--
	return true
}
