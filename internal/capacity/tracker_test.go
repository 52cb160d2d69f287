package capacity

import (
	"strings"
	"testing"

	"compresso/internal/compress"
	"compresso/internal/memctl"
	"compresso/internal/rng"
	"compresso/internal/workload"
)

// expandingCodec models a future codec or granularity change whose
// compressed size does not fit a byte.
type expandingCodec struct{}

func (expandingCodec) Name() string                 { return "expanding-test" }
func (expandingCodec) Compress(dst, src []byte) int { panic("expandingCodec: not used") }
func (expandingCodec) Decompress(dst, src []byte) error {
	panic("expandingCodec: not used")
}
func (expandingCodec) SizeOnly(src []byte) int { return 300 }

// TestRawSizeRejectsOversizedLine pins the tracker's uint8 narrowing:
// a compressed size that does not fit a byte must panic loudly (like
// experiments.lineSize8), not truncate 300 to 44 and silently price
// every storage model with garbage.
func TestRawSizeRejectsOversizedLine(t *testing.T) {
	prof, err := workload.ByName("soplex")
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracker{img: workload.NewImage(prof, 1), codec: expandingCodec{}}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("rawSize accepted a 300-byte line size without panicking")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "300") {
			t.Fatalf("rawSize panic %v does not name the offending size", r)
		}
	}()
	tr.rawSize(0)
}

// TestLCPPageBytesClampsAt4096 pins LCPPageBytes' terminal clamp to
// the 4096 B uncompressed page. Every bin set starts at a 0 B target,
// so a 64-line all-exception page prices at exactly 64*64 = 4096 B
// pre-round; a longer vector (128 incompressible lines: 8192 B at
// every target) must clamp down to 4096 rather than invent a page size
// above uncompressed.
func TestLCPPageBytesClampsAt4096(t *testing.T) {
	raws := make([]uint8, memctl.LinesPerPage)
	for i := range raws {
		raws[i] = 255
	}
	for _, bins := range []compress.Bins{compress.LegacyBins, compress.CompressoBins} {
		if got := LCPPageBytes(raws, bins); got != memctl.PageSize {
			t.Fatalf("%v: all-exception page priced at %d, want %d", bins, got, memctl.PageSize)
		}
	}
	long := make([]uint8, 2*memctl.LinesPerPage)
	for i := range long {
		long[i] = compress.LineSize
	}
	for _, bins := range []compress.Bins{compress.LegacyBins, compress.CompressoBins} {
		if got := LCPPageBytes(long, bins); got != memctl.PageSize {
			t.Fatalf("%v: oversize vector priced at %d, want clamp to %d", bins, got, memctl.PageSize)
		}
	}
}

// TestLCPNeverExceedsUncompressed sweeps randomized line-size vectors
// and checks the invariant the capacity report relies on: the LCP and
// LCP-align page prices never exceed the 4096 B uncompressed page, so
// their tracker totals cannot either.
func TestLCPNeverExceedsUncompressed(t *testing.T) {
	r := rng.New(42)
	raws := make([]uint8, memctl.LinesPerPage)
	for trial := 0; trial < 2000; trial++ {
		for i := range raws {
			// Mix in-contract sizes (0..64) with out-of-range bytes so
			// the bound holds even for inputs a future codec might feed.
			if trial%2 == 0 {
				raws[i] = uint8(r.Uint64() % 65)
			} else {
				raws[i] = uint8(r.Uint64())
			}
		}
		for _, bins := range []compress.Bins{compress.LegacyBins, compress.CompressoBins} {
			if got := LCPPageBytes(raws, bins); got < 0 || got > memctl.PageSize {
				t.Fatalf("trial %d %v: page priced at %d, outside [0, %d]", trial, bins, got, memctl.PageSize)
			}
		}
	}
}

// FuzzLCPPageBytesBounded fuzzes arbitrary line-size vectors through
// both LCP bin sets: prices must stay within [0, PageSize].
func FuzzLCPPageBytesBounded(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, memctl.LinesPerPage))
	all255 := make([]byte, memctl.LinesPerPage)
	for i := range all255 {
		all255[i] = 255
	}
	f.Add(all255)
	f.Fuzz(func(t *testing.T, data []byte) {
		raws := make([]uint8, memctl.LinesPerPage)
		copy(raws, data)
		for _, bins := range []compress.Bins{compress.LegacyBins, compress.CompressoBins} {
			if got := LCPPageBytes(raws, bins); got < 0 || got > memctl.PageSize {
				t.Fatalf("%v: page priced at %d, outside [0, %d]", bins, got, memctl.PageSize)
			}
		}
	})
}
