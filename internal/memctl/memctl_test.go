package memctl

import (
	"testing"

	"compresso/internal/dram"
)

func TestUncompressedOneAccessPerOp(t *testing.T) {
	mem := dram.New(dram.DDR4_2666())
	u := NewUncompressed(mem)
	u.ReadLine(0, 5)
	u.WriteLine(100, 6, make([]byte, LineBytes))
	st := u.Stats()
	if st.DemandReads != 1 || st.DemandWrites != 1 {
		t.Fatalf("demand %+v", st)
	}
	if st.DataReads != 1 || st.DataWrites != 1 {
		t.Fatalf("data %+v", st)
	}
	if st.ExtraAccesses() != 0 {
		t.Fatalf("extra %d", st.ExtraAccesses())
	}
	if mem.Stats().Accesses() != 2 {
		t.Fatalf("dram accesses %d", mem.Stats().Accesses())
	}
}

func TestUncompressedRatioIsOne(t *testing.T) {
	u := NewUncompressed(dram.New(dram.DDR4_2666()))
	u.InstallPage(0)
	u.InstallPage(1)
	if r := CompressionRatio(u); r != 1 {
		t.Fatalf("ratio %v", r)
	}
	if u.InstalledBytes() != 2*PageSize {
		t.Fatalf("installed %d", u.InstalledBytes())
	}
}

func TestUncompressedResetStats(t *testing.T) {
	u := NewUncompressed(dram.New(dram.DDR4_2666()))
	u.ReadLine(0, 1)
	u.ResetStats()
	if u.Stats().DemandAccesses() != 0 {
		t.Fatal("stats survived reset")
	}
}

func TestCompressionRatioEmpty(t *testing.T) {
	u := NewUncompressed(dram.New(dram.DDR4_2666()))
	if CompressionRatio(u) != 1 {
		t.Fatal("empty controller ratio != 1")
	}
}

func TestStatsArithmetic(t *testing.T) {
	var s Stats
	if s.RelativeExtra() != 0 {
		t.Fatal("zero-demand relative extra != 0")
	}
	s.DemandReads = 10
	s.MetadataReads = 5
	if s.RelativeExtra() != 0.5 {
		t.Fatalf("relative extra %v", s.RelativeExtra())
	}
}

func TestReadLatencyOrdering(t *testing.T) {
	mem := dram.New(dram.DDR4_2666())
	u := NewUncompressed(mem)
	res := u.ReadLine(0, 0)
	if res.Done == 0 {
		t.Fatal("read completed instantly")
	}
}
