package dram

import (
	"testing"

	"compresso/internal/rng"
)

var doneSink uint64

// BenchmarkDRAMAccess issues a pre-drawn zipf stream of line accesses
// (30% writes, one every 20 core cycles) to the default DDR4-2666
// memory: the per-access cost of address mapping, bank and bus timing
// and the stats.
func BenchmarkDRAMAccess(b *testing.B) {
	const n = 1 << 16
	m := New(DDR4_2666())
	r := rng.New(7)
	z := rng.NewZipf(r, 1<<18, 0.8)
	addrs := make([]uint64, n)
	writes := make([]bool, n)
	for i := range addrs {
		addrs[i] = uint64(z.Next())
		writes[i] = r.Bool(0.3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		now += 20
		doneSink = m.Access(now, addrs[i&(n-1)], writes[i&(n-1)])
	}
}
