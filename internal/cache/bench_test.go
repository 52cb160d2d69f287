package cache

import (
	"testing"

	"compresso/internal/rng"
)

var hitSink bool

// BenchmarkCacheAccess drives one L3-shaped cache (2 MB, 16 ways) with
// a pre-drawn zipf stream of line addresses over a footprint four
// times its capacity, 30% writes: the per-access cost of the packed-way
// hit scan and LRU victim pass.
func BenchmarkCacheAccess(b *testing.B) {
	const n = 1 << 16
	c := New("l3", 2<<20, 16)
	r := rng.New(7)
	z := rng.NewZipf(r, 4*(2<<20)/LineSize, 0.8)
	addrs := make([]uint64, n)
	writes := make([]bool, n)
	for i := range addrs {
		addrs[i] = uint64(z.Next())
		writes[i] = r.Bool(0.3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hitSink, _, _ = c.Access(addrs[i&(n-1)], writes[i&(n-1)])
	}
}
