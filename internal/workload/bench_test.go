package workload

import (
	"testing"

	"compresso/internal/compress"
)

// BenchmarkImageSizeAll sizes every line of a fresh, already
// materialized gcc image under BPC, serially: the first-touch sizing
// that sim.PrepareAssets and the capacity tracker pay per image.
func BenchmarkImageSizeAll(b *testing.B) {
	p, err := ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p = Scale(p, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		im := NewImage(p, 42)
		im.Materialize(1)
		b.StartTimer()
		im.SizeAll(compress.BPC{}, 1)
	}
}
