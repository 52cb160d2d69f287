package cpu

import (
	"testing"

	"compresso/internal/cache"
	"compresso/internal/dram"
	"compresso/internal/memctl"
	"compresso/internal/workload"
)

// BenchmarkCoreStep steps one core (three-level hierarchy over the
// uncompressed controller and DDR4) through a pre-recorded gcc op
// stream at footprint scale 16, replayed cyclically: the per-op cost
// of the timing model with the trace generator out of the loop.
func BenchmarkCoreStep(b *testing.B) {
	const n = 1 << 16
	p, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p = workload.Scale(p, 16)
	tr := workload.NewTrace(p, 42, n)
	ops := make([]workload.Op, n)
	for i := range ops {
		tr.Next(&ops[i])
	}
	mem := dram.New(dram.DDR4_2666())
	c := New(DefaultConfig(), cache.NewHierarchy(cache.New("l3", 2<<20, 16)),
		memctl.NewUncompressed(mem), tr.Image())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(&ops[i&(n-1)])
	}
}
