package sim

import (
	"testing"

	"compresso/internal/dram"
	"compresso/internal/faults"
	"compresso/internal/memctl"
	"compresso/internal/workload"
)

// benchAddrs is the length of the recorded demand-address stream the
// backend benchmarks replay cyclically (a power of two).
const benchAddrs = 1 << 14

// benchBackend installs a pristine gcc image (footprint scale 16) into
// a fresh controller of backend be and records a gcc demand-address
// stream over that footprint. The install builds or copies the image's
// size table, so the timed loop runs over warm sizes.
func benchBackend(b *testing.B, be memctl.Backend) (memctl.Controller, []uint64) {
	b.Helper()
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prof = workload.Scale(prof, 16)
	img := workload.NewImage(prof, 42)
	pages := img.FootprintPages()
	ctl := be.New(memctl.BuildParams{
		OSPAPages:      pages,
		MachineBytes:   be.MachineBytes(pages),
		FootprintScale: 16,
		Mem:            dram.New(dram.DDR4_2666()),
		Source:         img,
		Injector:       faults.New(faults.Config{}),
	})
	img.InstallInto(ctl)
	tr := workload.NewTrace(prof, 42, benchAddrs)
	addrs := make([]uint64, benchAddrs)
	var op workload.Op
	for i := range addrs {
		tr.Next(&op)
		addrs[i] = op.LineAddr
	}
	return ctl, addrs
}

// BenchmarkBackendReadLine times one demand read per op through every
// registered backend, over a warm installed image.
func BenchmarkBackendReadLine(b *testing.B) {
	for _, be := range memctl.Backends() {
		b.Run(be.Name, func(b *testing.B) {
			ctl, addrs := benchBackend(b, be)
			b.ReportAllocs()
			b.ResetTimer()
			for i, now := 0, uint64(0); i < b.N; i, now = i+1, now+40 {
				ctl.ReadLine(now, addrs[i&(benchAddrs-1)])
			}
		})
	}
}

// BenchmarkBackendWriteLine times one nil-data writeback per op (the
// line's size comes from the source) through every registered backend,
// over a warm installed image.
func BenchmarkBackendWriteLine(b *testing.B) {
	for _, be := range memctl.Backends() {
		b.Run(be.Name, func(b *testing.B) {
			ctl, addrs := benchBackend(b, be)
			b.ReportAllocs()
			b.ResetTimer()
			for i, now := 0, uint64(0); i < b.N; i, now = i+1, now+40 {
				ctl.WriteLine(now, addrs[i&(benchAddrs-1)], nil)
			}
		})
	}
}
