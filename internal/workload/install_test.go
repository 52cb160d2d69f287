package workload_test

import (
	"reflect"
	"testing"

	"compresso/internal/dram"
	"compresso/internal/faults"
	"compresso/internal/fleet"
	"compresso/internal/memctl"
	"compresso/internal/workload"

	// The backends register themselves for memctl.LookupBackend.
	_ "compresso/internal/core"
	_ "compresso/internal/cram"
	_ "compresso/internal/cxl"
	_ "compresso/internal/lcp"
)

// newInstalled builds backend over a fresh pristine image of prof and
// installs the image into it.
func newInstalled(tb testing.TB, backend string, prof workload.Profile, seed uint64) memctl.Controller {
	tb.Helper()
	img := workload.NewImage(prof, seed)
	ctl := newController(tb, backend, img)
	img.InstallInto(ctl)
	return ctl
}

func newController(tb testing.TB, backend string, img *workload.Image) memctl.Controller {
	tb.Helper()
	b, ok := memctl.LookupBackend(backend)
	if !ok {
		tb.Fatalf("backend %q not registered", backend)
	}
	pages := img.FootprintPages()
	return b.New(memctl.BuildParams{
		OSPAPages:      pages,
		MachineBytes:   b.MachineBytes(pages),
		FootprintScale: 1,
		Mem:            dram.New(dram.DDR4_2666()),
		Source:         img,
		Injector:       faults.New(faults.Config{}),
	})
}

// TestInstallWarmKeyGeneratesNoPages pins that installation reads
// sizes, not bytes: once one pristine image of a key has installed
// into a backend (building the key's size table for the backend's
// codec), a second pristine image of that key installs into the same
// backend without generating a single page, and lays out the same.
func TestInstallWarmKeyGeneratesNoPages(t *testing.T) {
	prof, err := workload.ByName("soplex")
	if err != nil {
		t.Fatal(err)
	}
	prof = workload.Scale(prof, 32)
	for _, backend := range []string{"compresso", "lcp", "cram", "cxl", "uncompressed"} {
		t.Run(backend, func(t *testing.T) {
			first := newInstalled(t, backend, prof, 0x1a57)
			before := workload.GeneratedPages()
			second := newInstalled(t, backend, prof, 0x1a57)
			if n := workload.GeneratedPages() - before; n != 0 {
				t.Fatalf("installing a second pristine image generated %d pages", n)
			}
			if a, b := first.CompressedBytes(), second.CompressedBytes(); a != b {
				t.Fatalf("second install holds %d compressed bytes, first %d", b, a)
			}
		})
	}
}

// TestFleetWarmNodeGeneratesNoPages pins that a fleet node reads
// sizes, never page bytes (DESIGN.md §15): once one fleet run has built
// its images' size tables, an identical second run over the five fleet
// backends generates no page, cold writes and demotions included, and
// yields the same result.
func TestFleetWarmNodeGeneratesNoPages(t *testing.T) {
	pol, err := fleet.PolicyByName("aggressive")
	if err != nil {
		t.Fatal(err)
	}
	var nodes []fleet.NodeSpec
	for i, backend := range []string{"compresso", "lcp", "cram", "cxl", "uncompressed"} {
		nodes = append(nodes, fleet.NodeSpec{ID: i, Bench: "gcc", Backend: backend, Weight: 1, Seed: 0xf1ee7})
	}
	cfg := fleet.Config{Nodes: nodes, Policy: pol, Epochs: 4, OpsPerEpoch: 400, FootprintScale: 16, Jobs: 1}
	first, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := workload.GeneratedPages()
	second, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := workload.GeneratedPages() - before; n != 0 {
		t.Fatalf("a warm fleet run generated %d pages", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("warm run differs from the first:\nfirst  %+v\nsecond %+v", first, second)
	}
	for _, n := range second.Nodes {
		if n.ColdWrites == 0 || n.Demotions == 0 {
			t.Fatalf("node %s made %d cold writes and %d demotions; the test needs both",
				n.Backend, n.ColdWrites, n.Demotions)
		}
	}
}

// BenchmarkImageInstall installs a fresh pristine gcc image (scale 16)
// into a freshly built controller, with the key's size table warm: the
// per-run setup cost of a warm start. Image and controller
// construction are outside the timer.
func BenchmarkImageInstall(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prof = workload.Scale(prof, 16)
	for _, backend := range []string{"compresso", "cram", "uncompressed"} {
		b.Run(backend, func(b *testing.B) {
			newInstalled(b, backend, prof, 42) // warm the key's size table
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				img := workload.NewImage(prof, 42)
				ctl := newController(b, backend, img)
				b.StartTimer()
				img.InstallInto(ctl)
			}
		})
	}
}
