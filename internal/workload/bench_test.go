package workload

import (
	"testing"

	"compresso/internal/compress"
	"compresso/internal/memctl"
)

func benchProfile(b *testing.B) Profile {
	p, err := ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	return Scale(p, 16)
}

// BenchmarkImageSizeAll sizes every line of a fresh, already
// materialized gcc image under BPC, serially, with the pristine size
// tables out of the loop (every image stores once before it binds):
// the sizing a table build pays once per key.
func BenchmarkImageSizeAll(b *testing.B) {
	p := benchProfile(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		im := NewImage(p, 42)
		im.Materialize(1)
		im.noteStore(0)
		b.StartTimer()
		im.SizeAll(compress.BPC{}, 1)
	}
}

// BenchmarkImageBind binds a fresh gcc image's size memo under BPC
// through SizeLine, as a controller's install does. cold: the key's
// pristine table does not exist yet, so the bind generates and sizes
// every line to build it (and the table is dropped again). warm: the
// table exists, so the bind is one copy of it.
func BenchmarkImageBind(b *testing.B) {
	p := benchProfile(b)
	codec := compress.BPC{}
	const seed = 0xb10d
	key := sizeKey{name: p.Name, pages: p.FootprintPages, seed: seed, mix: p.PageMix(), codec: codec.Name()}
	drop := func() {
		sizeTables.mu.Lock()
		if _, ok := sizeTables.m[key]; ok {
			delete(sizeTables.m, key)
			sizeTables.bytes -= int64(p.FootprintPages) * memctl.LinesPerPage
		}
		sizeTables.mu.Unlock()
	}
	// A clone of an image that was never generated or sized is a fresh
	// image, without NewImage's page-mix solve.
	fresh := NewImage(p, seed)
	run := func(b *testing.B, warm bool) {
		drop()
		if warm {
			fresh.Clone().SizeLine(codec, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !warm {
				drop()
			}
			fresh.Clone().SizeLine(codec, 0)
		}
		b.StopTimer()
		drop()
	}
	b.Run("cold", func(b *testing.B) { run(b, false) })
	b.Run("warm", func(b *testing.B) { run(b, true) })
}

// BenchmarkTraceNext draws ops from a gcc trace at scale 16 over an
// already materialized image: the per-op cost of the generator (RNG,
// zipf page pick, run walk) and of applying stores to the image.
func BenchmarkTraceNext(b *testing.B) {
	p := benchProfile(b)
	tr := NewTrace(p, 42, uint64(b.N))
	tr.Image().Materialize(1)
	var op Op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Next(&op)
	}
}
