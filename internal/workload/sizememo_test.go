package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"compresso/internal/compress"
	"compresso/internal/memctl"
)

// testSeeds hands out image seeds no earlier test in the process has
// used, so a test's first bind always meets a key without a table,
// also when the test repeats under -count.
var testSeeds atomic.Uint64

func freshSeed() uint64 { return 0x0a11_0000 + testSeeds.Add(1) }

// memoDelta runs f and returns how the process-wide size tables'
// stats moved across it.
func memoDelta(f func()) SizeMemo {
	before := SizeMemoStats()
	f()
	after := SizeMemoStats()
	return SizeMemo{
		Tables: after.Tables - before.Tables,
		Bytes:  after.Bytes - before.Bytes,
		Hits:   after.Hits - before.Hits,
		Misses: after.Misses - before.Misses,
	}
}

// checkMemoOracle fails unless SizeLine equals direct sizing of the
// image's live content on every line.
func checkMemoOracle(t *testing.T, what string, im *Image, codec compress.Codec) {
	t.Helper()
	for l := uint64(0); l < im.Lines(); l++ {
		if got, want := im.SizeLine(codec, l), compress.SizeOnly(codec, im.Line(l)); got != want {
			t.Fatalf("%s: line %d: SizeLine %d, SizeOnly %d", what, l, got, want)
		}
	}
}

// TestSizeLineMatchesSizeOnly is the oracle for the shared pristine
// size tables: for every profile at scale 16, SizeLine equals
// compress.SizeOnly on every line, both for the image that builds its
// key's table and for a later image that starts as a copy of it.
func TestSizeLineMatchesSizeOnly(t *testing.T) {
	codec := compress.BPC{}
	seed := freshSeed()
	for i, p := range All() {
		p = Scale(p, 16)
		builder := NewImage(p, seed)
		d := memoDelta(func() { builder.SizeLine(codec, 0) })
		if d.Tables != 1 || d.Misses != 1 || d.Hits != 0 || d.Bytes != int64(builder.Lines()) {
			t.Fatalf("%s: first bind %+v, want one new table of %d bytes built by this image", p.Name, d, builder.Lines())
		}
		checkMemoOracle(t, p.Name+" (table-building image)", builder, codec)

		copier := NewImage(p, seed)
		bind := func() { copier.SizeLine(codec, 0) }
		if i%2 == 1 {
			bind = func() { copier.SizeAll(codec, 2) }
		}
		if d := memoDelta(bind); d.Tables != 0 || d.Hits != 1 || d.Misses != 0 {
			t.Fatalf("%s: second bind %+v, want one copy of the existing table", p.Name, d)
		}
		checkMemoOracle(t, p.Name+" (table-copying image)", copier, codec)
	}
}

// TestSizeTableKeyIsolation pins the table key: changing any one of
// the profile name, the page count, the seed, the page mix or the
// codec never hands an image another key's table.
func TestSizeTableKeyIsolation(t *testing.T) {
	seed := freshSeed()
	base, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	base = Scale(base, 16)
	bpc := compress.BPC{}
	NewImage(base, seed).SizeAll(bpc, 1)

	renamed := base
	renamed.Name = "gcc-renamed"
	remixed := base
	remixed.TargetRatio = 1.4
	if remixed.PageMix() == base.PageMix() {
		t.Fatal("test setup: the remixed profile kept gcc's page mix")
	}
	cases := []struct {
		name  string
		prof  Profile
		seed  uint64
		codec compress.Codec
	}{
		{"name", renamed, seed, bpc},
		{"pages", Scale(base, 2), seed, bpc},
		{"seed", base, freshSeed(), bpc},
		{"mix", remixed, seed, bpc},
		{"codec bpc-baseline", base, seed, compress.BPC{DisableBestOf: true}},
		{"codec bdi", base, seed, compress.BDI{}},
	}
	for _, c := range cases {
		im := NewImage(c.prof, c.seed)
		d := memoDelta(func() { im.SizeLine(c.codec, 0) })
		if d.Hits != 0 || d.Tables != 1 || d.Misses != 1 {
			t.Errorf("%s: bind %+v, want a new table of its own", c.name, d)
		}
		checkMemoOracle(t, c.name, im, c.codec)
	}
}

// TestStoredBeforeBindSizesLazily pins the mutated-image rule: an
// image stored to before its memo binds does not start from the
// pristine table, so its stored lines never report pristine sizes.
func TestStoredBeforeBindSizesLazily(t *testing.T) {
	seed := freshSeed()
	p, err := ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	p = Scale(p, 16)
	codec := compress.BPC{}
	pristine := NewImage(p, seed)
	pristine.SizeAll(codec, 1)

	tr := NewTrace(p, seed, 20_000)
	var stored []uint64
	var op Op
	for i := 0; i < 20_000; i++ {
		tr.Next(&op)
		if op.Write {
			stored = append(stored, op.LineAddr)
		}
	}
	im := tr.Image()
	changed := 0
	d := memoDelta(func() {
		for _, l := range stored {
			got, want := im.SizeLine(codec, l), compress.SizeOnly(codec, im.Line(l))
			if got != want {
				t.Fatalf("stored line %d: SizeLine %d, SizeOnly %d", l, got, want)
			}
			if want != pristine.SizeLine(codec, l) {
				changed++
			}
		}
	})
	if d.Hits != 0 || d.Misses != 1 || d.Tables != 0 {
		t.Fatalf("stored-to image bind %+v, want one lazy miss and no table copy", d)
	}
	if changed == 0 {
		t.Fatalf("test setup: none of %d stores changed a line's size", len(stored))
	}
}

// TestSizeTableConcurrentBind binds one key from 8 goroutines at once
// (make race runs it under the race detector): exactly one builds the
// table, the other seven copy it, and every memo is exact.
func TestSizeTableConcurrentBind(t *testing.T) {
	seed := freshSeed()
	p, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p = Scale(p, 32)
	codec := compress.BPC{}
	ims := make([]*Image, 8)
	d := memoDelta(func() {
		var wg sync.WaitGroup
		for g := range ims {
			ims[g] = NewImage(p, seed)
			wg.Add(1)
			go func(im *Image, g int) {
				defer wg.Done()
				if g%2 == 0 {
					im.SizeAll(codec, 2)
				} else {
					im.SizeLine(codec, uint64(g))
				}
			}(ims[g], g)
		}
		wg.Wait()
	})
	if d.Tables != 1 || d.Misses != 1 || d.Hits != 7 {
		t.Fatalf("8 concurrent binds %+v, want 1 table, 1 miss, 7 hits", d)
	}
	for g, im := range ims {
		checkMemoOracle(t, fmt.Sprintf("goroutine %d", g), im, codec)
	}
}

// TestSizeTableCap pins the byte cap: once the tables hold
// sizeTableCapBytes, a new key gets no table and its image sizes
// lazily.
func TestSizeTableCap(t *testing.T) {
	seed := freshSeed()
	p, err := ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	p = Scale(p, 16)
	sizeTables.mu.Lock()
	saved := sizeTables.bytes
	sizeTables.bytes = sizeTableCapBytes - int64(p.FootprintPages)*memctl.LinesPerPage + 1
	sizeTables.mu.Unlock()
	defer func() {
		sizeTables.mu.Lock()
		sizeTables.bytes = saved
		sizeTables.mu.Unlock()
	}()
	codec := compress.BPC{}
	im := NewImage(p, seed)
	d := memoDelta(func() { im.SizeLine(codec, 0) })
	if d.Tables != 0 || d.Bytes != 0 || d.Misses != 1 {
		t.Fatalf("bind past the cap %+v, want no new table", d)
	}
	checkMemoOracle(t, "past the cap", im, codec)
}

// TestStoresStayPrivate pins the copy in "starts as a copy of the
// table": stores and re-sizes through the image that built a table,
// and through one that copied it, never reach the table, so a later
// image of the key still gets exact pristine sizes.
func TestStoresStayPrivate(t *testing.T) {
	seed := freshSeed()
	p, err := ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	p = Scale(p, 16)
	codec := compress.BPC{}
	for _, role := range []string{"table-building", "table-copying"} {
		tr := NewTrace(p, seed, 20_000)
		im := tr.Image()
		im.SizeLine(codec, 0) // bind while pristine
		var op Op
		for i := 0; i < 20_000; i++ {
			tr.Next(&op)
			if op.Write {
				im.SizeLine(codec, op.LineAddr)
			}
		}
		checkMemoOracle(t, role+" image after stores", im, codec)
		checkMemoOracle(t, "fresh image after stores through a "+role+" image", NewImage(p, seed), codec)
	}
}
