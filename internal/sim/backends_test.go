package sim

// Backend conformance suite (DESIGN.md §12): every backend in the
// memctl registry — present and future — is driven through the same
// install/read/write/reset program against a LineSource oracle, and
// Auditable backends additionally prove their audit repair path
// restores consistency after the oracle is mutated behind their back.

import (
	"reflect"
	"testing"

	"compresso/internal/audit"
	"compresso/internal/core"
	"compresso/internal/cram"
	"compresso/internal/cxl"
	"compresso/internal/datagen"
	"compresso/internal/dmc"
	"compresso/internal/dram"
	"compresso/internal/faults"
	"compresso/internal/lcp"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/obs"
	"compresso/internal/rng"
	"compresso/internal/workload"
)

// oracleImage is the authoritative OSPA line store. It doubles as the
// differential model: whatever the controller claims to hold must
// round-trip against these bytes under a Full audit.
type oracleImage struct {
	lines map[uint64][]byte
}

func newOracle() *oracleImage { return &oracleImage{lines: make(map[uint64][]byte)} }

func (im *oracleImage) ReadLine(addr uint64, buf []byte) {
	if l, ok := im.lines[addr]; ok {
		copy(buf, l)
		return
	}
	for i := range buf {
		buf[i] = 0
	}
}

func (im *oracleImage) set(addr uint64, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	im.lines[addr] = cp
}

// buildBackend constructs a small world for one registered backend.
func buildBackend(t *testing.T, b memctl.Backend, pages int) (memctl.Controller, *oracleImage) {
	t.Helper()
	return buildBackendMod(t, b, pages, nil)
}

// buildBackendMod is buildBackend with a config modifier (BuildParams.Mod).
func buildBackendMod(t *testing.T, b memctl.Backend, pages int, mod any) (memctl.Controller, *oracleImage) {
	t.Helper()
	im := newOracle()
	mem := dram.New(dram.DDR4_2666())
	ctl := b.New(memctl.BuildParams{
		OSPAPages:      pages,
		MachineBytes:   b.MachineBytes(pages),
		FootprintScale: 1,
		Mem:            mem,
		Source:         im,
		Injector:       faults.New(faults.Config{}),
		Mod:            mod,
	})
	if ctl == nil {
		t.Fatalf("backend %q: New returned nil", b.Name)
	}
	return ctl, im
}

func installOracle(ctl memctl.Controller, im *oracleImage, page uint64, lines [][]byte) {
	for i, l := range lines {
		im.set(page*metadata.LinesPerPage+uint64(i), l)
	}
	ctl.InstallPage(page)
}

// backendModTypes holds, per registered backend, a typed-nil value of
// the modifier type it takes (sim.Config.Mods); nil marks a backend
// with no config to modify.
var backendModTypes = map[string]any{
	"uncompressed": nil,
	"compresso":    (func(*core.Config))(nil),
	"lcp":          (func(*lcp.Config))(nil),
	"lcp-align":    (func(*lcp.Config))(nil),
	"dmc":          (func(*dmc.Config))(nil),
	"mxt":          (func(*dmc.Config))(nil),
	"cram":         (func(*cram.Config))(nil),
	"cxl":          (func(*cxl.Config))(nil),
}

// checkModHook pins memctl.ApplyMod's contract for one backend: a
// typed-nil modifier of the backend's own type is no modifier at all,
// and a modifier of any other type panics.
func checkModHook(t *testing.T, b memctl.Backend) {
	t.Helper()
	typedNil, known := backendModTypes[b.Name]
	if !known {
		t.Fatalf("backend %q: add its modifier type to backendModTypes", b.Name)
	}
	if typedNil == nil {
		return
	}
	install := func(ctl memctl.Controller, im *oracleImage) int64 {
		r := rng.New(3)
		for p := uint64(0); p < 2; p++ {
			lines := make([][]byte, metadata.LinesPerPage)
			for i := range lines {
				lines[i] = datagen.Line(r, datagen.Kind(int(p)%int(datagen.NKinds)))
			}
			installOracle(ctl, im, p, lines)
		}
		return ctl.CompressedBytes()
	}
	plain := install(buildBackend(t, b, 2))
	if got := install(buildBackendMod(t, b, 2, typedNil)); got != plain {
		t.Fatalf("typed-nil %T modifier changed the build: %d compressed bytes, want %d", typedNil, got, plain)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("a func(*struct{}) modifier did not panic")
		}
	}()
	buildBackendMod(t, b, 2, func(*struct{}) {})
}

// TestBackendConformance is the registry-wide contract check: any
// backend registered via memctl.RegisterBackend is picked up here with
// no test changes beyond naming its modifier type.
func TestBackendConformance(t *testing.T) {
	const pages = 8
	for _, b := range memctl.Backends() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if b.Desc == "" {
				t.Errorf("backend %q has no description", b.Name)
			}
			if mb := b.MachineBytes(pages); mb < int64(pages)*metadata.PageSize {
				t.Fatalf("MachineBytes(%d) = %d, smaller than the raw footprint", pages, mb)
			}
			checkModHook(t, b)
			ctl, im := buildBackend(t, b, pages)
			if ctl.Name() != b.Name {
				t.Fatalf("controller Name() = %q, registered as %q", ctl.Name(), b.Name)
			}

			// Every backend must support the cycle-accounting ledger
			// (DESIGN.md §14); it rides along the whole conformance
			// program and its conservation invariant is checked below.
			as, ok := ctl.(interface{ SetAttribution(*obs.Attribution) })
			if !ok {
				t.Fatalf("backend %q does not implement SetAttribution", b.Name)
			}
			attr := obs.NewAttribution(8)
			as.SetAttribution(attr)

			// Install every page with a deterministic mix of patterns.
			r := rng.New(7)
			for p := uint64(0); p < pages; p++ {
				lines := make([][]byte, metadata.LinesPerPage)
				for i := range lines {
					lines[i] = datagen.Line(r, datagen.Kind(int(p)%int(datagen.NKinds)))
				}
				installOracle(ctl, im, p, lines)
			}
			if got, want := ctl.InstalledBytes(), int64(pages)*metadata.PageSize; got != want {
				t.Fatalf("InstalledBytes = %d after installing %d pages, want %d", got, pages, want)
			}
			if ratio := memctl.CompressionRatio(ctl); ratio < 1 || ratio > 64 {
				t.Fatalf("CompressionRatio = %v, outside [1, 64]", ratio)
			}

			// Deterministic demand program: interleaved reads and
			// writes over the whole footprint, oracle kept in sync the
			// way the workload layer does.
			const ops = 2000
			now := uint64(0)
			var reads, writes uint64
			totalLines := uint64(pages) * metadata.LinesPerPage
			for i := 0; i < ops; i++ {
				addr := r.Uint64() % totalLines
				if r.Uint64()%3 == 0 {
					data := datagen.Line(r, datagen.Kind(int(addr)%int(datagen.NKinds)))
					im.set(addr, data)
					res := ctl.WriteLine(now, addr, data)
					if res.Done < now {
						t.Fatalf("op %d: write Done %d precedes issue cycle %d", i, res.Done, now)
					}
					writes++
				} else {
					res := ctl.ReadLine(now, addr)
					if res.Done < now {
						t.Fatalf("op %d: read Done %d precedes issue cycle %d", i, res.Done, now)
					}
					reads++
				}
				now += 4
			}
			st := ctl.Stats()
			if st.DemandReads != reads || st.DemandWrites != writes {
				t.Fatalf("demand accounting: got %d/%d reads/writes, drove %d/%d",
					st.DemandReads, st.DemandWrites, reads, writes)
			}
			if ratio := memctl.CompressionRatio(ctl); ratio < 1 || ratio > 64 {
				t.Fatalf("CompressionRatio = %v after demand traffic, outside [1, 64]", ratio)
			}

			// Attribution conservation: every access's exposed
			// components summed exactly to its charged latency, and the
			// aggregate totals agree (snapshot taken before the audits
			// below add out-of-access repair traffic).
			snap := attr.Snapshot()
			if snap.Accesses != reads+writes {
				t.Fatalf("attribution saw %d accesses, drove %d", snap.Accesses, reads+writes)
			}
			if v := attr.Violations(); v != 0 {
				t.Fatalf("%d conservation violations; first: %s", v, snap.FirstViolation)
			}
			var exposedTotal uint64
			for _, c := range snap.Components {
				exposedTotal += c.ExposedCycles
			}
			if exposedTotal != snap.ChargedCycles {
				t.Fatalf("exposed component cycles %d != charged cycles %d", exposedTotal, snap.ChargedCycles)
			}

			// Differential check: a Full repairless audit against the
			// oracle must be clean on the untampered path.
			if a, ok := ctl.(audit.Auditable); ok {
				if rep := a.Audit(audit.Full, false); !rep.OK() {
					t.Fatalf("clean-path Full audit found violations:\n%s", rep)
				}
				auditRepairPath(t, a, im, r)
			}

			// ResetStats zeroes the accounting without touching state.
			before := ctl.CompressedBytes()
			ctl.ResetStats()
			if st := ctl.Stats(); st != (memctl.Stats{}) {
				t.Fatalf("Stats not zero after ResetStats: %+v", st)
			}
			if got := ctl.CompressedBytes(); got != before {
				t.Fatalf("ResetStats changed CompressedBytes: %d -> %d", before, got)
			}
		})
	}
}

// plainSource hides an image's LineSizer: a controller over it sizes
// every line from the bytes ReadLine returns.
type plainSource struct{ img *workload.Image }

func (s plainSource) ReadLine(addr uint64, buf []byte) { s.img.ReadLine(addr, buf) }

// traceOutcome is what a backend ends a trace-driven program with.
type traceOutcome struct {
	stats      memctl.Stats
	compressed int64
	pageSizes  obs.HistSnapshot
	metrics    obs.Snapshot
	doneSum    uint64 // every access's completion cycle, summed
}

// runTraceProgram installs a scale-64 gcc image into backend b and
// drives a fixed trace-driven read/write program through it. sized
// hands the controller the image itself (a memctl.LineSizer), else the
// image behind a plain LineSource; nilData writes back nil instead of
// the line's bytes.
func runTraceProgram(t *testing.T, b memctl.Backend, sized, nilData bool) traceOutcome {
	t.Helper()
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prof = workload.Scale(prof, 64)
	const ops = 6000
	tr := workload.NewTrace(prof, 5, ops)
	img := tr.Image()
	var src memctl.LineSource = plainSource{img}
	if sized {
		src = img
	}
	pages := img.FootprintPages()
	ctl := b.New(memctl.BuildParams{
		OSPAPages:      pages,
		MachineBytes:   b.MachineBytes(pages),
		FootprintScale: 64,
		Mem:            dram.New(dram.DDR4_2666()),
		Source:         src,
		Injector:       faults.New(faults.Config{}),
	})
	img.InstallInto(ctl)
	var op workload.Op
	var doneSum, writes uint64
	buf := make([]byte, memctl.LineBytes)
	for i, now := 0, uint64(0); i < ops; i, now = i+1, now+40 {
		tr.Next(&op)
		if op.Write {
			var data []byte
			if !nilData {
				img.ReadLine(op.LineAddr, buf)
				data = buf
			}
			doneSum += ctl.WriteLine(now, op.LineAddr, data).Done
			writes++
		} else {
			doneSum += ctl.ReadLine(now, op.LineAddr).Done
		}
	}
	if writes == 0 {
		t.Fatal("the program issued no writebacks")
	}
	return traceOutcome{ctl.Stats(), ctl.CompressedBytes(), pageSizes(ctl), backendMetrics(ctl), doneSum}
}

// sameOutcome fails t unless a and b (named by what produced them)
// match in every observable.
func sameOutcome(t *testing.T, aName string, a traceOutcome, bName string, b traceOutcome) {
	t.Helper()
	if a.stats != b.stats {
		t.Fatalf("Stats differ:\n%s %+v\n%s %+v", aName, a.stats, bName, b.stats)
	}
	if a.compressed != b.compressed {
		t.Fatalf("CompressedBytes: %s %d, %s %d", aName, a.compressed, bName, b.compressed)
	}
	if !reflect.DeepEqual(a.pageSizes, b.pageSizes) {
		t.Fatalf("page-size histograms differ:\n%s %+v\n%s %+v", aName, a.pageSizes, bName, b.pageSizes)
	}
	if !reflect.DeepEqual(a.metrics, b.metrics) {
		t.Fatalf("backend metrics differ:\n%s %+v\n%s %+v", aName, a.metrics, bName, b.metrics)
	}
	if a.doneSum != b.doneSum {
		t.Fatalf("access completion cycles differ: %s %d, %s %d", aName, a.doneSum, bName, b.doneSum)
	}
}

// TestBackendConformanceLineSizer pins the one sizing rule (DESIGN.md
// §12): every registered backend, installed from a workload image (a
// memctl.LineSizer) and from the same image behind a plain LineSource,
// ends a fixed trace-driven read/write program with the same stored
// bytes, page-size histogram, Stats, backend metrics and access
// completion cycles.
func TestBackendConformanceLineSizer(t *testing.T) {
	for _, b := range memctl.Backends() {
		t.Run(b.Name, func(t *testing.T) {
			sameOutcome(t, "sized", runTraceProgram(t, b, true, false),
				"plain", runTraceProgram(t, b, false, false))
		})
	}
}

// TestBackendConformanceNilWriteback pins the nil-data writeback
// contract (DESIGN.md §12): every registered backend ends the
// trace-driven program identically whether each writeback carries the
// line's bytes or nil, over the image as a LineSizer and behind a
// plain LineSource (where a nil writeback reads the source). Non-nil
// data of the wrong length still panics.
func TestBackendConformanceNilWriteback(t *testing.T) {
	for _, b := range memctl.Backends() {
		t.Run(b.Name, func(t *testing.T) {
			for _, sized := range []bool{true, false} {
				sameOutcome(t, "bytes", runTraceProgram(t, b, sized, false),
					"nil", runTraceProgram(t, b, sized, true))
			}
			ctl, _ := buildBackend(t, b, 2)
			defer func() {
				if recover() == nil {
					t.Fatal("a 63-byte writeback did not panic")
				}
			}()
			ctl.WriteLine(0, 1, make([]byte, memctl.LineBytes-1))
		})
	}
}

// auditRepairPath mutates the oracle behind the controller's back and
// checks that a repairing Full audit restores a state a subsequent
// repairless Full audit accepts.
func auditRepairPath(t *testing.T, a audit.Auditable, im *oracleImage, r *rng.Rand) {
	t.Helper()
	for addr := uint64(0); addr < 8; addr++ {
		im.set(addr, datagen.Line(r, datagen.Random))
	}
	rep := a.Audit(audit.Full, true)
	for _, v := range rep.Violations {
		if !v.Repaired {
			t.Fatalf("repairing audit left violation unrepaired: %s", v)
		}
	}
	if after := a.Audit(audit.Full, false); !after.OK() {
		t.Fatalf("Full audit still dirty after repair:\n%s", after)
	}
}

// TestBackendConformanceDeterminism re-runs the conformance program and
// requires identical final accounting — backends must not consult any
// ambient nondeterminism.
func TestBackendConformanceDeterminism(t *testing.T) {
	const pages = 4
	for _, b := range memctl.Backends() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			run := func() memctl.Stats {
				ctl, im := buildBackend(t, b, pages)
				r := rng.New(11)
				for p := uint64(0); p < pages; p++ {
					lines := make([][]byte, metadata.LinesPerPage)
					for i := range lines {
						lines[i] = datagen.Line(r, datagen.Repeated)
					}
					installOracle(ctl, im, p, lines)
				}
				totalLines := uint64(pages) * metadata.LinesPerPage
				for i := 0; i < 800; i++ {
					addr := r.Uint64() % totalLines
					if i%3 == 0 {
						data := datagen.Line(r, datagen.Kind(i%int(datagen.NKinds)))
						im.set(addr, data)
						ctl.WriteLine(uint64(i)*3, addr, data)
					} else {
						ctl.ReadLine(uint64(i)*3, addr)
					}
				}
				return ctl.Stats()
			}
			if a, b := run(), run(); a != b {
				t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestNewBackendsRunSingle drives the cram and cxl tiers through the
// full simulator pipeline with online audits enabled, mirroring
// TestRunSingleAllSystems for the registry-only systems.
func TestNewBackendsRunSingle(t *testing.T) {
	for _, sys := range []System{CRAM, CXL} {
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			prof, _ := workload.ByName("gcc")
			cfg := quickCfg(sys)
			cfg.AuditEvery = 5_000
			res := RunSingle(prof, cfg)
			if res.Cycles == 0 || res.Mem.DemandAccesses() == 0 {
				t.Fatalf("%s: empty result: %+v", sys, res)
			}
			if res.Ratio != 1 {
				t.Fatalf("%s is a bandwidth/capacity tier, ratio must stay 1, got %v", sys, res.Ratio)
			}
			if res.Audit.Violations != 0 {
				t.Fatalf("%s: online audits found %d violations", sys, res.Audit.Violations)
			}
			if res.Audit.Runs == 0 {
				t.Fatalf("%s: audits never ran despite AuditEvery", sys)
			}
			if len(res.BackendMetrics.Counters)+len(res.BackendMetrics.Gauges) == 0 {
				t.Fatalf("%s: backend registered no extra metrics", sys)
			}
		})
	}
}

// TestAllSystemsCoversRegistry pins that AllSystems tracks the backend
// registry exactly, so fig-style sweeps pick up new backends for free.
func TestAllSystemsCoversRegistry(t *testing.T) {
	names := memctl.BackendNames()
	all := AllSystems()
	if len(all) != len(names) {
		t.Fatalf("AllSystems has %d entries, registry has %d", len(all), len(names))
	}
	for i, n := range names {
		if all[i].String() != n {
			t.Fatalf("AllSystems[%d] = %q, registry says %q", i, all[i], n)
		}
	}
	for _, want := range []System{Uncompressed, LCP, LCPAlign, Compresso, DMC, MXT, CRAM, CXL} {
		if _, ok := memctl.LookupBackend(string(want)); !ok {
			t.Fatalf("expected backend %q missing from registry", want)
		}
	}
}
