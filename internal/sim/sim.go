// Package sim is the full-system cycle simulation harness: it wires a
// workload trace, the cache hierarchy, a memory controller resolved
// from the memctl backend registry and the DRAM model into the
// single- and multi-core experiments of the paper's cycle-based
// evaluation (Tab. III configuration, Tab. IV mixes).
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"

	"compresso/internal/audit"
	"compresso/internal/cache"
	"compresso/internal/compress"
	"compresso/internal/core"
	"compresso/internal/cpu"
	"compresso/internal/dram"
	"compresso/internal/faults"
	"compresso/internal/lcp"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/obs"
	"compresso/internal/parallel"
	"compresso/internal/workload"

	// Registered backends without direct config plumbing in this
	// package: importing them is what makes their names resolvable
	// (DESIGN.md §12). core and lcp register too, via the imports above.
	_ "compresso/internal/cram"
	_ "compresso/internal/cxl"
	_ "compresso/internal/dmc"
)

// System names the memory architecture under test: any backend name
// registered with memctl.RegisterBackend resolves.
type System string

// The evaluated systems (§VI-F) plus the related-work and
// bandwidth-first backends.
const (
	Uncompressed System = "uncompressed"
	LCP          System = "lcp"
	LCPAlign     System = "lcp-align"
	Compresso    System = "compresso"
	// DMC is the related-work dual-compression baseline (§VIII); it is
	// not part of the paper's headline comparison set (Systems) but is
	// available for the related-dmc experiment.
	DMC System = "dmc"
	// MXT is the IBM-MXT-style all-coarse-granularity baseline (§VIII).
	MXT System = "mxt"
	// CRAM is the bandwidth-enhancement backend (internal/cram).
	CRAM System = "cram"
	// CXL is the expander-tier backend (internal/cxl).
	CXL System = "cxl"
)

// String returns the system's name.
func (s System) String() string { return string(s) }

// Systems lists the paper's four evaluated systems in order.
func Systems() []System { return []System{Uncompressed, LCP, LCPAlign, Compresso} }

// ExtendedSystems adds the related-work DMC and MXT baselines.
func ExtendedSystems() []System { return append(Systems(), DMC, MXT) }

// AllSystems lists every registered backend in name order — the set
// the backend-parameterized experiments sweep, which grows as new
// backends register.
func AllSystems() []System {
	names := memctl.BackendNames()
	out := make([]System, len(names))
	for i, n := range names {
		out[i] = System(n)
	}
	return out
}

// Config parameterizes one simulation run.
type Config struct {
	System System

	// Ops is the number of trace operations per core (the analogue of
	// a 200M-instruction CompressPoint; scale to taste).
	Ops uint64

	// WarmupFrac of Ops run before statistics are reset.
	WarmupFrac float64

	// Seed drives all randomness.
	Seed uint64

	// FootprintScale divides every benchmark's footprint (speed knob
	// for tests; 1 for experiments).
	FootprintScale int

	CPU  cpu.Config
	DRAM dram.Config

	// CompressoMod / LCPMod tweak the controller configs (ablations).
	CompressoMod func(*core.Config)
	LCPMod       func(*lcp.Config)

	// Mods routes config modifiers to arbitrary registered backends by
	// name; each backend documents its expected function type (e.g.
	// func(*cram.Config) for "cram"). An entry here wins over the
	// legacy CompressoMod/LCPMod fields for its backend.
	Mods map[string]any

	// Inject configures deterministic fault injection (internal/faults).
	// The zero value injects nothing and leaves the run bit-identical to
	// an injector-free build. Controller-level sites currently apply to
	// the Compresso system only; other systems just tally DRAM exposure.
	Inject faults.Config

	// AuditEvery runs a repairing structural state audit every N demand
	// operations on controllers that support it (0 disables auditing).
	AuditEvery uint64

	// TraceEvents bounds the run's controller-event ring buffer (0
	// disables tracing; the last N events survive in Result.Trace).
	TraceEvents int

	// SampleEvery snapshots the live metrics registry every N demand
	// operations into the result's windowed time series (0 disables
	// sampling). Sampling is determinism-neutral: it only reads stats
	// through snapshot copies and never touches RNG or stat semantics,
	// so artifacts are byte-identical with sampling on or off
	// (DESIGN.md §9).
	SampleEvery uint64

	// SampleWindows bounds the sampler's window ring (<= 0 uses
	// DefaultSampleWindows).
	SampleWindows int

	// OnSample, when non-nil, receives each sample's cycle and
	// cumulative registry snapshot as the run loop takes it — the live
	// introspection hook (-serve). Called synchronously from the run
	// loop with a copy; implementations must not mutate simulator
	// state and must not assume any timing.
	OnSample func(cycle uint64, snap obs.Snapshot)

	// Overlap enables the overlapped-controller timing model on
	// backends that support it (currently compresso): decompression
	// latency is pipelined against DRAM service instead of charged
	// serially after it, with the hidden/exposed split reported in the
	// memctl.* overlap stats. Off (the default) preserves the serial
	// model and byte-identical committed artifacts.
	Overlap bool

	// Attribution enables the cycle-accounting attribution ledger
	// (obs.Attribution, DESIGN.md §14): every demand access decomposes
	// its charged latency into typed components with a per-access
	// conservation check, plus a bounded hot-page overhead profile.
	// Off (the default) keeps the nil-ledger fast path; committed
	// artifacts are byte-identical either way (Result.Attribution is
	// excluded from JSON like Series/BackendMetrics).
	Attribution bool

	// TopPages bounds the attribution hot-page profile (<= 0 uses
	// DefaultTopPages).
	TopPages int

	// Assets, when non-nil, supplies pre-materialized workload images
	// with warm per-line size memos (PrepareAssets). Each run clones
	// the masters instead of regenerating and re-sizing them — sharing
	// the page-generation and install-sizing work across the several
	// systems of a comparison run. Must have been prepared for this
	// config's profiles, FootprintScale and Seed; runs are
	// byte-identical with or without it.
	Assets *MixAssets

	// Cancel, when non-nil, aborts the run cooperatively: the demand
	// loop checks it every cancelCheckPeriod ops and unwinds with a
	// panic whose value is an error wrapping the context's error, so a
	// canceled or deadline-exceeded in-flight cell stops burning CPU
	// instead of running to completion. The resilient grid runner
	// recovers that sentinel and classifies it as a cancellation, not a
	// defect (DESIGN.md §11). An aborted run produces no Result.
	Cancel context.Context
}

// cancelCheckPeriod is how many demand ops pass between Config.Cancel
// checks — rare enough to stay invisible on the hot path, frequent
// enough that cancellation lands within microseconds.
const cancelCheckPeriod = 1024

// canceledError is the cooperative-abort sentinel thrown by the run
// loops; it unwraps to the context's error (context.Canceled or
// context.DeadlineExceeded) so recovery sites can classify it.
type canceledError struct{ err error }

func (e canceledError) Error() string { return "sim: run canceled: " + e.err.Error() }
func (e canceledError) Unwrap() error { return e.err }

// checkCancel aborts the run when cfg.Cancel has fired (called with
// the loop's op counter to amortize the context poll).
func checkCancel(cfg Config, ops uint64) {
	if cfg.Cancel != nil && ops%cancelCheckPeriod == 0 {
		if err := cfg.Cancel.Err(); err != nil {
			panic(canceledError{err: err})
		}
	}
}

// DefaultSampleWindows is the sampler ring bound when
// Config.SampleWindows is unset.
const DefaultSampleWindows = 512

// DefaultTopPages is the attribution hot-page profile bound when
// Config.TopPages is unset.
const DefaultTopPages = 32

// DefaultConfig returns the paper's Tab. III setup for the given
// system.
func DefaultConfig(sys System) Config {
	return Config{
		System:         sys,
		Ops:            400_000,
		WarmupFrac:     0.1,
		Seed:           42,
		FootprintScale: 1,
		CPU:            cpu.DefaultConfig(),
		DRAM:           dram.DDR4_2666(),
	}
}

// Result captures one run's outcome.
type Result struct {
	Bench  string
	System string

	Cycles uint64
	Instrs uint64
	IPC    float64

	// CPU is the core's full counter set (Cycles/Instrs/IPC above are
	// kept as headline fields for the experiment tables).
	CPU cpu.Stats

	Mem     memctl.Stats
	Dram    dram.Stats
	MDCache metadata.CacheStats
	L3      cache.Stats

	// Ratio is the end-of-run compression ratio (1 for uncompressed).
	Ratio float64

	L3MissRate float64

	// Faults and Audit summarize the robustness machinery's activity
	// (zero values when injection/auditing were off).
	Faults faults.Totals
	Audit  audit.Outcome

	// PageSizes is the end-of-run compressed page-size distribution in
	// 512 B chunks (zero Total for controllers without variable page
	// sizes).
	PageSizes obs.HistSnapshot

	// Trace holds the run's controller-event ring-buffer contents
	// (empty unless Config.TraceEvents > 0).
	Trace obs.Trace

	// Series is the sampled per-window metric timeline (empty unless
	// Config.SampleEvery > 0). Excluded from JSON so artifacts stay
	// byte-identical with sampling on or off (DESIGN.md §9); it is
	// served live via -serve and readable programmatically.
	Series obs.Series `json:"-"`

	// BackendMetrics holds the backend's own per-prefix counters (e.g.
	// "cram.*", "cxl.link.*") for backends that export them; merged
	// into Registry() so they reach /metrics and artifact metric
	// sections. Excluded from the Result JSON itself so the committed
	// BENCH_* result payloads of metric-free backends stay
	// byte-identical.
	BackendMetrics obs.Snapshot `json:"-"`

	// Attribution is the run's cycle-accounting snapshot (empty-shaped
	// unless Config.Attribution). Excluded from JSON so committed
	// artifacts stay byte-identical with attribution on or off.
	Attribution obs.AttributionSnapshot `json:"-"`
}

// Registry builds the run's metrics registry: every stat struct
// registered under its DESIGN.md §8 prefix plus run-level gauges.
func (r Result) Registry() *obs.Registry {
	reg := obs.NewRegistry()
	r.CPU.Register(reg, "cpu")
	r.Mem.Register(reg, "memctl")
	r.Dram.Register(reg, "dram")
	r.MDCache.Register(reg, "mdcache")
	r.L3.Register(reg, "cache.l3")
	r.Faults.Register(reg, "faults")
	r.Audit.Register(reg, "audit")
	reg.Gauge("run.ratio").Set(r.Ratio)
	if acc := r.L3.Accesses(); acc > 0 {
		reg.Gauge("run.l3_miss_rate").Set(r.L3MissRate)
	}
	if r.PageSizes.Total > 0 {
		reg.Histogram("memctl.page_size_chunks").AddSnapshot(r.PageSizes)
	}
	mergeSnapshot(reg, r.BackendMetrics)
	if r.Attribution.Accesses > 0 {
		mergeSnapshot(reg, r.Attribution.Metrics())
	}
	return reg
}

// mdStatser is implemented by the compressed controllers.
type mdStatser interface {
	MetadataCacheStats() metadata.CacheStats
}

// backendMetricser is implemented by controllers that export
// backend-specific counters beyond the shared memctl.Stats (DESIGN.md
// §12): the registration must be read-only and deterministic.
type backendMetricser interface {
	RegisterMetrics(r *obs.Registry)
}

// backendMetrics snapshots a controller's own metric registrations
// (zero snapshot for controllers without any).
func backendMetrics(ctl memctl.Controller) obs.Snapshot {
	bm, ok := ctl.(backendMetricser)
	if !ok {
		return obs.Snapshot{}
	}
	reg := obs.NewRegistry()
	bm.RegisterMetrics(reg)
	return reg.Snapshot()
}

// mergeSnapshot registers a snapshot's series into reg.
func mergeSnapshot(reg *obs.Registry, s obs.Snapshot) {
	for name, v := range s.Counters {
		reg.Counter(name).Set(v)
	}
	for name, v := range s.Gauges {
		reg.Gauge(name).Set(v)
	}
	for name, h := range s.Hists {
		reg.Histogram(name).AddSnapshot(h)
	}
}

// routedSource maps global OSPA line addresses to per-core images.
type routedSource struct {
	basePages []uint64
	images    []*workload.Image
}

func (r *routedSource) ReadLine(lineAddr uint64, buf []byte) {
	page := lineAddr / memctl.LinesPerPage
	for i := len(r.basePages) - 1; i >= 0; i-- {
		if page >= r.basePages[i] {
			local := lineAddr - r.basePages[i]*memctl.LinesPerPage
			r.images[i].ReadLine(local, buf)
			return
		}
	}
	panic(fmt.Sprintf("sim: line %d outside every core's range", lineAddr))
}

// SizeLine implements memctl.LineSizer by routing to the owning
// image's per-line size memo.
func (r *routedSource) SizeLine(codec compress.Codec, lineAddr uint64) int {
	page := lineAddr / memctl.LinesPerPage
	for i := len(r.basePages) - 1; i >= 0; i-- {
		if page >= r.basePages[i] {
			local := lineAddr - r.basePages[i]*memctl.LinesPerPage
			return r.images[i].SizeLine(codec, local)
		}
	}
	panic(fmt.Sprintf("sim: line %d outside every core's range", lineAddr))
}

// MixAssets is the shareable, immutable-by-convention part of a run's
// workload state: fully materialized master images with warm per-line
// size memos, one per core. Prepare once with PrepareAssets, then run
// several systems over clones of the masters (Config.Assets) — the
// page generation and initial sizing work is paid once instead of per
// system. The masters themselves are never run directly.
type MixAssets struct {
	scale  int
	seed   uint64
	ops    uint64
	profs  []workload.Profile // post-scaling profiles
	images []*workload.Image
	logs   []*workload.TraceLog
}

// PrepareAssets materializes and sizes master images for the given
// profiles under cfg's FootprintScale and Seed (the same derivation
// RunSingle/RunMix use), fanning the page scans across jobs workers.
// For RunMix pass every profile of the mix in order; for RunSingle a
// single-element slice. The memo is warmed for codec (pass the codec
// the compressed systems size with, compress.BPC{} for the defaults);
// systems using another codec simply bypass the memo.
//
// Each core's op stream is also recorded once (over a throwaway
// clone): runs with these assets replay the log instead of
// regenerating the trace, and the log's shared store-size slots let
// the several systems of a comparison run share the recompression of
// stored lines — the sizes are content-determined, so replays are
// byte-identical to generation.
func PrepareAssets(profs []workload.Profile, cfg Config, codec compress.Codec, jobs int) *MixAssets {
	a := &MixAssets{scale: cfg.FootprintScale, seed: cfg.Seed, ops: cfg.Ops}
	for i, p := range profs {
		p = scaled(p, cfg.FootprintScale)
		img := workload.NewImage(p, cfg.Seed+uint64(i)*7919)
		img.Materialize(jobs)
		img.SizeAll(codec, jobs)
		a.profs = append(a.profs, p)
		a.images = append(a.images, img)
	}
	a.logs = make([]*workload.TraceLog, len(a.profs))
	workers := parallel.Workers(jobs, len(a.profs))
	parallel.Map(workers, len(a.profs), func(i int) struct{} {
		a.logs[i] = workload.RecordTrace(a.images[i].Clone(), a.profs[i],
			cfg.Seed+uint64(i)*7919, cfg.Ops, codec)
		return struct{}{}
	})
	return a
}

// image returns a private clone of master i after validating that the
// assets were prepared for this run's shape.
func (a *MixAssets) image(i int, prof workload.Profile, seed uint64) *workload.Image {
	a.check(i, prof, seed)
	return a.images[i].Clone()
}

// stream returns core i's op source: a replay over an overlay of the
// shared master when the recording matches the run's op count (no page
// bytes are copied), else a generating trace over a private clone.
// Output is byte-identical either way.
func (a *MixAssets) stream(i int, prof workload.Profile, seed, ops uint64) workload.OpStream {
	if a.logs != nil && a.logs[i] != nil && a.ops == ops {
		a.check(i, prof, seed)
		return a.logs[i].ReplayOver(a.images[i])
	}
	return workload.NewTraceOn(a.image(i, prof, seed), prof, seed, ops)
}

// check validates that the assets were prepared for this run's shape.
func (a *MixAssets) check(i int, prof workload.Profile, seed uint64) {
	if i >= len(a.images) || a.profs[i].Name != prof.Name ||
		a.profs[i].FootprintPages != prof.FootprintPages || a.seed+uint64(i)*7919 != seed {
		panic(fmt.Sprintf("sim: Assets prepared for different run shape (core %d, profile %s)", i, prof.Name))
	}
}

// scaledL3Bytes shrinks the L3 with the footprint so a fixed cache
// cannot cover the whole scaled footprint and hide memory pressure
// (the metadata-cache analogue lives in
// metadata.ScaleCacheForFootprint, applied by each backend).
func scaledL3Bytes(perCore, scale int) int {
	size := perCore / scale
	const min = 128 << 10
	if size < min {
		return min
	}
	// Keep a power-of-two set count.
	p := min
	for p*2 <= size {
		p *= 2
	}
	return p
}

// backendMod resolves the backend-specific config modifier for sys:
// an explicit Mods entry wins, then the legacy typed fields for the
// backends that predate the registry.
func (c Config) backendMod(sys System) any {
	if m, ok := c.Mods[string(sys)]; ok {
		return m
	}
	switch sys {
	case Compresso:
		if c.CompressoMod != nil {
			return c.CompressoMod
		}
	case LCP, LCPAlign:
		if c.LCPMod != nil {
			return c.LCPMod
		}
	}
	return nil
}

// buildController resolves the system's registered backend and
// constructs its controller for the given OSPA page count, together
// with the run's fault injector (a no-op when cfg.Inject is zero).
// Machine memory is sized by the backend's own rule so the cycle-based
// runs are never capacity constrained (capacity effects are evaluated
// by internal/capacity, per the paper's dual methodology) and
// metadata-free backends are not charged for metadata they don't keep.
func buildController(cfg Config, sys System, ospaPages int, mem *dram.Memory, src memctl.LineSource) (memctl.Controller, *faults.Injector) {
	b, ok := memctl.LookupBackend(string(sys))
	if !ok {
		panic(fmt.Sprintf("sim: unknown system %q (registered: %v)", sys, memctl.BackendNames()))
	}
	inj := faults.New(cfg.Inject)
	if inj.Enabled() {
		mem.SetOnAccess(inj.NoteDRAM)
	}
	ctl := b.New(memctl.BuildParams{
		OSPAPages:      ospaPages,
		MachineBytes:   b.MachineBytes(ospaPages),
		FootprintScale: cfg.FootprintScale,
		Mem:            mem,
		Source:         src,
		Injector:       inj,
		Overlap:        cfg.Overlap,
		Mod:            cfg.backendMod(sys),
	})
	return ctl, inj
}

// newAuditor builds the run's audit runner, or nil when auditing is
// off or the controller cannot audit itself.
func newAuditor(cfg Config, ctl memctl.Controller) *audit.Runner {
	if cfg.AuditEvery == 0 {
		return nil
	}
	a, ok := ctl.(audit.Auditable)
	if !ok {
		return nil
	}
	return audit.NewRunner(a, cfg.AuditEvery)
}

func scaled(p workload.Profile, scale int) workload.Profile {
	return workload.Scale(p, scale)
}

// inBackend runs f under the pprof label "backend" naming the system,
// added to the labels cfg.Cancel carries (an experiment grid cell's),
// so `pprof -tagfocus` can split a CPU profile by backend.
func inBackend(cfg Config, f func()) {
	ctx := cfg.Cancel
	if ctx == nil {
		ctx = context.Background()
	}
	pprof.Do(ctx, pprof.Labels("backend", string(cfg.System)), func(context.Context) { f() })
}

// RunSingle simulates one benchmark on a single-core system.
func RunSingle(prof workload.Profile, cfg Config) (res Result) {
	inBackend(cfg, func() { res = runSingle(prof, cfg) })
	return res
}

func runSingle(prof workload.Profile, cfg Config) Result {
	prof = scaled(prof, cfg.FootprintScale)
	var tr workload.OpStream
	if cfg.Assets != nil {
		tr = cfg.Assets.stream(0, prof, cfg.Seed, cfg.Ops)
	} else {
		tr = workload.NewTrace(prof, cfg.Seed, cfg.Ops)
	}
	img := tr.Image()

	mem := dram.New(cfg.DRAM)
	src := &routedSource{basePages: []uint64{0}, images: []*workload.Image{img}}
	ctl, inj := buildController(cfg, cfg.System, prof.FootprintPages, mem, src)
	img.InstallInto(ctl)
	auditor := newAuditor(cfg, ctl)
	tracer := attachTracer(cfg, ctl)
	attr := attachAttribution(cfg, ctl)

	l3 := cache.New("l3", scaledL3Bytes(2<<20, cfg.FootprintScale), 16)
	hier := cache.NewHierarchy(l3)
	c := cpu.New(cfg.CPU, hier, ctl, src)

	sampler := newRunSampler(cfg)
	sampleSingle := func() {
		snap := collect(prof.Name, cfg.System, c, ctl, mem, l3).Registry().Snapshot()
		sampler.Sample(c.Now(), snap)
		if cfg.OnSample != nil {
			cfg.OnSample(c.Now(), snap)
		}
	}

	warm := uint64(float64(cfg.Ops) * cfg.WarmupFrac)
	var op workload.Op
	for i := uint64(0); i < cfg.Ops; i++ {
		checkCancel(cfg, i)
		tr.Next(&op)
		c.Step(&op)
		if auditor != nil {
			if rep := auditor.Tick(); rep != nil {
				tracer.Emit(c.Now(), obs.EvAuditRun, obs.NoPage, uint64(len(rep.Violations)))
			}
		}
		if cfg.SampleEvery > 0 && (i+1)%cfg.SampleEvery == 0 {
			sampleSingle()
		}
		if i+1 == warm {
			resetAll(ctl, mem, c, hier)
			attr.Reset()
		}
	}
	c.Drain()
	if cfg.SampleEvery > 0 {
		sampleSingle() // close the partial final window at the drained clock
	}

	res := collect(prof.Name, cfg.System, c, ctl, mem, l3)
	res.Series = sampler.Series()
	if auditor != nil {
		rep := auditor.Final(audit.Structural)
		tracer.Emit(c.Now(), obs.EvAuditRun, obs.NoPage, uint64(len(rep.Violations)))
		res.Audit = auditor.Outcome()
		// Pick up the final audit's counters: the repair pass touches
		// both the controller tallies and real DRAM traffic.
		res.Mem = ctl.Stats()
		res.Dram = mem.Stats()
		res.BackendMetrics = backendMetrics(ctl)
	}
	res.Faults = inj.Totals()
	res.Trace = tracer.Trace()
	if attr != nil {
		res.Attribution = attr.Snapshot()
	}
	return res
}

// newRunSampler builds the run's windowed time-series sampler from
// SampleEvery/SampleWindows (nil — all methods no-ops — when sampling
// is off).
func newRunSampler(cfg Config) *obs.Sampler {
	windows := cfg.SampleWindows
	if windows <= 0 {
		windows = DefaultSampleWindows
	}
	return obs.NewSampler(cfg.SampleEvery, windows)
}

// pageSizeHister is implemented by controllers that can enumerate
// their compressed page sizes (core.Controller).
type pageSizeHister interface {
	PageSizeHistogramAdd(add func(chunks int))
}

// pageSizes snapshots the controller's compressed page-size
// distribution (zero snapshot when the controller has none).
func pageSizes(ctl memctl.Controller) obs.HistSnapshot {
	ph, ok := ctl.(pageSizeHister)
	if !ok {
		return obs.HistSnapshot{}
	}
	var h obs.Histogram
	ph.PageSizeHistogramAdd(func(chunks int) { h.Observe(chunks) })
	return h.Snapshot()
}

// attachTracer builds the run's event tracer and installs it on
// controllers that support tracing. A zero TraceEvents yields a nil
// tracer, whose methods are all no-ops.
func attachTracer(cfg Config, ctl memctl.Controller) *obs.Tracer {
	tracer := obs.NewTracer(cfg.TraceEvents)
	if tracer == nil {
		return nil
	}
	if ts, ok := ctl.(interface{ SetTracer(*obs.Tracer) }); ok {
		ts.SetTracer(tracer)
	}
	return tracer
}

// attachAttribution builds the run's cycle-accounting ledger and
// installs it on controllers that support attribution (every
// registered backend does). Returns nil — all methods no-ops — when
// attribution is off, mirroring attachTracer.
func attachAttribution(cfg Config, ctl memctl.Controller) *obs.Attribution {
	if !cfg.Attribution {
		return nil
	}
	as, ok := ctl.(interface{ SetAttribution(*obs.Attribution) })
	if !ok {
		return nil
	}
	top := cfg.TopPages
	if top <= 0 {
		top = DefaultTopPages
	}
	attr := obs.NewAttribution(top)
	as.SetAttribution(attr)
	return attr
}

// resetAll marks the warmup boundary: all counters restart, and the
// DRAM model additionally drops its in-flight bus/bank timing so the
// first measured accesses aren't charged wait cycles for warmup
// traffic the stats no longer count (row buffers and cache contents
// stay warm).
func resetAll(ctl memctl.Controller, mem *dram.Memory, hiers ...interface{ ResetStats() }) {
	ctl.ResetStats()
	mem.ResetStats()
	mem.ResetTiming()
	for _, h := range hiers {
		h.ResetStats()
	}
}

func collect(bench string, sys System, c *cpu.Core, ctl memctl.Controller, mem *dram.Memory, l3 *cache.Cache) Result {
	res := Result{
		Bench:  bench,
		System: sys.String(),
		Cycles: c.Stats().Cycles,
		Instrs: c.Stats().Instrs,
		IPC:    c.Stats().IPC(),
		CPU:    c.Stats(),
		Mem:    ctl.Stats(),
		Dram:   mem.Stats(),
		L3:     l3.Stats(),
		Ratio:  memctl.CompressionRatio(ctl),
	}
	if ms, ok := ctl.(mdStatser); ok {
		res.MDCache = ms.MetadataCacheStats()
	}
	res.L3MissRate = l3.Stats().MissRate()
	res.PageSizes = pageSizes(ctl)
	res.BackendMetrics = backendMetrics(ctl)
	return res
}

// MultiResult is a 4-core run's outcome: per-core results plus the
// shared memory-system stats.
type MultiResult struct {
	MixName string
	System  string
	Cores   []Result
	Mem     memctl.Stats
	Dram    dram.Stats
	MDCache metadata.CacheStats
	Ratio   float64

	// Faults and Audit summarize the robustness machinery's activity
	// (zero values when injection/auditing were off).
	Faults faults.Totals
	Audit  audit.Outcome

	// PageSizes is the end-of-run compressed page-size distribution in
	// 512 B chunks (zero Total for controllers without variable page
	// sizes).
	PageSizes obs.HistSnapshot

	// Trace holds the run's controller-event ring-buffer contents
	// (empty unless Config.TraceEvents > 0).
	Trace obs.Trace

	// Series is the sampled per-window metric timeline (empty unless
	// Config.SampleEvery > 0). Excluded from JSON so artifacts stay
	// byte-identical with sampling on or off (DESIGN.md §9).
	Series obs.Series `json:"-"`

	// BackendMetrics holds the backend's own per-prefix counters (see
	// Result.BackendMetrics).
	BackendMetrics obs.Snapshot `json:"-"`

	// Attribution is the run's cycle-accounting snapshot (see
	// Result.Attribution); one shared controller means one ledger.
	Attribution obs.AttributionSnapshot `json:"-"`
}

// Registry builds the mix run's metrics registry: the shared memory
// system under the canonical prefixes plus per-core CPU counters under
// "coreN.cpu".
func (m MultiResult) Registry() *obs.Registry {
	reg := obs.NewRegistry()
	m.Mem.Register(reg, "memctl")
	m.Dram.Register(reg, "dram")
	m.MDCache.Register(reg, "mdcache")
	m.Faults.Register(reg, "faults")
	m.Audit.Register(reg, "audit")
	reg.Gauge("run.ratio").Set(m.Ratio)
	if m.PageSizes.Total > 0 {
		reg.Histogram("memctl.page_size_chunks").AddSnapshot(m.PageSizes)
	}
	for i, c := range m.Cores {
		c.CPU.Register(reg, fmt.Sprintf("core%d.cpu", i))
	}
	mergeSnapshot(reg, m.BackendMetrics)
	if m.Attribution.Accesses > 0 {
		mergeSnapshot(reg, m.Attribution.Metrics())
	}
	return reg
}

// WeightedSpeedup computes the standard multi-core metric against a
// baseline run of the same mix: the mean of per-core IPC ratios. A
// baseline core with degenerate IPC (zero, NaN or Inf — a core that
// retired nothing) returns an error instead of letting Inf/NaN flow
// into downstream geomeans and panic mid-experiment. Comparing results
// with different core counts is a programming error and panics.
func (m MultiResult) WeightedSpeedup(base MultiResult) (float64, error) {
	if len(m.Cores) != len(base.Cores) {
		panic("sim: mismatched mix results")
	}
	total := 0.0
	for i := range m.Cores {
		b := base.Cores[i].IPC
		if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return 0, fmt.Errorf("sim: mix %s baseline core %d (%s) has degenerate IPC %v",
				base.MixName, i, base.Cores[i].Bench, b)
		}
		total += m.Cores[i].IPC / b
	}
	return total / float64(len(m.Cores)), nil
}

// RunMix simulates a multi-core mix sharing the L3, controller and
// DRAM. Cores interleave in local-time order (the syncedFastForward
// analogue: everyone starts at its region and contends throughout).
func RunMix(mixName string, profs []workload.Profile, cfg Config) (res MultiResult) {
	inBackend(cfg, func() { res = runMix(mixName, profs, cfg) })
	return res
}

func runMix(mixName string, profs []workload.Profile, cfg Config) MultiResult {
	n := len(profs)
	if n == 0 {
		panic("sim: empty mix")
	}
	traces := make([]workload.OpStream, n)
	images := make([]*workload.Image, n)
	base := make([]uint64, n)
	var nextPage uint64
	for i, p := range profs {
		p = scaled(p, cfg.FootprintScale)
		seed := cfg.Seed + uint64(i)*7919
		if cfg.Assets != nil {
			traces[i] = cfg.Assets.stream(i, p, seed, cfg.Ops)
		} else {
			traces[i] = workload.NewTrace(p, seed, cfg.Ops)
		}
		images[i] = traces[i].Image()
		base[i] = nextPage
		nextPage += uint64(p.FootprintPages)
	}
	// Multi-core systems get a second memory channel and a shared
	// metadata cache sized for the combined footprint, the Xeon-class
	// provisioning the paper's 4-core results imply.
	dcfg := cfg.DRAM
	if n > 1 && dcfg.Channels == 1 {
		dcfg.Channels = 2
	}
	mem := dram.New(dcfg)
	if cfg.FootprintScale > 2 {
		cfg.FootprintScale /= 2 // shared md cache covers n cores' pages
	}
	src := &routedSource{basePages: base, images: images}
	ctl, inj := buildController(cfg, cfg.System, int(nextPage), mem, src)
	for i := range images {
		images[i].InstallIntoAt(ctl, base[i])
	}
	auditor := newAuditor(cfg, ctl)
	tracer := attachTracer(cfg, ctl)
	attr := attachAttribution(cfg, ctl)

	// Shared L3: 8 MB for 4 cores (Tab. III), scaled by core count and
	// footprint scale.
	l3 := cache.New("l3", scaledL3Bytes(2<<20*n, cfg.FootprintScale), 16)
	cores := make([]*cpu.Core, n)
	hiers := make([]*cache.Hierarchy, n)
	for i := range cores {
		hiers[i] = cache.NewHierarchy(l3)
		cores[i] = cpu.New(cfg.CPU, hiers[i], ctl, src)
	}

	sampler := newRunSampler(cfg)
	sampleMix := func() {
		var now uint64
		for i := range cores {
			if cores[i].Now() > now {
				now = cores[i].Now()
			}
		}
		m := MultiResult{
			Mem:            ctl.Stats(),
			Dram:           mem.Stats(),
			Ratio:          memctl.CompressionRatio(ctl),
			BackendMetrics: backendMetrics(ctl),
		}
		if ms, ok := ctl.(mdStatser); ok {
			m.MDCache = ms.MetadataCacheStats()
		}
		for i := range cores {
			m.Cores = append(m.Cores, Result{CPU: cores[i].Stats()})
		}
		snap := m.Registry().Snapshot()
		sampler.Sample(now, snap)
		if cfg.OnSample != nil {
			cfg.OnSample(now, snap)
		}
	}

	warm := uint64(float64(cfg.Ops) * cfg.WarmupFrac)
	done := make([]uint64, n) // ops completed per core
	var steps uint64          // total ops across cores (sampling clock)
	var op workload.Op
	// WarmupFrac == 0 means "no warmup": start warmed so the minDone
	// check below cannot reset the statistics one op into the run
	// (RunSingle's `i+1 == warm` comparison never fires for warm == 0;
	// this keeps the two runners consistent).
	warmed := warm == 0
	for {
		// Pick the core with the smallest local clock that still has
		// work; this keeps the cores continuously contending.
		sel := -1
		for i := range cores {
			if done[i] >= cfg.Ops {
				continue
			}
			if sel == -1 || cores[i].Now() < cores[sel].Now() {
				sel = i
			}
		}
		if sel == -1 {
			break
		}
		checkCancel(cfg, steps)
		traces[sel].Next(&op)
		op.LineAddr += base[sel] * memctl.LinesPerPage
		cores[sel].Step(&op)
		if auditor != nil {
			if rep := auditor.Tick(); rep != nil {
				tracer.Emit(cores[sel].Now(), obs.EvAuditRun, obs.NoPage, uint64(len(rep.Violations)))
			}
		}
		done[sel]++
		steps++
		if cfg.SampleEvery > 0 && steps%cfg.SampleEvery == 0 {
			sampleMix()
		}
		if !warmed {
			var minDone uint64 = 1 << 62
			for _, d := range done {
				if d < minDone {
					minDone = d
				}
			}
			if minDone >= warm {
				rs := make([]interface{ ResetStats() }, 0, len(hiers)+len(cores))
				for i := range hiers {
					rs = append(rs, hiers[i])
				}
				for i := range cores {
					rs = append(rs, cores[i])
				}
				resetAll(ctl, mem, rs...)
				attr.Reset()
				warmed = true
			}
		}
	}
	out := MultiResult{
		MixName:        mixName,
		System:         cfg.System.String(),
		Mem:            ctl.Stats(),
		Dram:           mem.Stats(),
		Ratio:          memctl.CompressionRatio(ctl),
		BackendMetrics: backendMetrics(ctl),
	}
	if ms, ok := ctl.(mdStatser); ok {
		out.MDCache = ms.MetadataCacheStats()
	}
	var lastNow uint64
	for i := range cores {
		cores[i].Drain()
		if cores[i].Now() > lastNow {
			lastNow = cores[i].Now()
		}
		r := Result{
			Bench:  profs[i].Name,
			System: cfg.System.String(),
			Cycles: cores[i].Stats().Cycles,
			Instrs: cores[i].Stats().Instrs,
			IPC:    cores[i].Stats().IPC(),
			CPU:    cores[i].Stats(),
		}
		out.Cores = append(out.Cores, r)
	}
	if cfg.SampleEvery > 0 {
		sampleMix() // close the partial final window at the drained clocks
	}
	out.Series = sampler.Series()
	out.PageSizes = pageSizes(ctl)
	if auditor != nil {
		rep := auditor.Final(audit.Structural)
		tracer.Emit(lastNow, obs.EvAuditRun, obs.NoPage, uint64(len(rep.Violations)))
		out.Audit = auditor.Outcome()
		// Pick up the final audit's counters: the repair pass touches
		// both the controller tallies and real DRAM traffic.
		out.Mem = ctl.Stats()
		out.Dram = mem.Stats()
		out.BackendMetrics = backendMetrics(ctl)
	}
	out.Faults = inj.Totals()
	out.Trace = tracer.Trace()
	if attr != nil {
		out.Attribution = attr.Snapshot()
	}
	return out
}
