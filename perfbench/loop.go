package main

import (
	"fmt"
	"hash/maphash"
	"time"

	"compresso/internal/cache"
	"compresso/internal/compress"
	"compresso/internal/cpu"
	"compresso/internal/dram"
	"compresso/internal/faults"
	"compresso/internal/memctl"
	"compresso/internal/obs"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// loopSpec is one simulation run rebuilt from the simulator's public
// parts: the RunMix loop when mix is set, else the RunSingle loop.
type loopSpec struct {
	name   string // mix name for RunMix results
	profs  []workload.Profile
	system string
	ops    uint64
	scale  int
	seed   uint64
	mix    bool
}

// label names the run's workload: the mix, or the single benchmark.
func (s loopSpec) label() string {
	if s.mix {
		return s.name
	}
	return s.profs[0].Name
}

// simConfig is the sim.Config the rebuilt loop reproduces.
func (s loopSpec) simConfig() sim.Config {
	cfg := sim.DefaultConfig(sim.System(s.system))
	cfg.Ops, cfg.FootprintScale, cfg.Seed = s.ops, s.scale, s.seed
	return cfg
}

// loopResult is what the equivalence check compares.
type loopResult struct {
	Cycles []uint64
	Mem    memctl.Stats
	Dram   dram.Stats
}

// fromSingle and fromMix project the simulator's own results onto
// loopResult.
func fromSingle(r sim.Result) loopResult {
	return loopResult{Cycles: []uint64{r.Cycles}, Mem: r.Mem, Dram: r.Dram}
}

func fromMix(r sim.MultiResult) loopResult {
	out := loopResult{Mem: r.Mem, Dram: r.Dram}
	for _, c := range r.Cores {
		out.Cycles = append(out.Cycles, c.Cycles)
	}
	return out
}

func (a loopResult) equal(b loopResult) bool {
	if len(a.Cycles) != len(b.Cycles) || a.Mem != b.Mem || a.Dram != b.Dram {
		return false
	}
	for i := range a.Cycles {
		if a.Cycles[i] != b.Cycles[i] {
			return false
		}
	}
	return true
}

// runSim runs the simulator's own loop for the spec (the reference the
// rebuilt loop must reproduce).
func runSim(s loopSpec, assets *sim.MixAssets) loopResult {
	cfg := s.simConfig()
	cfg.Assets = assets
	if s.mix {
		return fromMix(sim.RunMix(s.name, s.profs, cfg))
	}
	return fromSingle(sim.RunSingle(s.profs[0], cfg))
}

// capture bounds the op and DRAM streams kept for the layer replays.
const captureOps = 1 << 18

// probe holds the layer boundaries a traced loop wraps: the tracer, the
// size-call content census, and the captured op and DRAM streams.
type probe struct {
	tr                      *tracer
	step, next, read, write spanKind
	sizeLine                spanKind
	sizeSeed                maphash.Seed
	contents                map[uint64]struct{}
	sizeCalls               uint64
	ops                     []lineRef
	drams                   []lineRef
	l3Bytes                 int
	dram                    dram.Config
	l3                      cache.Stats
	violations              uint64
}

// lineRef is one captured line access.
type lineRef struct {
	line  uint64
	write bool
}

func newProbe(tr *tracer, system string) *probe {
	return &probe{
		tr:       tr,
		step:     tr.kind("cpu.step"),
		next:     tr.kind("workload.trace.next"),
		read:     tr.kind("memctl." + system + ".read"),
		write:    tr.kind("memctl." + system + ".write"),
		sizeLine: tr.kind("workload.size_line"),
		sizeSeed: maphash.MakeSeed(),
		contents: map[uint64]struct{}{},
	}
}

// router maps global line addresses to per-core images, like the
// simulator's own multi-core source. With a probe attached it also
// times SizeLine and counts distinct line contents sized.
type router struct {
	base   []uint64
	images []*workload.Image
	p      *probe
	buf    [memctl.LineBytes]byte
}

func (r *router) locate(lineAddr uint64) (*workload.Image, uint64) {
	page := lineAddr / memctl.LinesPerPage
	for i := len(r.base) - 1; i >= 0; i-- {
		if page >= r.base[i] {
			return r.images[i], lineAddr - r.base[i]*memctl.LinesPerPage
		}
	}
	panic(fmt.Sprintf("line %d outside every core's range", lineAddr))
}

func (r *router) ReadLine(lineAddr uint64, buf []byte) {
	img, local := r.locate(lineAddr)
	img.ReadLine(local, buf)
}

// SizeLine implements memctl.LineSizer.
func (r *router) SizeLine(codec compress.Codec, lineAddr uint64) int {
	img, local := r.locate(lineAddr)
	if r.p == nil {
		return img.SizeLine(codec, local)
	}
	img.ReadLine(local, r.buf[:])
	r.p.contents[maphash.Bytes(r.p.sizeSeed, r.buf[:])] = struct{}{}
	r.p.sizeCalls++
	r.p.tr.begin(r.p.sizeLine)
	n := img.SizeLine(codec, local)
	r.p.tr.end()
	return n
}

// timedController wraps a controller, timing every demand access.
type timedController struct {
	memctl.Controller
	p *probe
}

func (c timedController) ReadLine(now, lineAddr uint64) memctl.Result {
	c.p.tr.begin(c.p.read)
	r := c.Controller.ReadLine(now, lineAddr)
	c.p.tr.end()
	return r
}

func (c timedController) WriteLine(now, lineAddr uint64, data []byte) memctl.Result {
	c.p.tr.begin(c.p.write)
	r := c.Controller.WriteLine(now, lineAddr, data)
	c.p.tr.end()
	return r
}

// l3Bytes mirrors the simulator's footprint-scaled L3 sizing: the
// per-core size divided by the scale, at least 128 KiB, rounded down
// to a power of two.
func l3Bytes(perCore, scale int) int {
	const floor = 128 << 10
	size := perCore / scale
	if size < floor {
		return floor
	}
	p := floor
	for p*2 <= size {
		p *= 2
	}
	return p
}

// runLoop rebuilds sim.RunMix (spec.mix) or sim.RunSingle from public
// parts. With a nil probe it is the bare loop; with a probe every
// demand op is a request whose trace step, core step, controller
// accesses and line sizing are spans, the cycle-accounting ledger is
// attached, and the op and DRAM streams are captured for replay.
func runLoop(s loopSpec, p *probe) loopResult {
	n := len(s.profs)
	traces := make([]*workload.Trace, n)
	src := &router{base: make([]uint64, n), images: make([]*workload.Image, n), p: p}
	var pages uint64
	for i, prof := range s.profs {
		prof = workload.Scale(prof, s.scale)
		traces[i] = workload.NewTrace(prof, s.seed+uint64(i)*7919, s.ops)
		src.images[i] = traces[i].Image()
		src.base[i] = pages
		pages += uint64(prof.FootprintPages)
	}
	dcfg := dram.DDR4_2666()
	scale := s.scale
	if s.mix {
		if n > 1 && dcfg.Channels == 1 {
			dcfg.Channels = 2
		}
		if scale > 2 {
			scale /= 2 // the shared metadata cache covers n cores' pages
		}
	}
	mem := dram.New(dcfg)
	b, ok := memctl.LookupBackend(s.system)
	if !ok {
		panic("unknown backend " + s.system)
	}
	ctl := b.New(memctl.BuildParams{
		OSPAPages:      int(pages),
		MachineBytes:   b.MachineBytes(int(pages)),
		FootprintScale: scale,
		Mem:            mem,
		Source:         src,
		Injector:       faults.New(faults.Config{}),
	})
	for i, img := range src.images {
		img.InstallIntoAt(ctl, src.base[i])
	}
	var attr *obs.Attribution
	var coreCtl memctl.Controller = ctl
	if p != nil {
		if as, ok := ctl.(interface{ SetAttribution(*obs.Attribution) }); ok {
			attr = obs.NewAttribution(sim.DefaultTopPages)
			as.SetAttribution(attr)
		}
		coreCtl = timedController{Controller: ctl, p: p}
		mem.SetOnAccess(func(line uint64, write bool) {
			if len(p.drams) < captureOps {
				p.drams = append(p.drams, lineRef{line, write})
			}
		})
	}
	l3 := cache.New("l3", l3Bytes(2<<20*n, scale), 16)
	if p != nil {
		p.l3Bytes, p.dram = l3Bytes(2<<20*n, scale), dcfg
	}
	cores := make([]*cpu.Core, n)
	hiers := make([]*cache.Hierarchy, n)
	for i := range cores {
		hiers[i] = cache.NewHierarchy(l3)
		cores[i] = cpu.New(cpu.DefaultConfig(), hiers[i], coreCtl, src)
	}
	reset := func() {
		ctl.ResetStats()
		mem.ResetStats()
		mem.ResetTiming()
		for i := range cores {
			cores[i].ResetStats()
			hiers[i].ResetStats()
		}
		attr.Reset()
	}

	warm := uint64(float64(s.ops) * s.simConfig().WarmupFrac)
	done := make([]uint64, n)
	warmed := warm == 0
	var op workload.Op
	for {
		sel := -1
		for i := range cores {
			if done[i] < s.ops && (sel == -1 || cores[i].Now() < cores[sel].Now()) {
				sel = i
			}
		}
		if sel == -1 {
			break
		}
		if p == nil {
			traces[sel].Next(&op)
			op.LineAddr += src.base[sel] * memctl.LinesPerPage
			cores[sel].Step(&op)
		} else {
			p.tr.request()
			p.tr.begin(p.next)
			traces[sel].Next(&op)
			p.tr.end()
			op.LineAddr += src.base[sel] * memctl.LinesPerPage
			if len(p.ops) < captureOps {
				p.ops = append(p.ops, lineRef{op.LineAddr, op.Write})
			}
			p.tr.begin(p.step)
			cores[sel].Step(&op)
			p.tr.end()
		}
		done[sel]++
		if !warmed && minOf(done) >= warm {
			reset()
			warmed = true
		}
	}
	if p != nil {
		p.tr.flushTree()
		p.l3 = l3.Stats()
		p.violations = attr.Violations()
	}
	res := loopResult{}
	if s.mix {
		// RunMix reads the shared memory system before draining.
		res.Mem, res.Dram = ctl.Stats(), mem.Stats()
	}
	for _, c := range cores {
		c.Drain()
		res.Cycles = append(res.Cycles, c.Stats().Cycles)
	}
	if !s.mix {
		res.Mem, res.Dram = ctl.Stats(), mem.Stats()
	}
	return res
}

func minOf(xs []uint64) uint64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// replayCache times every captured op through a fresh hierarchy of the
// loop's L3 geometry, returning per-access nanoseconds.
func replayCache(ops []lineRef, l3Size int) []float64 {
	h := cache.NewHierarchy(cache.New("l3", l3Size, 16))
	out := make([]float64, len(ops))
	for i, r := range ops {
		t0 := time.Now()
		h.Access(r.line, r.write)
		out[i] = float64(time.Since(t0))
	}
	return out
}

// replayDRAM times every captured DRAM access through a fresh memory of
// the given configuration, returning per-access nanoseconds.
func replayDRAM(refs []lineRef, cfg dram.Config) []float64 {
	mem := dram.New(cfg)
	out := make([]float64, len(refs))
	var now uint64
	for i, r := range refs {
		t0 := time.Now()
		mem.Access(now, r.line, r.write)
		out[i] = float64(time.Since(t0))
		now += 16
	}
	return out
}
