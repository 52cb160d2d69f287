package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"compresso/internal/audit"
	"compresso/internal/cache"
	"compresso/internal/compress"
	"compresso/internal/experiments"
	"compresso/internal/fleet"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// tracedRun collects the per-layer measurements of one traced run.
type tracedRun struct {
	j      *job
	seed   uint64
	tr     *tracer
	c      *checks
	cells  []float64 // grid cell wall times, ms
	detail []string  // per-experiment, per-backend and per-policy lines

	phaseCPU   time.Duration // CPU of the workload's own traced phase
	mismatches []string      // harness equivalence failures
	out        metrics
}

// cellSink is a parallel.Progress that records grid cell wall times.
type cellSink struct {
	mu    sync.Mutex
	walls []float64
}

func (s *cellSink) GridStart(string, int) {}
func (s *cellSink) GridEnd(string)        {}
func (s *cellSink) GridCell(_ string, _ int, wall time.Duration) {
	s.mu.Lock()
	s.walls = append(s.walls, float64(wall)/1e6)
	s.mu.Unlock()
}

func (t *tracedRun) note(format string, args ...any) {
	t.detail = append(t.detail, fmt.Sprintf(format, args...))
}

// experimentsSplit runs every experiment in List order in this process,
// which is what a serial RunAll does (including its memo sharing), and
// times each one; grid cells come from a Progress sink.
func (t *tracedRun) experimentsSplit(opt experiments.Options) error {
	sink := &cellSink{}
	opt.Progress = sink
	var out bytes.Buffer
	opt.Out = &out
	for _, e := range experiments.List() {
		t.tr.request()
		k := t.tr.kind("experiments." + e.Name)
		c0 := cpuTime()
		t.tr.begin(k)
		err := experiments.Run(e.Name, opt)
		t.tr.end()
		d := cpuTime() - c0
		t.phaseCPU += d
		t.c.add(err == nil, "experiment "+e.Name+" succeeded")
		t.note("experiments.%s.cpu_s %.4f s", e.Name, d.Seconds())
	}
	t.tr.flushTree()
	t.cells = sink.walls
	return nil
}

// fleetSplit times every node of every fleet as a one-node fleet.Run.
// Nodes are independent, so each NodeResult must equal the full run's.
func (t *tracedRun) fleetSplit(cells []fleetCell) error {
	byBackend := map[string]time.Duration{}
	byPolicy := map[string]time.Duration{}
	var fullCPU time.Duration
	images := map[[2]any]bool{}
	nodes := 0
	for _, cell := range cells {
		c0 := cpuTime()
		full, err := fleet.Run(cell.cfg)
		fullCPU += cpuTime() - c0
		if err != nil {
			return err
		}
		k := t.tr.kind("fleet.node." + cell.backend)
		for i, spec := range cell.cfg.Nodes {
			one := cell.cfg
			one.Nodes = []fleet.NodeSpec{spec}
			t.tr.request()
			c0, w0 := cpuTime(), time.Now()
			t.tr.begin(k)
			r, err := fleet.Run(one)
			t.tr.end()
			d := cpuTime() - c0
			t.cells = append(t.cells, float64(time.Since(w0))/1e6)
			if err != nil {
				return err
			}
			t.phaseCPU += d
			byBackend[cell.backend] += d
			byPolicy[cell.cfg.Policy.Name] += d
			if r.Nodes[0] != full.Nodes[i] {
				t.mismatches = append(t.mismatches, fmt.Sprintf("fleet %s/%s node %d differs from the full run",
					cell.backend, cell.cfg.Policy.Name, spec.ID))
			}
			images[[2]any{spec.Bench, spec.Seed}] = true
			nodes++
		}
	}
	t.tr.flushTree()
	for _, b := range fleetBackends {
		t.note("fleet.node.%s.cpu_s %.4f s", b, byBackend[b].Seconds())
	}
	for _, p := range fleet.PolicyNames() {
		t.note("fleet.policy.%s.cpu_s %.4f s", p, byPolicy[p].Seconds())
	}
	t.note("fleet.full_run.cpu_s %.4f s", fullCPU.Seconds())
	t.note("fleet.image_repeat_frac %.4f (%d distinct images over %d nodes)",
		1-float64(len(images))/float64(nodes), len(images), nodes)
	return nil
}

// loopTotals accumulates the rebuilt loops' layer measurements.
type loopTotals struct {
	cacheNS, dramNS      []float64
	l3                   cache.Stats
	dramAccesses         uint64
	sizeCalls, distinct  uint64
	violations           uint64
	simCPU, prepare      time.Duration
	materialize, sizeAll time.Duration
}

// runLoops runs every rebuilt loop traced, checks it against the
// simulator's own run, and replays its captured streams through fresh
// cache and DRAM models.
func (t *tracedRun) runLoops() loopTotals {
	var lt loopTotals
	first := t.j.loops[0]
	w0 := time.Now()
	assets := sim.PrepareAssets(first.profs, first.simConfig(), compress.BPC{}, 1)
	lt.prepare = time.Since(w0)
	for i, p := range t.j.profs {
		img := workload.NewImage(workload.Scale(p, t.j.scale), t.seed+uint64(i)*7919)
		w0 := time.Now()
		img.Materialize(1)
		lt.materialize += time.Since(w0)
		w0 = time.Now()
		img.SizeAll(compress.BPC{}, 1)
		lt.sizeAll += time.Since(w0)
	}
	for _, spec := range t.j.loops {
		p := newProbe(t.tr, spec.system)
		c0, w0 := cpuTime(), time.Now()
		got := runLoop(spec, p)
		d := cpuTime() - c0
		if t.j.traced == nil { // the loops are the measured phase
			t.phaseCPU += d
			t.cells = append(t.cells, float64(time.Since(w0))/1e6)
		}
		t.note("loop.%s.%s.cpu_s %.4f s", spec.system, spec.label(), d.Seconds())
		var ref loopResult
		c0 = cpuTime()
		if spec.mix {
			ref = runSim(spec, assets)
		} else {
			ref = runSim(spec, nil)
		}
		lt.simCPU += cpuTime() - c0
		if !got.equal(ref) {
			t.mismatches = append(t.mismatches, fmt.Sprintf("rebuilt %s loop differs from sim: cycles %v vs %v",
				spec.system, got.Cycles, ref.Cycles))
		}
		lt.cacheNS = append(lt.cacheNS, replayCache(p.ops, p.l3Bytes)...)
		lt.dramNS = append(lt.dramNS, replayDRAM(p.drams, p.dram)...)
		lt.l3.Hits += p.l3.Hits
		lt.l3.Misses += p.l3.Misses
		lt.dramAccesses += got.Dram.Accesses()
		lt.sizeCalls += p.sizeCalls
		lt.distinct += uint64(len(p.contents))
		lt.violations += p.violations
	}
	t.c.add(lt.violations == 0, "attribution ledger conservation violations == 0")
	t.auditCheck()
	return lt
}

// auditCheck runs the compresso loop's shape through the simulator with
// periodic repairing audits and requires a clean outcome.
func (t *tracedRun) auditCheck() {
	for _, spec := range t.j.loops {
		if spec.system != string(sim.Compresso) {
			continue
		}
		cfg := spec.simConfig()
		cfg.AuditEvery = 10_000
		var out audit.Outcome
		if spec.mix {
			out = sim.RunMix(spec.name, spec.profs, cfg).Audit
		} else {
			out = sim.RunSingle(spec.profs[0], cfg).Audit
		}
		t.c.add(out.Runs > 0 && out.Violations == 0,
			fmt.Sprintf("audit every 10000 ops: %d audits, %d violations", out.Runs, out.Violations))
		return
	}
}

// codecProbe times the codec kernels on the workload's sampled lines
// and blocks.
func (t *tracedRun) codecProbe(s lineSample) {
	var dst, out [compress.LineSize]byte
	timeEach := func(n int, f func(i int)) []float64 {
		ns := make([]float64, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			f(i)
			ns[i] = float64(time.Since(t0))
		}
		return ns
	}
	bpc, bdi := compress.BPC{}, compress.BDI{}
	lines := s.lines
	t.out.dist("compress.bpc.size_ns", "ns", timeEach(len(lines), func(i int) { compress.SizeOnly(bpc, lines[i]) }))
	compressed := make([][]byte, len(lines))
	t.out.dist("compress.bpc.compress_ns", "ns", timeEach(len(lines), func(i int) {
		n := bpc.Compress(dst[:], lines[i])
		compressed[i] = append([]byte(nil), dst[:n]...)
	}))
	t.out.dist("compress.bpc.decompress_ns", "ns", timeEach(len(lines), func(i int) {
		_ = bpc.Decompress(out[:], compressed[i]) // round trips are checked separately
	}))
	t.out.dist("compress.bdi.size_ns", "ns", timeEach(len(lines), func(i int) { compress.SizeOnly(bdi, lines[i]) }))
	us := timeEach(len(s.blocks), func(i int) { compress.LZSizeBlock(s.blocks[i]) })
	for i := range us {
		us[i] /= 1e3
	}
	t.out.dist("compress.lz.size_block_us", "us", us)
}
