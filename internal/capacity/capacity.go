// Package capacity implements the paper's memory-capacity impact
// evaluation (§VI-A), the half of the dual-simulation methodology that
// cycle simulators miss: how much performance a system gains because
// compression effectively enlarges a constrained memory.
//
// Methodology, mirroring the paper's two stages:
//
//  1. Profiling: the benchmark trace runs once at full footprint;
//     at every interval boundary the per-system storage ratio of the
//     evolving image is measured (the paper pauses real runs every
//     200M instructions and dumps memory). LCP-style systems never
//     repack, so their per-page storage is tracked as a high
//     watermark; Compresso's repacking keeps it at the fresh packing.
//  2. Constrained replay: the recorded page-touch stream replays
//     through an LRU pager whose byte budget is the constrained
//     fraction of the footprint, scaled each interval by the system's
//     measured ratio (the paper's dynamic cgroups adjustment). Page
//     faults cost SwapCostOps operation-equivalents.
//
// Relative performance is the baseline (constrained, uncompressed)
// time over the system's time, exactly the quantity in Fig. 10a's
// "Mem-Cap Impact" bars and Tab. II.
package capacity

import (
	"fmt"

	"compresso/internal/memctl"
	"compresso/internal/oskernel"
	"compresso/internal/workload"
)

// Sizer identifies a storage model whose capacity effect is evaluated.
type Sizer int

// The evaluated storage models.
const (
	Uncompressed Sizer = iota
	Compresso
	CompressoNoRepack // §IV-B4 ablation (Fig. 7)
	LCP
	LCPAlign
	NSizers
)

// String names the sizer.
func (s Sizer) String() string {
	switch s {
	case Uncompressed:
		return "uncompressed"
	case Compresso:
		return "compresso"
	case CompressoNoRepack:
		return "compresso-norepack"
	case LCP:
		return "lcp"
	case LCPAlign:
		return "lcp-align"
	}
	return fmt.Sprintf("Sizer(%d)", int(s))
}

// Config parameterizes a capacity evaluation.
type Config struct {
	// Frac constrains memory to this fraction of the footprint
	// (Tab. II evaluates 0.8, 0.7, 0.6).
	Frac float64
	// Ops is the trace length (the paper's full-run analogue).
	Ops uint64
	// Intervals is the number of profiling intervals.
	Intervals int
	// Seed drives the workload.
	Seed uint64
	// SwapCostOps is a page fault's cost in operation-equivalents.
	// Our synthetic traces fault far more often per operation than
	// SPEC's strongly page-local streams, so the default calibrates
	// the fault-rate x fault-cost *product* against the paper's
	// anchor (unconstrained memory ~1.39x the 70%-constrained
	// baseline, Tab. II) rather than using a physical swap latency.
	SwapCostOps float64
	// FootprintScale divides footprints (test speed knob).
	FootprintScale int
	// Jobs bounds the worker pool for the tracker's batched
	// construction scans (0 = all cores). Results are byte-identical
	// at any value (DESIGN.md §7).
	Jobs int
}

// DefaultConfig returns the standard setup at the given constrained
// fraction.
func DefaultConfig(frac float64) Config {
	return Config{
		Frac:           frac,
		Ops:            600_000,
		Intervals:      12,
		Seed:           42,
		SwapCostOps:    12,
		FootprintScale: 1,
		// Serial by default: capacity cells usually already run inside
		// an experiment grid's worker pool; the CLI's direct -capacity
		// path raises this to its -jobs.
		Jobs: 1,
	}
}

// Outcome is one benchmark's capacity evaluation.
type Outcome struct {
	Bench string
	Frac  float64

	// RelPerf is performance relative to the constrained uncompressed
	// baseline, per sizer; Unconstrained is the upper bound.
	RelPerf       [NSizers]float64
	Unconstrained float64

	Faults        [NSizers]uint64
	BaselineRate  float64 // baseline fault rate per op
	MeanRatio     [NSizers]float64
	FootprintB    int64
	RecordedTouch int
}

// Evaluate runs the full two-stage methodology for one benchmark: the
// one-core case of EvaluateMix's loop, reported with its per-sizer
// fault counts and mean ratios.
func Evaluate(prof workload.Profile, cfg Config) Outcome {
	return Sweep([]workload.Profile{prof}, cfg, []float64{cfg.Frac})[0]
}

// MixOutcome is a 4-core capacity evaluation (Fig. 11a's mem-cap
// bars): cores share a constrained budget; the metric is the average
// per-core relative progress, the paper's §VI-E workload metric.
type MixOutcome struct {
	MixName       string
	RelPerf       [NSizers]float64
	Unconstrained float64
}

// EvaluateMix runs the methodology for a multi-core mix with a shared
// budget. Streams interleave round-robin (always under contention).
func EvaluateMix(mixName string, profs []workload.Profile, cfg Config) MixOutcome {
	out := Sweep(profs, cfg, []float64{cfg.Frac})[0]
	return MixOutcome{MixName: mixName, RelPerf: out.RelPerf, Unconstrained: out.Unconstrained}
}

// Sweep is the one capacity loop behind Evaluate and EvaluateMix,
// evaluated at several constrained fractions. Stage 1 (the profile)
// does not depend on the fraction, so it runs once; stage 2 replays
// its touch stream once per fraction. cfg.Frac is ignored: outcome i
// is bit for bit the evaluation at fracs[i]. A one-profile sweep
// names its benchmark in Bench.
func Sweep(profs []workload.Profile, cfg Config, fracs []float64) []Outcome {
	pr := profileRun(profs, cfg)
	out := make([]Outcome, len(fracs))
	for i, frac := range fracs {
		out[i] = pr.replay(frac)
		if len(profs) == 1 {
			out[i].Bench = profs[0].Name
		}
	}
	return out
}

// profile is stage 1's product: the interleaved touch stream of global
// page ids and the combined per-sizer ratios at every interval.
type profile struct {
	cores     int
	cfg       Config
	footprint int64
	interval  uint64
	touches   []uint32
	ratios    [][NSizers]float64
}

// profileRun is stage 1: it interleaves the cores' traces round-robin
// into one touch stream of global page ids, sampling the combined
// ratios at every interval boundary. Since the interleaving is strict
// round-robin, step i belongs to core i mod n.
func profileRun(profs []workload.Profile, cfg Config) *profile {
	n := len(profs)
	traces := make([]*workload.Trace, n)
	trackers := make([]*tracker, n)
	pageBase := make([]uint64, n)
	var nextPage uint64
	pr := &profile{cores: n, cfg: cfg}
	for i, p := range profs {
		p = workload.Scale(p, cfg.FootprintScale)
		traces[i] = workload.NewTrace(p, workload.CoreSeed(cfg.Seed, i), cfg.Ops)
		trackers[i] = newTracker(traces[i].Image(), cfg.Jobs)
		pageBase[i] = nextPage
		nextPage += uint64(p.FootprintPages)
		pr.footprint += int64(p.FootprintPages) * memctl.PageSize
	}

	stepsTotal := cfg.Ops * uint64(n)
	pr.touches = make([]uint32, 0, stepsTotal)
	pr.interval = stepsTotal / uint64(cfg.Intervals)
	if pr.interval == 0 {
		pr.interval = 1
	}
	pr.ratios = make([][NSizers]float64, 0, cfg.Intervals)
	var op workload.Op
	for i := uint64(0); i < cfg.Ops; i++ {
		for c, tr := range traces {
			tr.Next(&op)
			if op.Write {
				trackers[c].noteStore(op.LineAddr)
			}
			pr.touches = append(pr.touches, uint32(pageBase[c]+op.LineAddr/memctl.LinesPerPage))
			if uint64(len(pr.touches))%pr.interval == 0 && len(pr.ratios) < cfg.Intervals {
				pr.ratios = append(pr.ratios, combinedRatios(trackers))
			}
		}
	}
	for len(pr.ratios) < cfg.Intervals {
		pr.ratios = append(pr.ratios, combinedRatios(trackers))
	}
	return pr
}

// replay is stage 2 at one constrained fraction: one shared-budget
// pager replay of the touch stream per sizer, faults attributed per
// core. RelPerf and Unconstrained are the per-core averages, Faults
// the per-core sums.
func (pr *profile) replay(frac float64) Outcome {
	n, cfg, ratios, interval := pr.cores, pr.cfg, pr.ratios, pr.interval
	out := Outcome{Frac: frac, FootprintB: pr.footprint, RecordedTouch: len(pr.touches)}
	var times [NSizers][]float64
	for s := Sizer(0); s < NSizers; s++ {
		budget := func(iv int) int64 {
			return int64(frac * float64(pr.footprint) * ratios[clampIdx(iv, len(ratios))][s])
		}
		pager := oskernel.NewPager(budget(0))
		coreFaults := make([]uint64, n)
		c, iv, next := 0, 0, interval
		for i, page := range pr.touches {
			if uint64(i) == next {
				iv++
				next += interval
				pager.SetBudget(budget(iv))
			}
			if pager.Touch(uint64(page)) {
				coreFaults[c]++
			}
			if c++; c == n {
				c = 0
			}
		}
		times[s] = make([]float64, n)
		for c, f := range coreFaults {
			out.Faults[s] += f
			times[s][c] = float64(cfg.Ops) + float64(f)*cfg.SwapCostOps
		}
		total := 0.0
		for _, rv := range ratios {
			total += rv[s]
		}
		out.MeanRatio[s] = total / float64(len(ratios))
	}
	base := times[Uncompressed]
	for s := Sizer(0); s < NSizers; s++ {
		total := 0.0
		for c := range base {
			total += base[c] / times[s][c]
		}
		out.RelPerf[s] = total / float64(n)
	}
	total := 0.0
	for _, b := range base {
		total += b / float64(cfg.Ops)
	}
	out.Unconstrained = total / float64(n)
	out.BaselineRate = float64(out.Faults[Uncompressed]) / float64(len(pr.touches))
	return out
}

func clampIdx(i, n int) int {
	if i >= n {
		return n - 1
	}
	return i
}

func combinedRatios(trackers []*tracker) [NSizers]float64 {
	var out [NSizers]float64
	var fp int64
	var store [NSizers]int64
	for _, t := range trackers {
		t.refresh()
		fp += t.footprintBytes()
		for s := Sizer(0); s < NSizers; s++ {
			store[s] += t.storageBytes(s)
		}
	}
	for s := Sizer(0); s < NSizers; s++ {
		if store[s] <= 0 {
			out[s] = float64(fp)
			continue
		}
		out[s] = float64(fp) / float64(store[s])
	}
	return out
}

// OverallPerformance combines a cycle-based relative performance with
// a capacity relative performance multiplicatively, the paper's §VI-F
// overall metric.
func OverallPerformance(cycleRel, capacityRel float64) float64 {
	return cycleRel * capacityRel
}
