// Package fleet is the datacenter-scale layer of the reproduction
// (DESIGN.md §15): N independent nodes, each wrapping one registered
// memory-controller backend as its cold compressed tier, a hot
// uncompressed tier fed by a promotion/demotion policy, and ballooning
// that turns compression headroom into reclaimable pages. The fleet
// rollup — aggregate compression ratio, tier churn, page-move traffic,
// energy and memory TCO — is where Compresso's "compression pays at
// scale" argument is evaluated.
//
// Determinism contract: a fleet run is a pure function of its Config.
// Nodes are independent cells fanned out via internal/parallel with
// index-ordered aggregation, so results are byte-identical at any
// Jobs value (DESIGN.md §7).
package fleet

import (
	"fmt"

	"compresso/internal/dram"
	"compresso/internal/energy"
	"compresso/internal/faults"
	"compresso/internal/memctl"
	"compresso/internal/metadata"
	"compresso/internal/obs"
	"compresso/internal/parallel"
	"compresso/internal/rng"
	"compresso/internal/workload"

	// Importing the backends is what makes their names resolvable from
	// NodeSpec.Backend (DESIGN.md §12).
	_ "compresso/internal/core"
	_ "compresso/internal/cram"
	_ "compresso/internal/cxl"
	_ "compresso/internal/dmc"
	_ "compresso/internal/lcp"
)

// hotLatency is the service latency of a hot-tier (uncompressed,
// near-memory) access in core cycles — no controller translation, no
// metadata, no decompression.
const hotLatency = 50

// opGap is the minimum core-clock advance between a node's operations
// (the instruction stream between memory references).
const opGap = 4

// Config parameterizes one fleet run.
type Config struct {
	// Nodes is the fleet roster, typically from Mix.
	Nodes []NodeSpec

	// Policy is the tier promotion/demotion contract applied on every
	// node.
	Policy Policy

	// Epochs is the number of policy epochs each node runs.
	Epochs int

	// OpsPerEpoch is the per-epoch operation budget of a weight-1.0
	// node; a node's actual budget is OpsPerEpoch x its Weight.
	OpsPerEpoch uint64

	// FootprintScale divides every node's benchmark footprint (the
	// experiment runners' speed knob; 1 for full fidelity).
	FootprintScale int

	// Jobs bounds the node-simulation worker goroutines (<= 0 means
	// GOMAXPROCS). Results are byte-identical for every value.
	Jobs int
}

// Validate checks the run shape and resolves every node's benchmark
// and backend before any simulation starts, so a misnamed node fails
// fast instead of panicking mid-fan-out.
func (c Config) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("fleet: empty fleet")
	}
	if c.Epochs < 1 {
		return fmt.Errorf("fleet: %d epochs", c.Epochs)
	}
	if c.OpsPerEpoch < 1 {
		return fmt.Errorf("fleet: %d ops per epoch", c.OpsPerEpoch)
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	for _, spec := range c.Nodes {
		if _, err := workload.ByName(spec.Bench); err != nil {
			return fmt.Errorf("fleet node %d: %w", spec.ID, err)
		}
		if _, ok := memctl.LookupBackend(spec.Backend); !ok {
			return fmt.Errorf("fleet node %d: unknown backend %q (registered: %v)",
				spec.ID, spec.Backend, memctl.BackendNames())
		}
		if spec.Weight <= 0 {
			return fmt.Errorf("fleet node %d: non-positive weight %v", spec.ID, spec.Weight)
		}
	}
	return nil
}

// NodeResult is one node's outcome.
type NodeResult struct {
	ID      int
	Bench   string
	Backend string
	Weight  float64

	// FootprintPages is the node's (scaled) installed footprint.
	FootprintPages int

	// Ratio is the node's effective compression ratio: footprint over
	// machine bytes actually held (hot uncompressed + cold compressed +
	// metadata charge).
	Ratio float64

	// Tier traffic.
	HotHits    uint64 // ops served by the hot uncompressed tier
	ColdReads  uint64 // demand reads through the compressed controller
	ColdWrites uint64 // demand writes through the compressed controller

	// Policy activity.
	Promotions uint64 // cold->hot page moves
	Demotions  uint64 // hot->cold page moves
	MoveBytes  int64  // page bytes moved between tiers

	// HotPages is the hot tier's final population.
	HotPages int

	// BalloonPages is the node's reclaimable page count: budget bytes
	// (the uncompressed footprint provision) not needed by the tiers.
	BalloonPages int64

	// Cycles is the node's final core clock.
	Cycles uint64

	// EnergyNJ is the node's total energy (internal/energy model).
	EnergyNJ float64
}

// Ops returns the node's total demand operations.
func (n NodeResult) Ops() uint64 { return n.HotHits + n.ColdReads + n.ColdWrites }

// Result is a fleet run's outcome: per-node rows plus the rollup.
type Result struct {
	Policy string
	Nodes  []NodeResult

	// AggRatio is the fleet's effective compression ratio: total
	// installed footprint over total machine bytes held.
	AggRatio float64

	// HotHitRate is the fraction of fleet ops served by hot tiers.
	HotHitRate float64

	// ChurnPerKOp is tier moves (promotions + demotions) per thousand
	// operations — the policy-oscillation metric.
	ChurnPerKOp float64

	// MoveBytes is the fleet's total tier-move traffic.
	MoveBytes int64

	// BalloonPages is the fleet's total reclaimable page count.
	BalloonPages int64

	// EnergyNJ is the fleet's total energy.
	EnergyNJ float64

	// TCO rollup (energy.DefaultTCO, one month of the run's footprint):
	// MemoryDollars prices the bytes actually held, BalloonDollars the
	// capacity compression released, EnergyDollars the run's energy.
	MemoryDollars  float64
	BalloonDollars float64
	EnergyDollars  float64
}

// Registry exports the fleet rollup as fleet.* metrics (DESIGN.md §8).
func (r Result) Registry() *obs.Registry {
	reg := obs.NewRegistry()
	var hot, cold, moves uint64
	for _, n := range r.Nodes {
		hot += n.HotHits
		cold += n.ColdReads + n.ColdWrites
		moves += n.Promotions + n.Demotions
	}
	reg.Gauge("fleet.nodes").Set(float64(len(r.Nodes)))
	reg.Counter("fleet.hot_hits").Set(hot)
	reg.Counter("fleet.cold_ops").Set(cold)
	reg.Counter("fleet.tier_moves").Set(moves)
	reg.Counter("fleet.move_bytes").Set(uint64(r.MoveBytes))
	reg.Counter("fleet.balloon_pages").Set(uint64(r.BalloonPages))
	reg.Gauge("fleet.agg_ratio").Set(r.AggRatio)
	reg.Gauge("fleet.hot_hit_rate").Set(r.HotHitRate)
	reg.Gauge("fleet.churn_per_kop").Set(r.ChurnPerKOp)
	reg.Gauge("fleet.energy_nj").Set(r.EnergyNJ)
	reg.Gauge("fleet.tco_memory_dollars").Set(r.MemoryDollars)
	reg.Gauge("fleet.tco_balloon_dollars").Set(r.BalloonDollars)
	reg.Gauge("fleet.tco_energy_dollars").Set(r.EnergyDollars)
	return reg
}

// Run simulates the fleet: every node independently, fanned across
// cfg.Jobs workers, aggregated in node order.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	nodes := parallel.Map(cfg.Jobs, len(cfg.Nodes), func(i int) NodeResult {
		return runNode(cfg.Nodes[i], cfg)
	})
	return aggregate(cfg, nodes), nil
}

// aggregate rolls node results up into the fleet Result. Every derived
// float guards its denominator: obs.Encode rejects non-finite values,
// and a degenerate fleet must still produce a valid artifact.
func aggregate(cfg Config, nodes []NodeResult) Result {
	res := Result{Policy: cfg.Policy.Name, Nodes: nodes}
	var footprint, used int64
	var ops, moves, hot uint64
	for _, n := range nodes {
		fp := int64(n.FootprintPages) * memctl.PageSize
		footprint += fp
		if n.Ratio > 0 {
			used += int64(float64(fp) / n.Ratio)
		}
		ops += n.Ops()
		moves += n.Promotions + n.Demotions
		hot += n.HotHits
		res.MoveBytes += n.MoveBytes
		res.BalloonPages += n.BalloonPages
		res.EnergyNJ += n.EnergyNJ
	}
	if used > 0 {
		res.AggRatio = float64(footprint) / float64(used)
	} else {
		res.AggRatio = 1
	}
	if ops > 0 {
		res.HotHitRate = float64(hot) / float64(ops)
		res.ChurnPerKOp = 1000 * float64(moves) / float64(ops)
	}
	tco := energy.DefaultTCO()
	res.MemoryDollars = tco.MemoryDollars(used, 1)
	res.BalloonDollars = tco.MemoryDollars(res.BalloonPages*memctl.PageSize, 1)
	res.EnergyDollars = tco.EnergyDollars(energy.Breakdown{DRAMDynamic: res.EnergyNJ})
	return res
}

// mdStatser is implemented by controllers with a metadata cache.
type mdStatser interface {
	MetadataCacheStats() metadata.CacheStats
}

// pageState tracks one page's tier membership and policy counters.
type pageState struct {
	hot  bool
	hits uint32 // accesses this epoch
	idle uint16 // consecutive fully idle epochs while hot
}

// runNode simulates one node: install the benchmark image into the
// backend controller (the cold tier), then run Epochs x (weighted
// OpsPerEpoch) zipf-distributed accesses with the policy applied at
// every epoch boundary. Config is pre-validated, so lookups cannot
// fail here.
//
// A node's image never changes, so every cold write and demotion
// writes back the image's own content: the node passes nil data, and
// a sizing backend lays the writeback out from the image's size table.
// A node whose image key is warm therefore reads sizes, never page
// bytes (DESIGN.md §15).
func runNode(spec NodeSpec, cfg Config) NodeResult {
	prof, err := workload.ByName(spec.Bench)
	if err != nil {
		panic(err) // unreachable: Config.Validate resolved it
	}
	prof = workload.Scale(prof, cfg.FootprintScale)
	pages := prof.FootprintPages

	img := workload.NewImage(prof, spec.Seed)
	mem := dram.New(dram.DDR4_2666())
	b, _ := memctl.LookupBackend(spec.Backend)
	ctl := b.New(memctl.BuildParams{
		OSPAPages:      pages,
		MachineBytes:   b.MachineBytes(pages),
		FootprintScale: cfg.FootprintScale,
		Mem:            mem,
		Source:         img,
		Injector:       faults.New(faults.Config{}),
	})
	img.InstallInto(ctl)

	r := rng.New(spec.Seed)
	// Popularity is a fixed zipf ranking over a per-node page
	// permutation: the same pages stay hot across epochs (so hysteresis
	// has something to converge on) but which pages differs per node.
	perm := r.Perm(pages)
	theta := prof.ZipfTheta
	if theta <= 0 {
		theta = 0.8
	}
	z := rng.NewZipf(r, pages, theta)

	pol := cfg.Policy
	state := make([]pageState, pages)
	hotBudget := int(pol.HotFrac * float64(pages))
	hotPages := 0
	if pol.MaxMoveFrac == 0 {
		// Static policy: pre-seed the hot tier with the
		// popularity-ranked hottest pages; no churn afterwards.
		for i := 0; i < hotBudget; i++ {
			state[perm[i]].hot = true
			hotPages++
		}
	}

	res := NodeResult{
		ID: spec.ID, Bench: spec.Bench, Backend: spec.Backend,
		Weight: spec.Weight, FootprintPages: pages,
	}
	var now uint64
	ops := uint64(float64(cfg.OpsPerEpoch) * spec.Weight)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for op := uint64(0); op < ops; op++ {
			page := perm[z.Next()]
			line := uint64(page)*memctl.LinesPerPage + uint64(r.Intn(memctl.LinesPerPage))
			write := r.Bool(prof.WriteFrac)
			st := &state[page]
			if st.hits != ^uint32(0) {
				st.hits++
			}
			now += opGap
			if st.hot {
				res.HotHits++
				now += hotLatency
				continue
			}
			if write {
				res.ColdWrites++
				ctl.WriteLine(now, line, nil)
			} else {
				res.ColdReads++
				done := ctl.ReadLine(now, line).Done
				if done > now {
					now = done
				}
			}
		}
		hotPages = applyPolicy(pol, state, ctl, &now, hotPages, hotBudget, &res)
	}
	res.HotPages = hotPages
	res.Cycles = now
	res.Ratio, res.BalloonPages = capacity(b, ctl, pages, hotPages)

	var mdAccesses uint64
	if ms, ok := ctl.(mdStatser); ok {
		mdAccesses = ms.MetadataCacheStats().Accesses()
	}
	res.EnergyNJ = energy.Default().Evaluate(energy.Inputs{
		Dram:            mem.Stats(),
		Mem:             ctl.Stats(),
		Cycles:          now,
		MDCacheAccesses: mdAccesses,
		Compressions:    energy.CompressionsEstimate(ctl.Stats()),
		Cores:           1,
	}).Total()
	return res
}

// applyPolicy runs one epoch boundary: demotions first (freeing
// budget), then promotions, both in page-index order so the walk is
// deterministic, both bounded by the epoch move cap. Returns the new
// hot population.
func applyPolicy(pol Policy, state []pageState, ctl memctl.Controller, now *uint64,
	hotPages, hotBudget int, res *NodeResult) int {

	moveCap := int(pol.MaxMoveFrac * float64(len(state)))
	moves := 0
	for page := range state {
		st := &state[page]
		if !st.hot {
			continue
		}
		if st.hits > 0 {
			st.idle = 0
			continue
		}
		st.idle++
		if int(st.idle) >= pol.DemoteIdleEpochs && moves < moveCap {
			movePage(ctl, now, uint64(page), true)
			st.hot = false
			st.idle = 0
			hotPages--
			moves++
			res.Demotions++
			res.MoveBytes += memctl.PageSize
		}
	}
	for page := range state {
		st := &state[page]
		if st.hot || int(st.hits) < pol.PromoteHits || pol.PromoteHits == 0 {
			continue
		}
		if hotPages >= hotBudget || moves >= moveCap {
			break
		}
		movePage(ctl, now, uint64(page), false)
		st.hot = true
		st.idle = 0
		hotPages++
		moves++
		res.Promotions++
		res.MoveBytes += memctl.PageSize
	}
	for page := range state {
		state[page].hits = 0
	}
	return hotPages
}

// movePage charges one page's tier move through the controller: a
// demotion writes the page's lines back into the compressed tier
// (recompression and layout work), a promotion reads them out of it.
func movePage(ctl memctl.Controller, now *uint64, page uint64, demote bool) {
	base := page * memctl.LinesPerPage
	for l := uint64(0); l < memctl.LinesPerPage; l++ {
		if demote {
			ctl.WriteLine(*now, base+l, nil)
			*now += opGap
		} else {
			done := ctl.ReadLine(*now, base+l).Done
			if done > *now {
				*now = done
			}
		}
	}
}

// capacity computes the node's effective compression ratio and balloon
// headroom. The node's provision (budget) is its uncompressed
// footprint; what it actually holds is the hot pages verbatim, the
// cold pages at the controller's average compressed size, and the
// backend's metadata charge. The surplus is reclaimable as whole
// balloon pages.
func capacity(b memctl.Backend, ctl memctl.Controller, pages, hotPages int) (ratio float64, balloon int64) {
	footprint := int64(pages) * memctl.PageSize
	metaBytes := b.MachineBytes(pages) - memctl.BaselineMachineBytes(pages)
	avgComp := float64(ctl.CompressedBytes()) / float64(pages)
	used := int64(hotPages)*memctl.PageSize +
		int64(float64(pages-hotPages)*avgComp) + metaBytes
	if used <= 0 {
		return 1, 0
	}
	ratio = float64(footprint) / float64(used)
	if free := footprint - used; free > 0 {
		balloon = free / memctl.PageSize
	}
	return ratio, balloon
}
