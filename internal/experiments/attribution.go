package experiments

import (
	"context"
	"fmt"

	"compresso/internal/obs"
	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// attributionBenches is the workload pair behind the overhead
// decomposition: one compression-friendly integer benchmark and one
// capacity-stressing pointer chaser, merged into a single ledger per
// backend so the stack reflects mixed behaviour rather than one trace
// shape.
var attributionBenches = []string{"gcc", "mcf"}

// attrGroup collapses the 13 ledger components into the paper-style
// stack: raw DRAM time, metadata overhead, (de)compression latency,
// data movement (splits, overflows, repacks, wasted speculation), and
// link transfer for the far-memory backend.
type attrGroup struct {
	Name  string
	Comps []obs.Component
}

var attrGroups = []attrGroup{
	{"dram", []obs.Component{obs.CompDRAMQueue, obs.CompDRAMService}},
	{"metadata", []obs.Component{obs.CompMDCacheHit, obs.CompMDFetch}},
	{"decompress", []obs.Component{obs.CompDecompress}},
	{"movement", []obs.Component{obs.CompSplit, obs.CompOverflow, obs.CompUnderflow, obs.CompRepack, obs.CompSpecMiss}},
	{"link", []obs.Component{obs.CompLinkHeader, obs.CompLinkPayload, obs.CompLinkQueue}},
}

// AttributionRow is one backend's merged cycle-accounting ledger over
// the attribution benchmarks. The embedded snapshot carries the full
// 13-component breakdown, latency histograms, and the hot-page
// profile; the scalar fields are the table-level digest.
type AttributionRow struct {
	System          string
	Benches         []string
	Accesses        uint64
	ChargedCycles   uint64
	CyclesPerAccess float64
	// OverheadFrac is the share of charged (critical-path) cycles not
	// spent in DRAM queueing or service: the compression tax.
	OverheadFrac float64
	Attribution  obs.AttributionSnapshot
}

// AttributionData runs every registered backend with the cycle
// ledger attached and merges the per-benchmark snapshots into one row
// per backend. Backends are independent cells fanned out across
// Options.Jobs workers.
func AttributionData(opt Options) ([]AttributionRow, error) {
	systems := sim.AllSystems()
	return gridErr(opt, "attribution", len(systems), func(ctx context.Context, i int) (AttributionRow, error) {
		sys := systems[i]
		row := AttributionRow{System: sys.String(), Benches: attributionBenches}
		var merged obs.AttributionSnapshot
		for _, bench := range attributionBenches {
			prof, err := workload.ByName(bench)
			if err != nil {
				return AttributionRow{}, fmt.Errorf("attribution: %w", err)
			}
			cfg := sim.DefaultConfig(sys)
			cfg.Ops = opt.ops()
			cfg.FootprintScale = opt.scale()
			cfg.Seed = opt.seed()
			cfg.Cancel = ctx
			cfg.Attribution = true
			cfg.TopPages = 8
			res := runSingle(prof, cfg)
			if merged.Components == nil {
				merged = res.Attribution
			} else {
				merged.Merge(res.Attribution, 8)
			}
		}
		// The conservation invariant is part of the artifact's meaning: a
		// stack that does not sum to the charged latency is not a
		// breakdown, so a violating ledger fails the experiment instead
		// of rendering garbage percentages.
		if merged.Violations != 0 {
			return AttributionRow{}, fmt.Errorf("attribution: %s: %d conservation violations (first: %s)",
				sys, merged.Violations, merged.FirstViolation)
		}
		row.Accesses = merged.Accesses
		row.ChargedCycles = merged.ChargedCycles
		if merged.Accesses > 0 {
			row.CyclesPerAccess = float64(merged.ChargedCycles) / float64(merged.Accesses)
		}
		if merged.ChargedCycles > 0 {
			var dram uint64
			for _, c := range attrGroups[0].Comps {
				dram += merged.Components[c].ExposedCycles
			}
			row.OverheadFrac = 1 - float64(dram)/float64(merged.ChargedCycles)
		}
		row.Attribution = merged
		return row, nil
	})
}

// groupCycles sums a component group's cycles out of a snapshot.
func groupCycles(s obs.AttributionSnapshot, g attrGroup, hidden bool) uint64 {
	var total uint64
	for _, c := range g.Comps {
		if hidden {
			total += s.Components[c].HiddenCycles
		} else {
			total += s.Components[c].ExposedCycles
		}
	}
	return total
}

func runAttribution(opt Options) (any, error) {
	rows, err := AttributionData(opt)
	if err != nil {
		return nil, err
	}
	header(opt.Out, "Cycle attribution: where each backend's access latency goes (gcc+mcf merged)")

	// Stacked exposed-latency decomposition: each group as a share of
	// the charged (critical-path) cycles; rows sum to 1 by the
	// conservation invariant.
	cols := []string{"backend \\ exposed"}
	for _, g := range attrGroups {
		cols = append(cols, g.Name)
	}
	cols = append(cols, "cyc/access")
	tbl := stats.NewTable(cols...)
	for _, r := range rows {
		cells := []interface{}{r.System}
		for _, g := range attrGroups {
			var frac float64
			if r.ChargedCycles > 0 {
				frac = float64(groupCycles(r.Attribution, g, false)) / float64(r.ChargedCycles)
			}
			cells = append(cells, frac)
		}
		cells = append(cells, r.CyclesPerAccess)
		tbl.AddRow(cells...)
	}
	tbl.Render(opt.Out)

	// Hidden work: cycles spent off the critical path (posted writes,
	// page moves, wasted speculation) per demand access.
	fmt.Fprintln(opt.Out)
	cols = []string{"backend \\ hidden/access"}
	for _, g := range attrGroups {
		cols = append(cols, g.Name)
	}
	tbl = stats.NewTable(cols...)
	for _, r := range rows {
		cells := []interface{}{r.System}
		for _, g := range attrGroups {
			var per float64
			if r.Accesses > 0 {
				per = float64(groupCycles(r.Attribution, g, true)) / float64(r.Accesses)
			}
			cells = append(cells, per)
		}
		tbl.AddRow(cells...)
	}
	tbl.Render(opt.Out)

	fmt.Fprintf(opt.Out,
		"\nexposed shares sum to 1 per backend (conservation invariant, DESIGN.md §14);"+
			" hidden work rides posted writes and background page moves\n"+
			"hot-page profiles and per-component latency histograms are in the JSON artifact"+
			" and at /attribution on the live server\n")
	return rows, nil
}

func init() {
	register("attribution", "cycle-accounting decomposition: exposed/hidden latency stack per backend, with hot-page profile", runAttribution)
}
