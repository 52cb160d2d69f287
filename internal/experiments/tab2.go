package experiments

import (
	"context"
	"fmt"

	"compresso/internal/capacity"
	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// Tab2Cell is one (memory fraction, core count) cell of Tab. II.
type Tab2Cell struct {
	Frac          float64
	Cores         int
	LCP           float64
	Compresso     float64
	Unconstrained float64
}

// Tab2Data sweeps the constrained-memory fractions of Tab. II for 1-
// and 4-core systems (capacity methodology; all numbers relative to
// the constrained uncompressed baseline). Each benchmark or mix is one
// cell that profiles once and replays at every fraction
// (capacity.Sweep), so the cells fan out across Options.Jobs workers;
// the per-cell results are averaged back into table order afterwards.
func Tab2Data(opt Options) ([]Tab2Cell, error) {
	fracs := []float64{0.8, 0.7, 0.6}
	profs := workload.PerformanceSet()
	mixes := sim.Mixes()
	mixProfs := make([][]workload.Profile, len(mixes))
	for i, mix := range mixes {
		ps, err := mix.Profiles()
		if err != nil {
			return nil, fmt.Errorf("tab2: mix %s: %w", mix.Name, err)
		}
		mixProfs[i] = ps
	}

	// Cell layout: the single-core benchmarks first, then the 4-core
	// mixes; each cell holds one row per fraction. The row type's
	// fields are exported so the cell journals losslessly
	// (journal.Record verifies the round-trip).
	type rel struct{ LCP, Comp, Unc float64 }
	vals := grid(opt, "tab2", len(profs)+len(mixes), func(_ context.Context, j int) []rel {
		cfg := capacity.DefaultConfig(0) // Sweep sets the fraction
		cfg.Ops = opt.ops()
		cfg.FootprintScale = opt.scale()
		cfg.Seed = opt.seed()
		var outs []capacity.Outcome
		if j < len(profs) {
			cfg.Ops *= 2
			outs = capacity.Sweep(profs[j:j+1], cfg, fracs)
		} else {
			outs = capacity.Sweep(mixProfs[j-len(profs)], cfg, fracs)
		}
		rows := make([]rel, len(outs))
		for f, out := range outs {
			rows[f] = rel{
				LCP:  out.RelPerf[capacity.LCP],
				Comp: out.RelPerf[capacity.Compresso],
				Unc:  out.Unconstrained,
			}
		}
		return rows
	})

	var cells []Tab2Cell
	for f, frac := range fracs {
		mean := func(cellVals [][]rel, cores int) Tab2Cell {
			var lcp, comp, unc []float64
			for _, v := range cellVals {
				lcp = append(lcp, v[f].LCP)
				comp = append(comp, v[f].Comp)
				unc = append(unc, v[f].Unc)
			}
			return Tab2Cell{
				Frac: frac, Cores: cores,
				LCP:           stats.Mean(lcp),
				Compresso:     stats.Mean(comp),
				Unconstrained: stats.Mean(unc),
			}
		}
		cells = append(cells, mean(vals[:len(profs)], 1))
		cells = append(cells, mean(vals[len(profs):], 4))
	}
	return cells, nil
}

func runTab2(opt Options) (any, error) {
	cells, err := Tab2Data(opt)
	if err != nil {
		return nil, err
	}
	header(opt.Out, "Tab. II: speedup vs constrained-memory baseline at 80/70/60% of footprint")
	tbl := stats.NewTable("memory", "cores", "lcp", "compresso", "unconstrained")
	for _, c := range cells {
		tbl.AddRow(fmt.Sprintf("%.0f%%", c.Frac*100), c.Cores, c.LCP, c.Compresso, c.Unconstrained)
	}
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\npaper @70%%: 1-core LCP 1.11 / Compresso 1.29 / unconstrained 1.39; 4-core 1.97 / 2.33 / 2.51\n")
	return cells, nil
}

func init() {
	register("tab2", "Tab. II capacity-speedup sweep (80/70/60% memory, 1 and 4 cores)", runTab2)
}
