package experiments

import (
	"context"
	"fmt"

	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// DMCRow compares the related-work DMC baseline (§VIII) against
// Compresso on one benchmark: DMC's coarse-granularity LZ wins
// capacity on cold data but pays mechanism-switch and block-granular
// data movement, which is the paper's critique ("opportunistically
// changing the granularity of compression involves substantial
// additional data movement").
type DMCRow struct {
	Bench        string
	MXTRel       float64 // cycle perf vs uncompressed
	DMCRel       float64
	CompressoRel float64
	MXTRatio     float64
	DMCRatio     float64
	CompRatio    float64
	DMCExtra     float64
	CompExtra    float64
}

// dmcBenchmarks is the subset used for the comparison: the capacity-
// motivated classes DMC targets (hot/cold phase structure, large
// footprints) plus one cache-friendly control.
var dmcBenchmarks = []string{"mcf", "omnetpp", "GemsFDTD", "libquantum", "Graph500", "xalancbmk", "povray"}

// RelatedDMCData runs the comparison (MXT, DMC, Compresso against the
// uncompressed baseline). Benchmarks are independent cells fanned out
// across Options.Jobs workers.
func RelatedDMCData(opt Options) ([]DMCRow, error) {
	return gridErr(opt, "related-dmc", len(dmcBenchmarks), func(ctx context.Context, i int) (DMCRow, error) {
		name := dmcBenchmarks[i]
		prof, err := workload.ByName(name)
		if err != nil {
			return DMCRow{}, fmt.Errorf("related-dmc: %w", err)
		}
		run := func(sys sim.System) sim.Result {
			cfg := sim.DefaultConfig(sys)
			cfg.Ops = opt.ops()
			cfg.FootprintScale = opt.scale()
			cfg.Seed = opt.seed()
			cfg.Cancel = ctx
			return runSingle(prof, cfg)
		}
		base := run(sim.Uncompressed)
		m := run(sim.MXT)
		d := run(sim.DMC)
		c := run(sim.Compresso)
		return DMCRow{
			Bench:        name,
			MXTRel:       float64(base.Cycles) / float64(m.Cycles),
			DMCRel:       float64(base.Cycles) / float64(d.Cycles),
			CompressoRel: float64(base.Cycles) / float64(c.Cycles),
			MXTRatio:     m.Ratio,
			DMCRatio:     d.Ratio,
			CompRatio:    c.Ratio,
			DMCExtra:     d.Mem.RelativeExtra(),
			CompExtra:    c.Mem.RelativeExtra(),
		}, nil
	})
}

func runRelatedDMC(opt Options) (any, error) {
	rows, err := RelatedDMCData(opt)
	if err != nil {
		return nil, err
	}
	header(opt.Out, "Related work (§VIII): MXT / DMC style baselines vs Compresso")
	tbl := stats.NewTable("bench", "mxt:perf", "dmc:perf", "compresso:perf",
		"mxt:ratio", "dmc:ratio", "compresso:ratio", "dmc:extra", "compresso:extra")
	var mp, dp, cp []float64
	for _, r := range rows {
		tbl.AddRow(r.Bench, r.MXTRel, r.DMCRel, r.CompressoRel,
			r.MXTRatio, r.DMCRatio, r.CompRatio, r.DMCExtra, r.CompExtra)
		mp = append(mp, r.MXTRel)
		dp = append(dp, r.DMCRel)
		cp = append(cp, r.CompressoRel)
	}
	tbl.AddRow("Geomean", stats.Geomean(mp), stats.Geomean(dp), stats.Geomean(cp), "", "", "", "", "")
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out, "\npaper §VIII: DMC's granularity switching \"can potentially increase the data movement\"\n")
	return rows, nil
}

func init() {
	register("related-dmc", "related-work comparison: DMC dual compression vs Compresso (§VIII)", runRelatedDMC)
}
