package experiments

import (
	"context"
	"fmt"

	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

// OverlapRow is one benchmark's Compresso timing under the serial
// decompression model vs the opt-in overlapped-controller model
// (sim.Config.Overlap), plus the hidden/exposed latency split the
// overlap model reports.
type OverlapRow struct {
	Bench          string
	SerialCycles   uint64
	OverlapCycles  uint64
	Speedup        float64 // serial / overlap run cycles
	HiddenFrac     float64 // decompress cycles hidden under DRAM service
	ExposedPerRead float64 // residual critical-path cycles per timed read
}

// OverlapData runs Compresso on every benchmark twice — serial
// decompression charging, then the overlapped-controller model — and
// reports how much of the decompression latency DRAM service hides.
// Benchmarks are independent cells fanned out across Options.Jobs
// workers; the serial run is byte-identical to every other experiment's
// Compresso runs (the overlap model is opt-in per run, not global).
func OverlapData(opt Options) []OverlapRow {
	profs := workload.All()
	return grid(opt, "overlap", len(profs), func(ctx context.Context, i int) OverlapRow {
		prof := profs[i]
		cfg := sim.DefaultConfig(sim.Compresso)
		cfg.Ops = opt.ops()
		cfg.FootprintScale = opt.scale()
		cfg.Seed = opt.seed()
		cfg.Cancel = ctx
		serial := runSingle(prof, cfg)

		cfg.Overlap = true
		over := runSingle(prof, cfg)

		row := OverlapRow{
			Bench:         prof.Name,
			SerialCycles:  serial.Cycles,
			OverlapCycles: over.Cycles,
		}
		if over.Cycles > 0 {
			row.Speedup = float64(serial.Cycles) / float64(over.Cycles)
		}
		if total := over.Mem.OverlapHiddenCycles + over.Mem.OverlapExposedCycles; total > 0 {
			row.HiddenFrac = float64(over.Mem.OverlapHiddenCycles) / float64(total)
		}
		if over.Mem.OverlapReads > 0 {
			row.ExposedPerRead = float64(over.Mem.OverlapExposedCycles) / float64(over.Mem.OverlapReads)
		}
		return row
	})
}

func runOverlap(opt Options) (any, error) {
	rows := OverlapData(opt)
	header(opt.Out, "Overlapped-controller timing: serial vs pipelined decompression latency")
	tbl := stats.NewTable("bench", "serial-cycles", "overlap-cycles", "speedup", "hidden-frac", "exposed/read")
	var sp, hf []float64
	for _, r := range rows {
		tbl.AddRow(r.Bench, r.SerialCycles, r.OverlapCycles, r.Speedup, r.HiddenFrac, r.ExposedPerRead)
		if r.Speedup > 0 {
			sp = append(sp, r.Speedup)
		}
		hf = append(hf, r.HiddenFrac)
	}
	tbl.AddRow("Average", "", "", stats.Geomean(sp), stats.Mean(hf), "")
	tbl.Render(opt.Out)
	fmt.Fprintf(opt.Out,
		"\noverlap model (-overlap) pipelines decompression against DRAM service;"+
			" hidden-frac is the share of decompress cycles absorbed into the DRAM window\n")
	return rows, nil
}

func init() {
	register("overlap", "overlapped-controller timing model: cycles and hidden-latency split vs the serial model", runOverlap)
}
