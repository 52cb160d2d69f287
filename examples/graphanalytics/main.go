// Graphanalytics: the workload class the paper's introduction
// motivates (graph analytics wants more memory capacity than the
// machine has). This example runs the three graph benchmarks
// (Graph500, Pagerank, Forestfire) through all four memory systems and
// shows the two effects that matter for them:
//
//   - high compression ratios (sparse, zero-heavy data), and
//   - heavy metadata-cache pressure from pointer-chasing access
//     patterns — the case the §IV-B5 half-entry optimization and LCP's
//     speculative access both target (mix10 in the paper).
//
// Run with: go run ./examples/graphanalytics
package main

import (
	"fmt"
	"os"

	"compresso/internal/core"
	"compresso/internal/sim"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

func main() {
	graphs := []string{"Graph500", "Pagerank", "Forestfire"}
	const ops = 60_000
	const scale = 8

	fmt.Println("Graph workloads on the four memory systems (cycle simulation):")
	tbl := stats.NewTable("benchmark", "system", "rel-perf", "ratio", "extra", "md-hit-rate")
	for _, name := range graphs {
		prof, err := workload.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var base uint64
		for _, sys := range sim.Systems() {
			cfg := sim.DefaultConfig(sys)
			cfg.Ops = ops
			cfg.FootprintScale = scale
			res := sim.RunSingle(prof, cfg)
			if sys == sim.Uncompressed {
				base = res.Cycles
			}
			tbl.AddRow(name, res.System,
				float64(base)/float64(res.Cycles),
				res.Ratio, res.Mem.RelativeExtra(), res.MDCache.HitRate())
		}
	}
	tbl.Render(os.Stdout)

	// Isolate the half-entry metadata optimization on the worst-case
	// mix (the paper's mix10 discussion).
	fmt.Println("\nHalf-entry metadata-cache optimization on Graph500 (incompressible-heavy pages):")
	prof, _ := workload.ByName("Graph500")
	ht := stats.NewTable("half-entry opt", "md hit rate", "extra accesses", "rel cycles")
	var baseCycles uint64
	for _, enabled := range []bool{false, true} {
		cfg := sim.DefaultConfig(sim.Compresso)
		cfg.Ops = ops
		cfg.FootprintScale = scale
		en := enabled
		cfg.Mods = map[string]any{string(sim.Compresso): func(c *core.Config) { c.MetadataCache.HalfEntry = en }}
		res := sim.RunSingle(prof, cfg)
		if !enabled {
			baseCycles = res.Cycles
		}
		ht.AddRow(fmt.Sprintf("%v", enabled), res.MDCache.HitRate(),
			res.Mem.RelativeExtra(), float64(baseCycles)/float64(res.Cycles))
	}
	ht.Render(os.Stdout)

	fmt.Println("\nThe paper's mix10 (Forestfire+Pagerank+Graph500+cactusADM) gains >100%")
	fmt.Println("with Compresso over LCP in constrained memory; run:")
	fmt.Println("  go run ./cmd/compresso-sim -exp fig11b -quick")
}
