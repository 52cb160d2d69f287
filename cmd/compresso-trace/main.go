// compresso-trace inspects the synthetic benchmark workloads: their
// memory images (compressibility, page-kind composition) and access
// traces (locality, intensity, phase behaviour).
//
// Usage:
//
//	compresso-trace -list
//	compresso-trace -bench gcc [-scale 8] [-ops 50000]
//	compresso-trace -bench GemsFDTD -phases
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"compresso/internal/compress"
	"compresso/internal/memctl"
	"compresso/internal/stats"
	"compresso/internal/workload"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list benchmarks")
		bench  = flag.String("bench", "", "benchmark to inspect")
		scale  = flag.Int("scale", 8, "footprint divisor")
		ops    = flag.Uint64("ops", 50_000, "trace operations to sample")
		seed   = flag.Uint64("seed", 42, "random seed")
		phases = flag.Bool("phases", false, "report per-phase compressibility")
		record = flag.String("record", "", "write the benchmark's op stream to a trace file")
	)
	flag.Parse()
	if err := (runFlags{Scale: *scale, Ops: *ops}).validate(); err != nil {
		fmt.Fprintln(os.Stderr, "compresso-trace:", err)
		flag.Usage()
		os.Exit(2)
	}

	if *record != "" && *bench != "" {
		prof, err := workload.ByName(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compresso-trace:", err)
			os.Exit(1)
		}
		prof = workload.Scale(prof, *scale)
		tr := workload.NewTrace(prof, *seed, *ops)
		// Write to a temp file in the destination directory and rename
		// into place, so an interrupted recording never leaves a torn
		// trace behind at the requested path.
		dir, base := filepath.Split(*record)
		f, err := os.CreateTemp(dir, base+".tmp*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "compresso-trace:", err)
			os.Exit(1)
		}
		tmp := f.Name()
		fail := func(err error) {
			f.Close()
			os.Remove(tmp)
			fmt.Fprintln(os.Stderr, "compresso-trace:", err)
			os.Exit(1)
		}
		if err := workload.WriteOps(f, tr.Record(*ops)); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		if err := os.Rename(tmp, *record); err != nil {
			fail(err)
		}
		fmt.Printf("recorded %d ops of %s to %s\n", *ops, prof.Name, *record)
		return
	}

	switch {
	case *list:
		tbl := stats.NewTable("benchmark", "target-ratio", "footprint-pages", "write-frac", "instr/op", "phases")
		for _, p := range workload.All() {
			tbl.AddRow(p.Name, p.TargetRatio, p.FootprintPages, p.WriteFrac, p.InstrPerOp, len(p.Phases))
		}
		tbl.Render(os.Stdout)
	case *bench != "":
		prof, err := workload.ByName(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compresso-trace:", err)
			os.Exit(1)
		}
		inspect(prof, *scale, *ops, *seed, *phases)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runFlags is the validated view of the run-shape flags.
type runFlags struct {
	Scale int
	Ops   uint64
}

func (f runFlags) validate() error {
	if f.Scale < 1 {
		return fmt.Errorf("-scale divides the footprint and must be >= 1, got %d", f.Scale)
	}
	if f.Ops == 0 {
		return fmt.Errorf("-ops must be >= 1, got 0")
	}
	return nil
}

func inspect(prof workload.Profile, scale int, ops, seed uint64, phases bool) {
	prof = workload.Scale(prof, scale)
	tr := workload.NewTrace(prof, seed, ops)
	img := tr.Image()

	fmt.Printf("benchmark %s: %d pages (%d KB scaled footprint)\n",
		prof.Name, prof.FootprintPages, prof.FootprintPages*4)
	fmt.Printf("initial image ratio (BPC, legacy bins):    %.3f (Fig. 2 target %.2f)\n",
		img.MeasureRatio(compress.BPC{}, compress.LegacyBins, 2), prof.TargetRatio)
	fmt.Printf("initial image ratio (BPC, compresso bins): %.3f\n",
		img.MeasureRatio(compress.BPC{}, compress.CompressoBins, 2))

	// Trace statistics.
	var op workload.Op
	var writes, seq uint64
	var prevAddr uint64
	pages := map[uint64]uint64{}
	var instrs uint64
	nPhases := len(prof.Phases)
	if nPhases == 0 {
		nPhases = 1
	}
	phaseRatio := make([]float64, 0, nPhases)
	lastPhase := 0
	for i := uint64(0); i < ops; i++ {
		tr.Next(&op)
		if op.Write {
			writes++
		}
		if i > 0 && op.LineAddr == prevAddr+1 {
			seq++
		}
		prevAddr = op.LineAddr
		pages[op.LineAddr/memctl.LinesPerPage]++
		instrs += uint64(op.NonMemInstrs) + 1
		if phases && tr.PhaseIndex() != lastPhase {
			phaseRatio = append(phaseRatio, img.MeasureRatio(compress.BPC{}, compress.LegacyBins, 4))
			lastPhase = tr.PhaseIndex()
		}
	}
	fmt.Printf("trace: %d ops, %.1f%% writes, %.1f%% sequential, %d distinct pages touched, %.1f instrs/op\n",
		ops, 100*float64(writes)/float64(ops), 100*float64(seq)/float64(ops),
		len(pages), float64(instrs)/float64(ops))

	// Touch concentration: share of accesses to the hottest 10% pages.
	counts := make([]float64, 0, len(pages))
	var total float64
	for _, c := range pages {
		counts = append(counts, float64(c))
		total += float64(c)
	}
	if hot, ok := stats.Percentile(counts, 90); ok {
		var hotMass float64
		for _, c := range counts {
			if c >= hot {
				hotMass += c
			}
		}
		fmt.Printf("locality: hottest decile of touched pages receives %.1f%% of accesses\n", 100*hotMass/total)
	}

	if phases {
		phaseRatio = append(phaseRatio, img.MeasureRatio(compress.BPC{}, compress.LegacyBins, 4))
		fmt.Printf("image ratio at phase boundaries: ")
		for _, r := range phaseRatio {
			fmt.Printf("%.2f ", r)
		}
		fmt.Println()
	}
}
