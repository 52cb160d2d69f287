package capacity

import (
	"testing"

	"compresso/internal/compress"
	"compresso/internal/workload"
)

func quickCfg(frac float64) Config {
	cfg := DefaultConfig(frac)
	cfg.Ops = 60_000
	cfg.Intervals = 6
	cfg.FootprintScale = 16
	return cfg
}

func TestEvaluateOrdering(t *testing.T) {
	// The fundamental Tab. II ordering: unconstrained >= compresso >=
	// lcp >= uncompressed-constrained (within tolerance) for a
	// compressible, memory-sensitive benchmark.
	prof, _ := workload.ByName("soplex")
	out := Evaluate(prof, quickCfg(0.7))
	if out.RelPerf[Uncompressed] != 1 {
		t.Fatalf("baseline rel perf %v != 1", out.RelPerf[Uncompressed])
	}
	if out.RelPerf[Compresso] < 1 {
		t.Fatalf("compresso rel perf %v < baseline", out.RelPerf[Compresso])
	}
	if out.RelPerf[Compresso] < out.RelPerf[LCP]-1e-9 {
		t.Fatalf("compresso %v below lcp %v", out.RelPerf[Compresso], out.RelPerf[LCP])
	}
	if out.Unconstrained < out.RelPerf[Compresso]-1e-9 {
		t.Fatalf("unconstrained %v below compresso %v", out.Unconstrained, out.RelPerf[Compresso])
	}
	t.Logf("soplex@70%%: lcp %.3f compresso %.3f unconstrained %.3f",
		out.RelPerf[LCP], out.RelPerf[Compresso], out.Unconstrained)
}

func TestTighterMemoryBiggerBenefit(t *testing.T) {
	// Tab. II: benefits grow as memory shrinks (80% -> 60%).
	prof, _ := workload.ByName("xalancbmk")
	loose := Evaluate(prof, quickCfg(0.85))
	tight := Evaluate(prof, quickCfg(0.6))
	if tight.Unconstrained <= loose.Unconstrained {
		t.Fatalf("unconstrained benefit did not grow: %.3f@85%% vs %.3f@60%%",
			loose.Unconstrained, tight.Unconstrained)
	}
}

func TestIncompressibleCapturesLessHeadroom(t *testing.T) {
	// mcf barely compresses (ratio ~1.25 < the 1/0.7 needed to erase a
	// 70% constraint), so compression recovers a smaller fraction of
	// its unconstrained-memory headroom than it does for highly
	// compressible gcc (ratio ~2.6).
	captured := func(name string) float64 {
		p, _ := workload.ByName(name)
		out := Evaluate(p, quickCfg(0.7))
		head := out.Unconstrained - 1
		if head <= 0 {
			return 1
		}
		return (out.RelPerf[Compresso] - 1) / head
	}
	mcf, gcc := captured("mcf"), captured("gcc")
	if mcf >= gcc {
		t.Fatalf("mcf captured %.3f of headroom >= gcc %.3f", mcf, gcc)
	}
}

func TestNoRepackRatioLoss(t *testing.T) {
	// Fig. 7: without repacking, mean ratio is lower (storage is a
	// high watermark) for a churn-heavy benchmark.
	prof, _ := workload.ByName("GemsFDTD")
	out := Evaluate(prof, quickCfg(0.7))
	if out.MeanRatio[CompressoNoRepack] > out.MeanRatio[Compresso] {
		t.Fatalf("no-repack ratio %.3f above repack ratio %.3f",
			out.MeanRatio[CompressoNoRepack], out.MeanRatio[Compresso])
	}
	if out.MeanRatio[CompressoNoRepack] >= out.MeanRatio[Compresso]*0.995 {
		t.Logf("warning: repack gap small: %.3f vs %.3f",
			out.MeanRatio[CompressoNoRepack], out.MeanRatio[Compresso])
	}
}

func TestCompressoRatioBeatsLCP(t *testing.T) {
	// The §II-C packing comparison on evolved images.
	prof, _ := workload.ByName("cactusADM")
	out := Evaluate(prof, quickCfg(0.7))
	if out.MeanRatio[Compresso] <= out.MeanRatio[LCP] {
		t.Fatalf("compresso ratio %.3f <= lcp ratio %.3f",
			out.MeanRatio[Compresso], out.MeanRatio[LCP])
	}
}

func TestEvaluateMix(t *testing.T) {
	profs := []workload.Profile{}
	for _, n := range []string{"milc", "astar", "gamess", "tonto"} {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, p)
	}
	cfg := quickCfg(0.7)
	cfg.Ops = 20_000
	out := EvaluateMix("mix2", profs, cfg)
	if out.RelPerf[Uncompressed] != 1 {
		t.Fatalf("baseline %v", out.RelPerf[Uncompressed])
	}
	if out.RelPerf[Compresso] < 1 || out.Unconstrained < out.RelPerf[Compresso]-1e-9 {
		t.Fatalf("mix ordering broken: compresso %.3f unconstrained %.3f",
			out.RelPerf[Compresso], out.Unconstrained)
	}
}

func TestSizerString(t *testing.T) {
	if Compresso.String() != "compresso" || LCPAlign.String() != "lcp-align" ||
		CompressoNoRepack.String() != "compresso-norepack" {
		t.Fatal("sizer names wrong")
	}
	if Sizer(99).String() != "Sizer(99)" {
		t.Fatal("unknown sizer name wrong")
	}
}

func TestOverallPerformance(t *testing.T) {
	if OverallPerformance(0.998, 1.29) != 0.998*1.29 {
		t.Fatal("overall perf not multiplicative")
	}
}

func TestPageMath(t *testing.T) {
	// All-zero page costs nothing everywhere.
	zeros := make([]uint8, 64)
	if LinePackPageBytes(zeros, compress.CompressoBins) != 0 || LCPPageBytes(zeros, compress.LegacyBins) != 0 {
		t.Fatal("zero page priced nonzero")
	}
	// Uniform 8-byte lines: Compresso 1 chunk; LCP rounds to 2 K with
	// legacy bins (64*22=1408) but 512 with aligned bins (64*8).
	eights := make([]uint8, 64)
	for i := range eights {
		eights[i] = 8
	}
	if got := LinePackPageBytes(eights, compress.CompressoBins); got != 512 {
		t.Fatalf("compresso uniform-8 page = %d", got)
	}
	if got := LCPPageBytes(eights, compress.LegacyBins); got != 2048 {
		t.Fatalf("lcp legacy uniform-8 page = %d", got)
	}
	if got := LCPPageBytes(eights, compress.CompressoBins); got != 512 {
		t.Fatalf("lcp aligned uniform-8 page = %d", got)
	}
	// Heterogeneous page: half 8 B, half 64 B lines. LinePack packs
	// 32*8+32*64 = 2304 -> 2560 B. LCP's best aligned target is 8
	// (64*8 + 32*64 = 2560) but page rounding to {.5,1,2,4}K pushes it
	// to 4096 — the §II-C flexibility gap.
	var mixed [64]uint8
	for i := range mixed {
		if i%2 == 0 {
			mixed[i] = 8
		} else {
			mixed[i] = 64
		}
	}
	if got := LinePackPageBytes(mixed[:], compress.CompressoBins); got != 2560 {
		t.Fatalf("compresso mixed page = %d", got)
	}
	if got := LCPPageBytes(mixed[:], compress.CompressoBins); got != 4096 {
		t.Fatalf("lcp mixed page = %d", got)
	}
	// With one zero line per pair, target 0 + exceptions wins: 32
	// exceptions * 64 B = 2048.
	var sparse [64]uint8
	for i := range sparse {
		if i%2 == 1 {
			sparse[i] = 64
		}
	}
	if got := LCPPageBytes(sparse[:], compress.CompressoBins); got != 2048 {
		t.Fatalf("lcp sparse page = %d", got)
	}
}

func TestDeterministic(t *testing.T) {
	prof, _ := workload.ByName("astar")
	a := Evaluate(prof, quickCfg(0.7))
	b := Evaluate(prof, quickCfg(0.7))
	if a != b {
		t.Fatal("capacity evaluation not deterministic")
	}
}

// TestEvaluateIsOneCoreMix pins Evaluate as the one-core case of
// EvaluateMix, bit for bit: the single-benchmark outcome is the same
// loop run over a one-profile mix.
func TestEvaluateIsOneCoreMix(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "GemsFDTD", "lbm"} {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.6, 0.8} {
			cfg := quickCfg(frac)
			cfg.Ops = 20_000
			single := Evaluate(prof, cfg)
			mix := EvaluateMix("one", []workload.Profile{prof}, cfg)
			if single.RelPerf != mix.RelPerf || single.Unconstrained != mix.Unconstrained {
				t.Errorf("%s@%.1f: Evaluate %v/%v, one-core EvaluateMix %v/%v", name, frac,
					single.RelPerf, single.Unconstrained, mix.RelPerf, mix.Unconstrained)
			}
		}
	}
}

// TestEvaluateJobsIdentity pins the tracker's construction fan-out (memo
// warming and page pricing across cfg.Jobs workers): single and mix
// outcomes are identical at 1 and 8 workers.
func TestEvaluateJobsIdentity(t *testing.T) {
	soplex, err := workload.ByName("soplex")
	if err != nil {
		t.Fatal(err)
	}
	var mix []workload.Profile
	for _, n := range []string{"milc", "astar", "gamess", "tonto"} {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, p)
	}
	cfg := quickCfg(0.7)
	cfg.Ops = 20_000
	cfg.FootprintScale = 8
	at := func(jobs int) (Outcome, MixOutcome) {
		c := cfg
		c.Jobs = jobs
		return Evaluate(soplex, c), EvaluateMix("mix2", mix, c)
	}
	s1, m1 := at(1)
	s8, m8 := at(8)
	if s1 != s8 {
		t.Errorf("Evaluate differs across jobs:\n1: %+v\n8: %+v", s1, s8)
	}
	if m1 != m8 {
		t.Errorf("EvaluateMix differs across jobs:\n1: %+v\n8: %+v", m1, m8)
	}
}

// TestSweepMatchesEvaluate pins the shared stage 1: outcome i of a
// multi-fraction sweep is bit for bit the one-fraction evaluation at
// fracs[i], for a single benchmark and for a 4-core mix. Fractions are
// deliberately out of order so a replay leaking state into the next
// one shows.
func TestSweepMatchesEvaluate(t *testing.T) {
	fracs := []float64{0.8, 0.6, 0.7, 1}
	cfg := quickCfg(0.5)
	cfg.Ops = 20_000
	soplex, err := workload.ByName("soplex")
	if err != nil {
		t.Fatal(err)
	}
	single := Sweep([]workload.Profile{soplex}, cfg, fracs)
	for i, frac := range fracs {
		c := cfg
		c.Frac = frac
		if want := Evaluate(soplex, c); single[i] != want {
			t.Errorf("soplex@%.1f: Sweep %+v, Evaluate %+v", frac, single[i], want)
		}
	}

	var mix []workload.Profile
	for _, n := range []string{"milc", "astar", "gamess", "tonto"} {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, p)
	}
	multi := Sweep(mix, cfg, fracs)
	for i, frac := range fracs {
		c := cfg
		c.Frac = frac
		want := EvaluateMix("mix2", mix, c)
		if multi[i].RelPerf != want.RelPerf || multi[i].Unconstrained != want.Unconstrained {
			t.Errorf("mix2@%.1f: Sweep %v/%v, EvaluateMix %v/%v", frac,
				multi[i].RelPerf, multi[i].Unconstrained, want.RelPerf, want.Unconstrained)
		}
		if one := Sweep(mix, cfg, []float64{frac})[0]; multi[i] != one {
			t.Errorf("mix2@%.1f: sweep %+v, one-fraction sweep %+v", frac, multi[i], one)
		}
	}
}
