package experiments

import (
	"testing"

	"compresso/internal/stats"
)

// TestPaperClaims is the paper-claims gate: byte-identity proves a
// result repeats, this proves it keeps the paper's shape. It asserts
// only directional claims, each of which holds at quick fidelity here
// and at full fidelity in experiments_full.txt. The rows come from the
// run memo, which the shape tests fill with the same runs.
func TestPaperClaims(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("reads the tab2 sweep, which is slow")
	}
	opt := quickOpts()

	// Tab. II (§VI-F): at every memory fraction and core count LCP
	// gains less than Compresso, which gains less than unconstrained
	// memory, and Compresso's gain grows as memory shrinks.
	cells, err := Tab2Data(opt)
	if err != nil {
		t.Fatal(err)
	}
	prev := map[int]float64{}
	for _, c := range cells {
		if !(c.LCP < c.Compresso && c.Compresso < c.Unconstrained) {
			t.Errorf("Tab. II %.0f%% %d-core: want lcp %.3f < compresso %.3f < unconstrained %.3f",
				c.Frac*100, c.Cores, c.LCP, c.Compresso, c.Unconstrained)
		}
		if p, ok := prev[c.Cores]; ok && c.Compresso <= p {
			t.Errorf("Tab. II %d-core: compresso gain %.3f at %.0f%% memory does not exceed %.3f at the larger fraction",
				c.Cores, c.Compresso, c.Frac*100, p)
		}
		prev[c.Cores] = c.Compresso
	}

	// Fig. 6 (§IV-B): each of the first four optimizations lowers the
	// average extra accesses (alignment-friendly bins, overflow
	// prediction, dynamic IR expansion, the metadata-cache half entry).
	rows6 := Fig6Data(opt)
	var avg [5]float64
	for s := range avg {
		var v []float64
		for _, r := range rows6 {
			v = append(v, r.Stages[s])
		}
		avg[s] = stats.Mean(v)
	}
	for s := 1; s < len(avg); s++ {
		if avg[s] >= avg[s-1] {
			t.Errorf("Fig. 6: stage %q averages %.3f extra accesses, not below %.3f before it",
				Fig6Stages[s], avg[s], avg[s-1])
		}
	}

	// §IV-A1: 8 line bins compress better than 4 but overflow more.
	var r8, r4 []float64
	var o8, o4 uint64
	for _, r := range AbBinsData(opt) {
		r8 = append(r8, r.Ratio8Bins)
		r4 = append(r4, r.Ratio4Bins)
		o8 += r.Overflows8Bins
		o4 += r.Overflow4Bin
	}
	if stats.Mean(r8) <= stats.Mean(r4) || o8 <= o4 {
		t.Errorf("§IV-A1: 8 bins ratio %.3f / %d overflows vs 4 bins %.3f / %d; want a higher ratio and more overflows",
			stats.Mean(r8), o8, stats.Mean(r4), o4)
	}

	// §IV-B1: alignment-friendly line sizes cut split accesses.
	var legacy, aligned []float64
	for _, r := range AbAlignData(opt) {
		legacy = append(legacy, r.SplitLegacy)
		aligned = append(aligned, r.SplitAligned)
	}
	if stats.Mean(aligned) >= stats.Mean(legacy) {
		t.Errorf("§IV-B1: split accesses %.3f with aligned bins, not below %.3f with legacy bins",
			stats.Mean(aligned), stats.Mean(legacy))
	}
}
