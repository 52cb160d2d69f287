package experiments

import (
	"context"
	"io"
	"runtime/pprof"
	"testing"

	"compresso/internal/parallel"
)

// TestGridCellsCarryProfilerLabels: every grid cell runs under the
// experiment, grid and cell pprof labels, on the plain and the
// resilient engine alike, so a CPU profile splits by them.
func TestGridCellsCarryProfilerLabels(t *testing.T) {
	labels := func(ctx context.Context) string {
		var s string
		for _, k := range []string{"experiment", "grid", "cell"} {
			v, _ := pprof.Label(ctx, k)
			s += k + "=" + v + " "
		}
		return s
	}
	for name, opt := range map[string]Options{
		"plain":     {Out: io.Discard, Jobs: 2},
		"resilient": {Out: io.Discard, Jobs: 2, Retry: parallel.RetryPolicy{MaxAttempts: 2}},
	} {
		var got []string
		e := Experiment{Name: "probe", Run: func(opt Options) (any, error) {
			got = grid(opt, "probe-grid", 2, func(ctx context.Context, i int) string { return labels(ctx) })
			return nil, nil
		}}
		if err := runRecovering(e, opt); err != nil {
			t.Fatal(err)
		}
		for i, want := range []string{
			"experiment=probe grid=probe-grid cell=0 ",
			"experiment=probe grid=probe-grid cell=1 ",
		} {
			if got[i] != want {
				t.Errorf("%s: cell %d labels %q, want %q", name, i, got[i], want)
			}
		}
	}
}
