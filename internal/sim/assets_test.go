package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"compresso/internal/compress"
	"compresso/internal/parallel"
	"compresso/internal/workload"
)

// TestAssetsMatchPlainRuns pins that prepared assets only share work:
// for every registered backend, a run over shared MixAssets (the
// per-system runs fanned out concurrently over one set, as the CLI's
// comparison runs do) serializes exactly like a run that generates its
// own image and trace.
func TestAssetsMatchPlainRuns(t *testing.T) {
	check := func(label string, profs []workload.Profile, systems []System, ops uint64, run func(Config) any) {
		t.Helper()
		cfgFor := func(sys System) Config {
			cfg := quickCfg(sys)
			cfg.Ops = ops
			return cfg
		}
		assets := PrepareAssets(profs, cfgFor(systems[0]), compress.BPC{}, 2)
		shared := parallel.Map(len(systems), len(systems), func(i int) any {
			cfg := cfgFor(systems[i])
			cfg.Assets = assets
			return run(cfg)
		})
		for i, sys := range systems {
			want, err := json.Marshal(run(cfgFor(sys)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(shared[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: run with assets differs from plain run", label, sys)
			}
		}
	}
	for _, bench := range []string{"lbm", "gcc"} {
		prof, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		check(bench, []workload.Profile{prof}, AllSystems(), 10_000,
			func(cfg Config) any { return RunSingle(prof, cfg) })
	}
	mix := Mixes()[0]
	profs, err := mix.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	check(mix.Name, profs, Systems(), 5_000,
		func(cfg Config) any { return RunMix(mix.Name, profs, cfg) })
}
