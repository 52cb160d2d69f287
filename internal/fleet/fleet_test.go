package fleet

import (
	"math"
	"reflect"
	"testing"

	"compresso/internal/memctl"
)

// quickCfg is a small but real fleet: 16 nodes spanning the full
// headline backend set, tiny footprints, a few policy epochs.
func quickCfg(t *testing.T, policy string, jobs int) Config {
	t.Helper()
	pol, err := PolicyByName(policy)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := Mix(16, []string{"compresso", "lcp", "cram", "cxl", "uncompressed"}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Nodes:          nodes,
		Policy:         pol,
		Epochs:         3,
		OpsPerEpoch:    400,
		FootprintScale: 256,
		Jobs:           jobs,
	}
}

func TestMixDeterministicAndCoversBackends(t *testing.T) {
	backends := []string{"compresso", "lcp", "cram", "cxl"}
	a, err := Mix(16, backends, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mix(16, backends, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Mix is not deterministic for a fixed seed")
	}
	seen := map[string]bool{}
	for _, spec := range a {
		seen[spec.Backend] = true
		if spec.Weight <= 0 {
			t.Errorf("node %d: non-positive weight %v", spec.ID, spec.Weight)
		}
	}
	if len(seen) != len(backends) {
		t.Fatalf("16-node mix covers %d backends, want %d", len(seen), len(backends))
	}
	c, err := Mix(16, backends, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical mixes")
	}
}

func TestMixRejectsBadInput(t *testing.T) {
	if _, err := Mix(0, []string{"compresso"}, 1); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := Mix(4, nil, 1); err == nil {
		t.Error("no-backend mix accepted")
	}
	if _, err := Mix(4, []string{"no-such-backend"}, 1); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestRunDeterministicAcrossJobs pins the fleet determinism contract:
// the full Result — every node row and every rollup — is identical at
// Jobs 1 and Jobs 8.
func TestRunDeterministicAcrossJobs(t *testing.T) {
	serial, err := Run(quickCfg(t, "hysteresis", 1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Run(quickCfg(t, "hysteresis", 8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("fleet result differs across Jobs:\nserial %+v\nwide   %+v", serial, wide)
	}
}

// TestPolicyReplayDeterminism: the same config replayed yields the
// same tier decisions (promotion/demotion counts per node).
func TestPolicyReplayDeterminism(t *testing.T) {
	a, err := Run(quickCfg(t, "aggressive", 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg(t, "aggressive", 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if x.Promotions != y.Promotions || x.Demotions != y.Demotions || x.Cycles != y.Cycles {
			t.Fatalf("node %d replay diverged: %+v vs %+v", i, x, y)
		}
	}
}

func TestTierChurnFollowsPolicy(t *testing.T) {
	dyn, err := Run(quickCfg(t, "aggressive", 0))
	if err != nil {
		t.Fatal(err)
	}
	var moves uint64
	for _, n := range dyn.Nodes {
		moves += n.Promotions + n.Demotions
	}
	if moves == 0 {
		t.Error("aggressive policy produced no tier moves")
	}
	if dyn.ChurnPerKOp <= 0 || dyn.MoveBytes <= 0 {
		t.Errorf("churn rollup empty: churn=%v moveBytes=%d", dyn.ChurnPerKOp, dyn.MoveBytes)
	}

	static, err := Run(quickCfg(t, "static", 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range static.Nodes {
		if n.Promotions != 0 || n.Demotions != 0 {
			t.Fatalf("static policy moved pages on node %d: %+v", n.ID, n)
		}
		if n.HotPages == 0 {
			t.Errorf("static policy left node %d's hot tier unseeded", n.ID)
		}
	}
	if static.MoveBytes != 0 {
		t.Errorf("static fleet reports move traffic %d", static.MoveBytes)
	}
}

func TestCapacityAndBalloon(t *testing.T) {
	res, err := Run(quickCfg(t, "hysteresis", 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.AggRatio <= 1 {
		t.Errorf("fleet with compressing backends has aggregate ratio %v, want > 1", res.AggRatio)
	}
	var compBalloon int64
	for _, n := range res.Nodes {
		if n.Ratio < 0.99 {
			t.Errorf("node %d (%s) ratio %v < 1", n.ID, n.Backend, n.Ratio)
		}
		switch n.Backend {
		case "uncompressed", "cram":
			// Verbatim or in-place storage: nothing to reclaim.
			if n.BalloonPages != 0 {
				t.Errorf("%s node %d balloons %d pages", n.Backend, n.ID, n.BalloonPages)
			}
		case "compresso":
			compBalloon += n.BalloonPages
		}
	}
	if compBalloon == 0 {
		t.Error("no compresso node ballooned any capacity")
	}
	for _, v := range []float64{res.AggRatio, res.HotHitRate, res.ChurnPerKOp,
		res.EnergyNJ, res.MemoryDollars, res.BalloonDollars, res.EnergyDollars} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite rollup value %v in %+v", v, res)
		}
	}
	if res.EnergyNJ <= 0 || res.MemoryDollars <= 0 {
		t.Errorf("energy/TCO rollup empty: %+v", res)
	}
}

func TestHotTierServesTraffic(t *testing.T) {
	res, err := Run(quickCfg(t, "aggressive", 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.HotHitRate <= 0 {
		t.Fatalf("aggressive fleet hot-hit rate %v, want > 0", res.HotHitRate)
	}
	for _, n := range res.Nodes {
		budget := int(0.25 * float64(n.FootprintPages))
		if n.HotPages > budget {
			t.Errorf("node %d hot tier %d pages exceeds budget %d", n.ID, n.HotPages, budget)
		}
	}
}

func TestRegistryMetrics(t *testing.T) {
	res, err := Run(quickCfg(t, "hysteresis", 0))
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Registry().Snapshot()
	for _, name := range []string{"fleet.agg_ratio", "fleet.hot_hit_rate",
		"fleet.churn_per_kop", "fleet.energy_nj", "fleet.tco_memory_dollars"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %s missing from fleet registry", name)
		}
	}
	for _, name := range []string{"fleet.hot_hits", "fleet.cold_ops",
		"fleet.tier_moves", "fleet.move_bytes", "fleet.balloon_pages"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %s missing from fleet registry", name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := quickCfg(t, "hysteresis", 1)
	bad := good
	bad.Nodes = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty fleet validated")
	}
	bad = good
	bad.Epochs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero epochs validated")
	}
	bad = good
	bad.Nodes = append([]NodeSpec(nil), good.Nodes...)
	bad.Nodes[0].Backend = "no-such"
	if err := bad.Validate(); err == nil {
		t.Error("unknown backend validated")
	}
	bad = good
	bad.Nodes = append([]NodeSpec(nil), good.Nodes...)
	bad.Nodes[0].Bench = "no-such"
	if err := bad.Validate(); err == nil {
		t.Error("unknown benchmark validated")
	}
	bad = good
	bad.Policy.HotFrac = 2
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range policy validated")
	}
}

func TestPoliciesWellFormed(t *testing.T) {
	if len(Policies()) < 3 {
		t.Fatalf("want >= 3 named policies, have %v", PolicyNames())
	}
	for _, p := range Policies() {
		if err := p.Validate(); err != nil {
			t.Errorf("registered policy invalid: %v", err)
		}
	}
	if _, err := PolicyByName("no-such"); err == nil {
		t.Error("unknown policy resolved")
	}
	if _, ok := memctl.LookupBackend("compresso"); !ok {
		t.Fatal("fleet package does not register the backends it names")
	}
}

// BenchmarkRunNode times one fleet node at the fleet experiments' full
// shape (scale 4, 4 epochs of 2000 ops, hysteresis policy) per
// backend: install, the zipf op loop, the epoch-boundary page moves
// and capacity pricing. The first node of each backend, outside the
// timer, warms the image's size table as the fleet's repeated images
// do.
func BenchmarkRunNode(b *testing.B) {
	pol, err := PolicyByName("hysteresis")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Policy: pol, Epochs: 4, OpsPerEpoch: 2000, FootprintScale: 4}
	for _, backend := range []string{"compresso", "lcp", "cram", "cxl", "uncompressed"} {
		b.Run(backend, func(b *testing.B) {
			spec := NodeSpec{ID: 0, Bench: "mcf", Backend: backend, Weight: 1, Seed: 42}
			runNode(spec, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runNode(spec, cfg)
			}
		})
	}
}
