package main

import (
	"bytes"
	"fmt"
	"strings"

	"compresso/internal/compress"
	"compresso/internal/experiments"
	"compresso/internal/fleet"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// Workload shapes. Each is documented with its reason in BENCHMARK.json.
const (
	mixOps      = 200_000 // per core; BenchmarkHotLoopMix's 50k, lengthened
	mixScale    = 8
	stormOps    = 400_000
	stormScale  = 4
	stormBench  = "lbm" // highest store fraction of the shipped profiles
	quickScale  = 16
	probeOps    = 100_000 // probe loops long enough to write back dirty lines
	fleetNodes  = 24      // the fleet experiments' full shape
	fleetEpochs = 4
	fleetOpsEp  = 2000
	fleetScale  = 4
	// nodeSeedStride is fleet.Mix's per-node seed stride.
	nodeSeedStride = 9973
)

// fleetBackends are the fleet experiments' backends.
var fleetBackends = []string{"compresso", "lcp", "cram", "cxl", "uncompressed"}

// job is one workload instantiated at a seed.
type job struct {
	// prepare builds the measured phase's own inputs, if any.
	prepare func() error
	// round runs one unit of the measured phase, returning the
	// simulated results (digested) and the demand ops simulated.
	round func() (results any, ops uint64, err error)
	// check validates one round's results against invariants.
	check func(results any, c *checks)
	// once marks a round that may run only once per process.
	once bool
	// profs and scale name the images the round-trip checks and the
	// codec probes sample; set-up builds the sample from the seed.
	profs  []workload.Profile
	scale  int
	seed   uint64
	sample lineSample
	// loops are the rebuilt runs of the traced run: the measured phase
	// itself when traced is nil, else a probe of the layers the phase
	// reaches only from inside.
	loops []loopSpec
	// traced, when set, is the workload's own traced phase (suite and
	// fleet, which do not run a rebuildable loop directly).
	traced func(t *tracedRun) error
}

// setup is the workload's set-up: it generates the seed's check
// inputs (traces over the workload's images, sampled lines and blocks)
// and prepares the measured phase's own inputs. It runs in several
// child processes and the median is reported, so work moved into
// set-up shows.
func (j *job) setup() error {
	j.sample = sampleImages(j.profs, j.scale, j.seed)
	if j.prepare == nil {
		return nil
	}
	return j.prepare()
}

var workloadNames = []string{"suite-quick", "mix1-hotloop", "write-storm", "fleet-tiering"}

func newJob(name string, seed uint64) (*job, error) {
	var j *job
	var err error
	switch name {
	case "suite-quick":
		j, err = suiteJob(seed)
	case "mix1-hotloop":
		j, err = mixJob(seed)
	case "write-storm":
		j, err = stormJob(seed)
	case "fleet-tiering":
		j, err = fleetJob(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	j.seed = seed
	return j, nil
}

func profiles(names ...string) []workload.Profile {
	out := make([]workload.Profile, len(names))
	for i, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			panic(err) // names below are the shipped catalog's
		}
		out[i] = p
	}
	return out
}

func systemNames(ss []sim.System) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = string(s)
	}
	return out
}

// loopsFor lists the rebuilt runs of every system: one RunMix over all
// profiles when mix is set, else one RunSingle per profile.
func loopsFor(name string, profs []workload.Profile, systems []string, ops uint64, scale int, seed uint64, mix bool) []loopSpec {
	var out []loopSpec
	for _, s := range systems {
		if mix {
			out = append(out, loopSpec{name: name, profs: profs, system: s, ops: ops, scale: scale, seed: seed, mix: true})
			continue
		}
		for _, p := range profs {
			out = append(out, loopSpec{profs: []workload.Profile{p}, system: s, ops: ops, scale: scale, seed: seed})
		}
	}
	return out
}

func suiteJob(seed uint64) (*job, error) {
	opt := experiments.Options{Quick: true, Seed: seed, SeedSet: true, Jobs: 1}
	return &job{
		round: func() (any, uint64, error) {
			var out bytes.Buffer
			o := opt
			o.Out = &out
			err := experiments.RunAll(o)
			return out.String(), 0, err
		},
		check: func(results any, c *checks) {
			c.add(!strings.Contains(results.(string), "\n!! "), "RunAll output has no failed-experiment block")
		},
		once:  true,
		profs: workload.PerformanceSet(),
		scale: quickScale,
		// Probe loops at the quick suite's footprint scale, on two of its
		// benchmarks, long enough that dirty lines reach the controller.
		loops: loopsFor("", profiles("gcc", "mcf"), systemNames(sim.Systems()), probeOps, quickScale, seed, false),
		traced: func(t *tracedRun) error {
			return t.experimentsSplit(opt)
		},
	}, nil
}

func mixJob(seed uint64) (*job, error) {
	mix := sim.Mixes()[0]
	profs, err := mix.Profiles()
	if err != nil {
		return nil, err
	}
	systems := sim.Systems()
	cfg := func(s sim.System) sim.Config {
		c := sim.DefaultConfig(s)
		c.Ops, c.FootprintScale, c.Seed = mixOps, mixScale, seed
		return c
	}
	var assets *sim.MixAssets
	j := &job{
		prepare: func() error {
			assets = sim.PrepareAssets(profs, cfg(systems[0]), compress.BPC{}, 1)
			return nil
		},
		round: func() (any, uint64, error) {
			out := make([]sim.MultiResult, len(systems))
			for i, s := range systems {
				c := cfg(s)
				c.Assets = assets
				out[i] = sim.RunMix(mix.Name, profs, c)
			}
			return out, uint64(len(systems) * len(profs) * mixOps), nil
		},
		check: func(results any, c *checks) {
			for _, r := range results.([]sim.MultiResult) {
				checkRatio(c, r.System, r.Ratio)
				for _, core := range r.Cores {
					c.add(core.Cycles > 0, r.System+" core "+core.Bench+" simulated cycles")
				}
			}
		},
		profs: profs,
		scale: mixScale,
		loops: loopsFor(mix.Name, profs, systemNames(systems), mixOps, mixScale, seed, true),
	}
	return j, nil
}

func stormJob(seed uint64) (*job, error) {
	profs := profiles(stormBench)
	systems := []sim.System{sim.Compresso, sim.LCP}
	return &job{
		round: func() (any, uint64, error) {
			out := make([]sim.Result, len(systems))
			for i, s := range systems {
				c := sim.DefaultConfig(s)
				c.Ops, c.FootprintScale, c.Seed = stormOps, stormScale, seed
				out[i] = sim.RunSingle(profs[0], c)
			}
			return out, uint64(len(systems) * stormOps), nil
		},
		check: func(results any, c *checks) {
			for _, r := range results.([]sim.Result) {
				checkRatio(c, r.System, r.Ratio)
				c.add(r.Mem.DemandWrites > 0, r.System+" served demand writes")
			}
		},
		profs: profs,
		scale: stormScale,
		loops: loopsFor("", profs, systemNames(systems), stormOps, stormScale, seed, false),
	}, nil
}

// fleetCell is one (backend, policy) fleet of the fleet-tiering sweep.
type fleetCell struct {
	backend string
	cfg     fleet.Config
}

// fleetRosterSeed fixes the fleet roster (which service and weight each
// node carries) at the fleet experiments' default seed, so the amount of
// work does not depend on the workload seed; the seed drives every
// node's own randomness (page contents, popularity, op stream).
const fleetRosterSeed = 42

func fleetJob(seed uint64) (*job, error) {
	var cells []fleetCell
	build := func() error {
		cells = cells[:0]
		for _, b := range fleetBackends {
			specs, err := fleet.Mix(fleetNodes, []string{b}, fleetRosterSeed)
			if err != nil {
				return err
			}
			for i := range specs {
				specs[i].Seed = seed + uint64(i)*nodeSeedStride
			}
			for _, pn := range fleet.PolicyNames() {
				pol, err := fleet.PolicyByName(pn)
				if err != nil {
					return err
				}
				cfg := fleet.Config{Nodes: specs, Policy: pol, Epochs: fleetEpochs,
					OpsPerEpoch: fleetOpsEp, FootprintScale: fleetScale, Jobs: 1}
				if err := cfg.Validate(); err != nil {
					return err
				}
				cells = append(cells, fleetCell{backend: b, cfg: cfg})
			}
		}
		return nil
	}
	if err := build(); err != nil {
		return nil, err
	}
	// The probe loops run the two heaviest-weighted services' benchmarks
	// through every fleet backend at the fleet's scale.
	benches := distinctBenches(cells[0].cfg.Nodes, 2)
	j := &job{
		prepare: build,
		round: func() (any, uint64, error) {
			out := make([]fleet.Result, len(cells))
			var ops uint64
			for i, c := range cells {
				r, err := fleet.Run(c.cfg)
				if err != nil {
					return nil, 0, err
				}
				out[i] = r
				for _, n := range r.Nodes {
					ops += n.Ops()
				}
			}
			return out, ops, nil
		},
		check: func(results any, c *checks) {
			for i, r := range results.([]fleet.Result) {
				cfg := cells[i].cfg
				for k, n := range r.Nodes {
					want := uint64(cfg.Epochs) * uint64(float64(cfg.OpsPerEpoch)*cfg.Nodes[k].Weight)
					c.add(n.Ops() == want, fmt.Sprintf("fleet %s/%s node %d ops %d == epochs x ops/epoch x weight %d",
						cells[i].backend, cfg.Policy.Name, n.ID, n.Ops(), want))
				}
			}
		},
		profs:  profiles(benches...),
		scale:  fleetScale,
		loops:  loopsFor("", profiles(benches...), fleetBackends, probeOps, fleetScale, seed, false),
		traced: func(t *tracedRun) error { return t.fleetSplit(cells) },
	}
	return j, nil
}

// distinctBenches returns up to n distinct node benchmarks, heaviest
// weight first, ties in node order.
func distinctBenches(nodes []fleet.NodeSpec, n int) []string {
	var out []string
	seen := map[string]bool{}
	for len(out) < n {
		best := -1
		for i, s := range nodes {
			if !seen[s.Bench] && (best == -1 || s.Weight > nodes[best].Weight) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		seen[nodes[best].Bench] = true
		out = append(out, nodes[best].Bench)
	}
	return out
}

// checkRatio records that a compressed system's ratio is at least 1.
func checkRatio(c *checks, system string, ratio float64) {
	if system == string(sim.Uncompressed) {
		return
	}
	c.add(ratio >= 1, fmt.Sprintf("%s compression ratio %.4f >= 1", system, ratio))
}
