// Command perfbench is the repository's host-time benchmark. It runs
// one named workload per process at a seed, measures the simulator's
// host cost end to end (set-up, CPU and wall time, memory), checks the
// simulated outputs against invariants, and with -trace 1 instead
// reports per-layer metrics from spans recorded around the calls into
// each layer. See BENCHMARK.json for the workloads and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload mix1-hotloop --seed 42 --seconds 15 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// setupReps is how many times a run launches a set-up-only child
// process; the median is reported.
const setupReps = 5

// maxTrees bounds the complete span trees written out per run.
const maxTrees = 32

var guard onceGuard

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 42, "workload seed")
	seconds := flag.Float64("seconds", 15, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	setupOnly := flag.Int64("setup-only", 0, "internal: launch time (Unix ns) of a set-up-only child")
	outDir := flag.String("out", ".bench_build", "directory for span trees")
	flag.Parse()
	opts := runOpts{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		outDir: *outDir}
	var err error
	switch {
	case *setupOnly != 0:
		err = runSetupOnly(opts, time.Unix(0, *setupOnly))
	case *trace == 0:
		err = runMeasured(opts)
	case *trace == 1:
		err = runTraced(opts)
	default:
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type runOpts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	outDir   string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps reported values in insertion order for printing.
type metrics struct {
	m     map[string]metric
	order []string
	notes []string
}

func (m *metrics) set(name string, v float64, unit string) {
	if m.m == nil {
		m.m = map[string]metric{}
	}
	if _, ok := m.m[name]; !ok {
		m.order = append(m.order, name)
	}
	m.m[name] = metric{Value: v, Unit: unit}
}

// dist reports a distribution as name.p50 and name.tail, the highest
// percentile with at least ten samples beyond it.
func (m *metrics) dist(name, unit string, values []float64) {
	d := summarize(values)
	m.set(name+".p50", d.P50, unit)
	m.set(name+".tail", d.Tail, unit)
	m.notes = append(m.notes, fmt.Sprintf("%s: n=%d p50=%.4g p%g=%.4g max=%.4g %s",
		name, d.N, d.P50, d.TailPct, d.Tail, d.Max, unit))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(m metrics, c *checks) error {
	for _, n := range m.order {
		fmt.Printf("metric %-36s %.6g %s\n", n, m.m[n].Value, m.m[n].Unit)
	}
	for _, n := range m.notes {
		fmt.Println("dist", n)
	}
	if c.attempted > 0 {
		fmt.Printf("checks: %d attempted, %d failed, failed_frac %.6g\n",
			c.attempted, c.failed, float64(c.failed)/float64(c.attempted))
	}
	for _, f := range c.failures {
		fmt.Println("check failed:", f)
	}
	line, err := json.Marshal(result{Correct: c.failed == 0 && c.attempted > 0,
		Attempted: c.attempted, Failed: c.failed, Metrics: m.m})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// start instantiates the workload for a timed run, claiming it in this
// process, and prints the run's provenance.
func start(o runOpts) (*job, error) {
	j, err := newJob(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if err := guard.claim(o.workload); err != nil {
		return nil, err
	}
	provenance(o)
	return j, nil
}

// provenance prints what produced this run.
func provenance(o runOpts) {
	rev, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	fmt.Printf("provenance: workload=%s seed=%d go=%s gomaxprocs=%d nproc=%d vcs.revision=%s vcs.modified=%s\n",
		o.workload, o.seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), rev, modified)
}

// digest hashes a round's simulated results, so a change that claims a
// pure speed-up can show they stayed identical.
func digest(results any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", results))))
}

// runMeasured is the untraced run: set-up, then whole rounds of the
// measured phase until the requested time has passed, reporting
// per-round medians.
func runMeasured(o runOpts) error {
	j, err := start(o)
	if err != nil {
		return err
	}
	c := &checks{}

	var setups []float64
	for k := 0; k < setupReps; k++ {
		d, err := setupChild(o)
		if err != nil {
			return err
		}
		setups = append(setups, d)
	}
	if err := j.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	var cpu, wall, alloc []float64
	var ops uint64
	var first string
	phase := time.Now()
	for len(cpu) == 0 || (!j.once && time.Since(phase) < o.seconds) {
		m := startMeter()
		res, n, err := j.round()
		s := m.stop()
		c.add(err == nil, fmt.Sprintf("round %d ran without error: %v", len(cpu), err))
		if err != nil {
			break
		}
		j.check(res, c)
		d := digest(res)
		if first == "" {
			first = d
			fmt.Printf("digest: sha256:%s (simulated results of round 0)\n", d)
		} else {
			c.add(d == first, fmt.Sprintf("round %d results identical to round 0", len(cpu)))
		}
		cpu = append(cpu, s.CPU.Seconds())
		wall = append(wall, s.Wall.Seconds())
		alloc = append(alloc, float64(s.Alloc)/1e6)
		ops = n
	}
	roundTrip(j.sample, c)

	var m metrics
	m.set("setup_s", median(setups), "s")
	m.set("cpu_s", median(cpu), "s")
	m.set("wall_s", median(wall), "s")
	m.set("peak_rss_mb", float64(peakRSSBytes())/1e6, "MB")
	m.set("alloc_mb", median(alloc), "MB")
	fmt.Printf("rounds: %d (per-round medians reported), cpu_s per round %.3f\n", len(cpu), cpu)
	if ops > 0 && median(cpu) > 0 {
		fmt.Printf("simops_per_cpu_s: %.6g 1/s (%d demand ops per round)\n", float64(ops)/median(cpu), ops)
	}
	return printResult(m, c)
}

// runSetupOnly is the set-up-only child: it builds the workload's
// inputs, runs its set-up step once and prints the time since its own
// launch.
func runSetupOnly(o runOpts, launched time.Time) error {
	j, err := newJob(o.workload, o.seed)
	if err != nil {
		return err
	}
	if err := j.setup(); err != nil {
		return err
	}
	fmt.Println(time.Since(launched).Seconds())
	return nil
}

// runSelf runs this benchmark binary in a child process, waits for it
// to exit and returns its standard output.
func runSelf(args ...string) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// setupChild measures set-up from outside: the wall time from launching
// a set-up-only child process (process start, runtime and package
// initialization, then the workload's set-up step) to its finishing
// the set-up.
func setupChild(o runOpts) (float64, error) {
	launched := time.Now()
	out, err := runSelf("--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--setup-only", strconv.FormatInt(launched.UnixNano(), 10))
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(string(bytes.TrimSpace(out)), 64)
}

// untracedCPU runs the same workload untraced in a child process (a
// fresh process, so no memo is shared) and returns its per-round CPU
// seconds, the base of the tracing overhead.
func untracedCPU(o runOpts) (float64, error) {
	out, err := runSelf("--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds.Seconds(), 'f', -1, 64), "--trace", "0", "--out", o.outDir)
	if err != nil {
		return 0, fmt.Errorf("untraced run: %w", err)
	}
	out = bytes.TrimSpace(out)
	var r result
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &r); err != nil {
		return 0, fmt.Errorf("untraced run result: %w", err)
	}
	return r.Metrics["cpu_s"].Value, nil
}

// runTraced is the traced run: the workload's phase with spans around
// each layer call, the harness equivalence check, layer replays and
// codec probes, reported as per-layer metrics.
func runTraced(o runOpts) error {
	j, err := start(o)
	if err != nil {
		return err
	}
	base, err := untracedCPU(o)
	if err != nil {
		return err
	}
	every := uint64(9973)
	if j.once {
		every = 1
	}
	t := &tracedRun{j: j, seed: o.seed, tr: newTracer(every, maxTrees), c: &checks{}}
	if j.traced != nil {
		if err := j.traced(t); err != nil {
			return err
		}
	}
	if err := j.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	lt := t.runLoops()
	roundTrip(j.sample, t.c)
	t.codecProbe(j.sample)
	t.layerMetrics(lt, base)
	for _, d := range t.detail {
		fmt.Println("detail", d)
	}
	for _, mm := range t.mismatches {
		fmt.Println("equivalence mismatch:", mm)
	}
	fmt.Printf("equivalence: %s (rebuilt loops vs sim, one-node vs full fleets)\n",
		map[bool]string{true: "pass", false: "FAIL"}[len(t.mismatches) == 0])
	if err := t.writeTrees(o); err != nil {
		return err
	}
	return printResult(t.out, t.c)
}

func (t *tracedRun) layerMetrics(lt loopTotals, untraced float64) {
	m := &t.out
	tr := t.tr
	cells := summarize(t.cells)
	m.set("grid.cells", float64(cells.N), "count")
	m.dist("grid.cell_ms", "ms", t.cells)
	m.set("grid.cell_s.max", cells.Max/1e3, "s")
	m.set("sim.prepare_assets_s", lt.prepare.Seconds(), "s")
	m.set("sim.run.cpu_s", lt.simCPU.Seconds(), "s")
	m.set("workload.image.materialize_s", lt.materialize.Seconds(), "s")
	m.set("workload.image.size_all_s", lt.sizeAll.Seconds(), "s")
	m.dist("workload.trace.next_ns", "ns", tr.stats("workload.trace.next").durs)
	m.dist("workload.size_line_ns", "ns", tr.stats("workload.size_line").durs)
	m.set("workload.size_line.calls", float64(lt.sizeCalls), "count")
	repeat := 0.0
	if lt.sizeCalls > 0 {
		repeat = 1 - float64(lt.distinct)/float64(lt.sizeCalls)
	}
	m.set("workload.size_line.repeat_frac", repeat, "frac")
	// compress.* are set by codecProbe.
	step := tr.stats("cpu.step")
	m.dist("cpu.step_ns", "ns", step.durs)
	m.set("cpu.self_s", float64(step.self)/1e9, "s")
	m.dist("cache.hier.access_ns", "ns", lt.cacheNS)
	missRate := 0.0
	if acc := lt.l3.Accesses(); acc > 0 {
		missRate = float64(lt.l3.Misses) / float64(acc)
	}
	m.set("cache.l3.miss_rate", missRate, "frac")
	var reads, writes []float64
	var self int64
	seen := map[string]bool{}
	for _, spec := range t.j.loops {
		if seen[spec.system] {
			continue
		}
		seen[spec.system] = true
		r, w := tr.stats("memctl."+spec.system+".read"), tr.stats("memctl."+spec.system+".write")
		reads, writes = append(reads, r.durs...), append(writes, w.durs...)
		self += r.self + w.self
		rd, wd := summarize(r.durs), summarize(w.durs)
		t.note("memctl.%s: read_ns p50 %.0f p%g %.0f (n=%d), write_ns p50 %.0f p%g %.0f (n=%d), self_s %.4f",
			spec.system, rd.P50, rd.TailPct, rd.Tail, rd.N, wd.P50, wd.TailPct, wd.Tail, wd.N,
			float64(r.self+w.self)/1e9)
	}
	m.dist("memctl.read_ns", "ns", reads)
	m.dist("memctl.write_ns", "ns", writes)
	m.set("memctl.self_s", float64(self)/1e9, "s")
	m.dist("dram.access_ns", "ns", lt.dramNS)
	m.set("dram.accesses", float64(lt.dramAccesses), "count")
	m.set("trace.phase_cpu_s", t.phaseCPU.Seconds(), "s")
	m.set("trace.overhead_frac", t.phaseCPU.Seconds()/untraced-1, "frac")
	m.set("trace.equivalence_mismatches", float64(len(t.mismatches)), "count")
	m.set("obs.attribution.violations", float64(lt.violations), "count")
}

// writeTrees writes the sampled complete span trees.
func (t *tracedRun) writeTrees(o runOpts) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	data, err := json.MarshalIndent(map[string]any{"workload": o.workload, "seed": o.seed, "trees": t.tr.trees}, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("span trees: %d written to %s\n", len(t.tr.trees), path)
	return os.WriteFile(path, data, 0o644)
}
