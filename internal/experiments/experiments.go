// Package experiments contains one runner per table and figure of the
// paper's evaluation (see DESIGN.md §4 for the full index). Each
// experiment has a data function (returning structured results, used
// by tests and benchmarks) and a Run wrapper that renders the paper's
// rows/series as text.
package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"compresso/internal/faults"
	"compresso/internal/journal"
	"compresso/internal/obs"
	"compresso/internal/parallel"
)

// Options control an experiment run.
type Options struct {
	// Out receives the rendered tables.
	Out io.Writer
	// Quick shrinks footprints and trace lengths for smoke tests; the
	// full configuration reproduces the paper-scale runs.
	Quick bool
	// Seed drives all randomness. A zero Seed falls back to the
	// default 42 unless SeedSet marks it as deliberate.
	Seed uint64
	// SeedSet marks Seed as explicitly chosen, which makes Seed == 0 a
	// usable seed instead of an alias for the default.
	SeedSet bool
	// Jobs bounds the worker goroutines that fan independent
	// simulation cells out across cores; <= 0 means GOMAXPROCS. The
	// rendered output is byte-identical for every Jobs value at the
	// same seed (see DESIGN.md §7 for the determinism contract).
	Jobs int
	// JSONDir, when non-empty, receives one deterministic JSON
	// artifact per experiment (the obs envelope, kind "experiment"):
	// the structured rows behind the tables. Files are
	// byte-identical across Jobs values (DESIGN.md §8).
	JSONDir string
	// Progress, when non-nil, observes every experiment grid (one
	// GridStart/GridEnd pair per fan-out, one GridCell per completed
	// simulation cell). It is display/telemetry only and must not
	// influence results: artifacts are byte-identical with or without a
	// Progress sink attached (DESIGN.md §9).
	Progress parallel.Progress

	// Resilience options (DESIGN.md §11). Any of them switches the
	// grids from the plain deterministic fan-out to the resilient
	// engine (parallel.MapResilient); results stay byte-identical on
	// success either way.

	// Ctx cancels the run: queued cells are skipped, in-flight
	// simulation cells abort cooperatively (sim.Config.Cancel), and
	// the grid error reports the cancellation.
	Ctx context.Context
	// CellTimeout is the per-attempt deadline for one grid cell
	// (0 disables). Expiry is retryable under Retry.
	CellTimeout time.Duration
	// Retry bounds re-attempts of transiently failing cells with
	// deterministic exponential backoff.
	Retry parallel.RetryPolicy
	// Quarantine switches to partial-results mode: failing cells land
	// in Failures (zero-valued rows) instead of aborting the grid.
	Quarantine bool
	// Chaos, when non-nil, disrupts cells deterministically (panic /
	// transient error / delay / kill) — the harness the resilience
	// machinery is proven against.
	Chaos *faults.Chaos
	// Journal, when non-nil, makes the run durable: completed cells
	// append to it as they finish, and journaled cells replay instead
	// of executing (resume). Replayed rows are byte-identical to
	// recomputed ones.
	Journal *journal.Journal
	// Failures collects quarantined cells across grids (the failure
	// manifest). Required when Quarantine is set and a manifest is
	// wanted; a nil log just drops the records.
	Failures *parallel.FailureLog

	// labels is Ctx (or the background context) carrying the running
	// experiment's pprof label, set by runRecovering; grid cells
	// extend it rather than replace it.
	labels context.Context
}

// labelCtx returns the context whose pprof labels nested work extends.
func (o Options) labelCtx() context.Context {
	switch {
	case o.labels != nil:
		return o.labels
	case o.Ctx != nil:
		return o.Ctx
	}
	return context.Background()
}

// inCell runs f for cell i of grid label under the pprof labels
// "grid" and "cell", added to those ctx carries, and hands f the
// labeled context, so `pprof -tagfocus` can split a CPU profile by
// experiment, grid and cell.
func inCell(ctx context.Context, label string, i int, f func(ctx context.Context)) {
	pprof.Do(ctx, pprof.Labels("grid", label, "cell", strconv.Itoa(i)), f)
}

// resilient reports whether any resilience feature routes the grids
// through parallel.MapResilient.
func (o Options) resilient() bool {
	return o.Ctx != nil || o.CellTimeout > 0 || o.Retry.MaxAttempts > 1 ||
		o.Quarantine || o.Chaos != nil || o.Journal != nil
}

// ops and scale return the trace length and footprint divisor for the
// fidelity level.
func (o Options) ops() uint64 {
	if o.Quick {
		return 20_000
	}
	return 200_000
}

func (o Options) scale() int {
	if o.Quick {
		return 16
	}
	return 4
}

func (o Options) seed() uint64 {
	if o.Seed == 0 && !o.SeedSet {
		return 42
	}
	return o.Seed
}

// Experiment is a registered paper artifact.
type Experiment struct {
	Name string
	Desc string
	// Run renders the experiment to opt.Out and returns the structured
	// rows behind the tables — the JSON artifact payload (nil for
	// prose-only artifacts, which produce no JSON file).
	Run func(Options) (any, error)
}

var registry = map[string]Experiment{}

func register(name, desc string, run func(Options) (any, error)) {
	registry[name] = Experiment{Name: name, Desc: desc, Run: run}
}

// List returns all experiments sorted by name.
func List() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes the named experiment. A panic inside the experiment is
// converted to an error, so a defect in one artifact reports instead
// of killing the process.
func Run(name string, opt Options) error {
	e, ok := registry[name]
	if !ok {
		var names []string
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, names)
	}
	return runRecovering(e, opt)
}

// grid fans an experiment's simulation cells out under opt's job
// bound, reporting per-cell progress to opt.Progress under label. The
// cell function receives the grid context (context.Background when no
// resilience feature is active); cells that build a sim.Config should
// install it as Config.Cancel so in-flight work aborts cooperatively.
//
// When a resilience option is set the grid runs on
// parallel.MapResilient; a fatal grid error (cancellation, exhausted
// retries outside quarantine mode) unwinds as a gridFatal panic, which
// runRecovering converts back to the experiment's error.
func grid[T any](opt Options, label string, n int, fn func(ctx context.Context, i int) T) []T {
	if !opt.resilient() {
		return parallel.MapProgress(opt.Jobs, n, opt.Progress, label, func(i int) (v T) {
			inCell(opt.labelCtx(), label, i, func(ctx context.Context) { v = fn(ctx, i) })
			return v
		})
	}
	rows, err := resilientGrid(opt, label, n, func(ctx context.Context, i int) (T, error) {
		return fn(ctx, i), nil
	})
	if err != nil {
		panic(gridFatal{err: err})
	}
	return rows
}

// gridErr is grid for cells that can fail (see parallel.MapErr).
func gridErr[T any](opt Options, label string, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if !opt.resilient() {
		return parallel.MapErrProgress(opt.Jobs, n, opt.Progress, label, func(i int) (v T, err error) {
			inCell(opt.labelCtx(), label, i, func(ctx context.Context) { v, err = fn(ctx, i) })
			return v, err
		})
	}
	return resilientGrid(opt, label, n, fn)
}

// gridFatal carries a resilient grid's fatal error out of grid (which
// has no error return); runRecovering unwraps it so errors.Is chains
// survive the unwind.
type gridFatal struct{ err error }

// Error makes the panic value render as its cause when a recover site
// formats it with %v (e.g. the memo cache's poison message).
func (g gridFatal) Error() string { return g.err.Error() }

// resilientGrid executes one grid on parallel.MapResilient: journal
// replay and record around each cell, chaos disruption per attempt,
// retry/deadline/quarantine per opt, and the grid's quarantined cells
// appended to opt.Failures.
func resilientGrid[T any](opt Options, label string, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	hash := cellHash[T](opt)
	run := parallel.Run{
		Jobs:          opt.Jobs,
		Ctx:           opt.labelCtx(),
		CellTimeout:   opt.CellTimeout,
		Retry:         opt.Retry,
		Quarantine:    opt.Quarantine,
		CancelOnFatal: true,
		Progress:      opt.Progress,
		Label:         label,
	}
	rows, failures, err := parallel.MapResilient(run, n, func(ctx context.Context, i, attempt int) (T, error) {
		var zero T
		if opt.Journal != nil {
			if raw, ok := opt.Journal.Lookup(label, i, hash); ok {
				if v, derr := replayCell[T](raw); derr == nil {
					parallel.NotifyReplayed(opt.Progress, label, i)
					return v, nil
				}
				// A row that no longer decodes is treated as absent: the
				// cell recomputes and re-records under the same key.
			}
		}
		if cerr := opt.Chaos.Disrupt(ctx, label, i, attempt); cerr != nil {
			return zero, cerr
		}
		var v T
		var ferr error
		inCell(ctx, label, i, func(ctx context.Context) { v, ferr = fn(ctx, i) })
		if ferr != nil {
			return zero, ferr
		}
		if opt.Journal != nil {
			if jerr := opt.Journal.Record(label, i, hash, v); jerr != nil {
				return zero, jerr
			}
		}
		return v, nil
	})
	if opt.Failures != nil && len(failures) > 0 {
		opt.Failures.Add(failures...)
	}
	return rows, err
}

// cellHash condenses everything that determines a cell's row — the
// build, the fidelity level, the seed, and the row type — into the
// journal entry key, so a journal never replays across builds,
// configurations or row shapes.
func cellHash[T any](opt Options) string {
	var zero T
	return journal.ContentHash(
		buildID,
		fmt.Sprintf("%T", zero),
		strconv.FormatBool(opt.Quick),
		strconv.FormatUint(opt.seed(), 10),
		strconv.FormatUint(opt.ops(), 10),
		strconv.Itoa(opt.scale()),
	)
}

// buildID identifies the code that computes the rows: the VCS revision
// and dirty flag the go toolchain stamps into the binary. A resume
// after a rebuild at another revision therefore recomputes instead of
// replaying the old code's rows. Builds without VCS stamps (go test,
// -buildvcs=false, a tree outside version control) all share one
// identity, as do successive edits of a dirty tree. Tests substitute
// other identities.
var buildID = readBuildID()

func readBuildID() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	return "vcs.revision=" + rev + " vcs.modified=" + modified
}

// replayCell decodes a journaled row back into the grid's row type.
func replayCell[T any](raw json.RawMessage) (T, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, fmt.Errorf("experiments: replaying journaled cell: %w", err)
	}
	return v, nil
}

// writeArtifact serializes one experiment's payload into opt.JSONDir.
func writeArtifact(opt Options, name string, data any) error {
	if opt.JSONDir == "" || data == nil {
		return nil
	}
	_, err := obs.WriteArtifact(opt.JSONDir, obs.Artifact{
		Kind: "experiment",
		Name: name,
		Data: data,
	})
	return err
}

// RunAll executes every registered experiment. Experiments run
// concurrently (bounded by Options.Jobs), each rendering into its own
// buffer; the buffers are flushed to opt.Out in name order, so the
// output is byte-identical to a serial sweep. Each experiment runs
// under panic recovery and a failure does not stop the batch; the
// returned error joins every failure in name order (nil when all
// succeeded).
func RunAll(opt Options) error {
	list := List()
	type outcome struct {
		text string
		err  error
	}
	outs := parallel.MapProgress(opt.Jobs, len(list), opt.Progress, "all", func(i int) outcome {
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return outcome{err: fmt.Errorf("experiments: %s skipped: %w", list[i].Name, opt.Ctx.Err())}
		}
		var buf bytes.Buffer
		sub := opt
		sub.Out = &buf
		err := runRecovering(list[i], sub)
		return outcome{text: buf.String(), err: err}
	})
	var errs []error
	for i, o := range outs {
		io.WriteString(opt.Out, o.text)
		if o.err != nil {
			fmt.Fprintf(opt.Out, "\n!! %s failed: %v\n", list[i].Name, o.err)
			errs = append(errs, o.err)
		}
	}
	return errors.Join(errs...)
}

func runRecovering(e Experiment, opt Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if gf, ok := r.(gridFatal); ok {
				err = gf.err
				return
			}
			err = fmt.Errorf("experiments: %s panicked: %v", e.Name, r)
		}
	}()
	pprof.Do(opt.labelCtx(), pprof.Labels("experiment", e.Name), func(ctx context.Context) {
		opt.labels = ctx
		var data any
		if data, err = e.Run(opt); err == nil {
			err = writeArtifact(opt, e.Name, data)
		}
	})
	return err
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
