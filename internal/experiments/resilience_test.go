package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"compresso/internal/faults"
	"compresso/internal/journal"
	"compresso/internal/parallel"
)

// readArtifacts returns name -> bytes for every JSON artifact in dir.
func readArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.Name() == journal.FileName {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = buf
	}
	return out
}

func sameArtifacts(t *testing.T, tag string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d artifacts, want %d", tag, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: artifact %s missing", tag, name)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: artifact %s differs", tag, name)
		}
	}
}

// cancelAfter is a Progress sink that cancels a context after the n-th
// completed cell — the in-process stand-in for an interrupt (or crash)
// landing at an arbitrary point of the sweep.
type cancelAfter struct {
	cancel context.CancelFunc
	after  int32
	seen   int32
}

func (c *cancelAfter) GridStart(string, int) {}
func (c *cancelAfter) GridEnd(string)        {}
func (c *cancelAfter) GridCell(string, int, time.Duration) {
	if atomic.AddInt32(&c.seen, 1) == c.after {
		c.cancel()
	}
}

// TestNilCtxMatchesBackgroundCtx: every grid runs on the one engine,
// and the grid context it is handed must not matter — a nil Ctx and a
// background Ctx give byte-identical output and artifacts.
func TestNilCtxMatchesBackgroundCtx(t *testing.T) {
	nilDir, bgDir := t.TempDir(), t.TempDir()

	resetMemos()
	var nilOut bytes.Buffer
	if err := Run("fig2", Options{Out: &nilOut, Quick: true, Seed: 42, Jobs: 4, JSONDir: nilDir}); err != nil {
		t.Fatal(err)
	}

	resetMemos()
	var bgOut bytes.Buffer
	opt := Options{Out: &bgOut, Quick: true, Seed: 42, Jobs: 4, JSONDir: bgDir, Ctx: context.Background()}
	if err := Run("fig2", opt); err != nil {
		t.Fatal(err)
	}

	if nilOut.String() != bgOut.String() {
		t.Fatal("a background context changed the rendered output")
	}
	sameArtifacts(t, "nil-vs-background-ctx", readArtifacts(t, bgDir), readArtifacts(t, nilDir))
}

// TestJournalResumeAfterCancel pins the tentpole contract: a journaled
// run killed after an arbitrary number of cells, then resumed, produces
// byte-identical text and artifacts to an uninterrupted run — at any
// worker count.
func TestJournalResumeAfterCancel(t *testing.T) {
	refDir := t.TempDir()
	resetMemos()
	var ref bytes.Buffer
	if err := Run("fig2", Options{Out: &ref, Quick: true, Seed: 42, Jobs: 1, JSONDir: refDir}); err != nil {
		t.Fatal(err)
	}
	refArts := readArtifacts(t, refDir)

	kills := []int32{1, 7, 29}
	jobsList := []int{1, 4}
	if raceEnabled {
		kills = []int32{7}
	}
	for _, jobs := range jobsList {
		for _, k := range kills {
			dir := t.TempDir()

			// Interrupted journaled run: cancel lands after the k-th cell.
			resetMemos()
			ctx, cancel := context.WithCancel(context.Background())
			j, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			ierr := Run("fig2", Options{
				Out: io.Discard, Quick: true, Seed: 42, Jobs: jobs,
				Ctx: ctx, Journal: j,
				Progress: &cancelAfter{cancel: cancel, after: k},
			})
			cancel()
			j.Close()
			recorded := j.Stats().Recorded
			// With several workers the cancel can land after every cell has
			// already started, in which case the run completes cleanly; any
			// other nil error means the cut never happened.
			if ierr == nil {
				if recorded != 30 {
					t.Fatalf("jobs=%d k=%d: run finished cleanly with only %d cells journaled", jobs, k, recorded)
				}
			} else if !errors.Is(ierr, context.Canceled) {
				t.Fatalf("jobs=%d k=%d: interrupted run error = %v, want context.Canceled", jobs, k, ierr)
			}
			if recorded < int(k) {
				t.Fatalf("jobs=%d k=%d: only %d cells journaled before the cut", jobs, k, recorded)
			}

			// Resume: replay the journal, execute the remainder.
			resetMemos()
			j2, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if j2.Stats().Loaded != recorded {
				t.Fatalf("jobs=%d k=%d: loaded %d of %d journaled cells", jobs, k, j2.Stats().Loaded, recorded)
			}
			outDir := t.TempDir()
			var out bytes.Buffer
			if err := Run("fig2", Options{
				Out: &out, Quick: true, Seed: 42, Jobs: jobs,
				Ctx: context.Background(), Journal: j2, JSONDir: outDir,
			}); err != nil {
				t.Fatalf("jobs=%d k=%d: resume failed: %v", jobs, k, err)
			}
			st := j2.Stats()
			j2.Close()
			if st.Replayed == 0 {
				t.Fatalf("jobs=%d k=%d: resume executed everything from scratch", jobs, k)
			}

			if out.String() != ref.String() {
				t.Fatalf("jobs=%d k=%d: resumed output differs from uninterrupted run", jobs, k)
			}
			sameArtifacts(t, "resume", readArtifacts(t, outDir), refArts)
		}
	}
}

// TestJournalDoesNotReplayAcrossConfigs: the cell content-hash keys a
// journal to its (fidelity, seed, row type) configuration, so resuming
// under a different seed recomputes instead of replaying stale rows.
func TestJournalDoesNotReplayAcrossConfigs(t *testing.T) {
	dir := t.TempDir()
	resetMemos()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := Run("fig2", Options{Out: io.Discard, Quick: true, Seed: 42, Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	resetMemos()
	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := Run("fig2", Options{Out: io.Discard, Quick: true, Seed: 7, SeedSet: true, Journal: j2}); err != nil {
		t.Fatal(err)
	}
	if st := j2.Stats(); st.Replayed != 0 {
		t.Fatalf("seed 7 replayed %d cells journaled under seed 42", st.Replayed)
	}
}

// TestJournalDoesNotReplayAcrossBuilds: a journal written by one build
// must not replay into a resume under another, or the resumed output
// mixes the old code's rows into the new code's.
func TestJournalDoesNotReplayAcrossBuilds(t *testing.T) {
	defer func(id string) { buildID = id }(buildID)
	dir := t.TempDir()
	run := func(build string) journal.Stats {
		t.Helper()
		buildID = build
		resetMemos()
		j, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if err := Run("fig2", Options{Out: io.Discard, Quick: true, Seed: 42, Journal: j}); err != nil {
			t.Fatal(err)
		}
		return j.Stats()
	}
	run("vcs.revision=aaaa vcs.modified=false")
	if st := run("vcs.revision=bbbb vcs.modified=false"); st.Replayed != 0 {
		t.Fatalf("build B replayed %d cells journaled by build A", st.Replayed)
	}
	if st := run("vcs.revision=bbbb vcs.modified=false"); st.Replayed == 0 {
		t.Fatal("build B did not replay its own journal")
	}
}

func TestCellHashDiscriminates(t *testing.T) {
	base := Options{Quick: true, Seed: 42}
	h := cellHash[Fig2Row](base)
	if h != cellHash[Fig2Row](base) {
		t.Fatal("cellHash not deterministic")
	}
	if h == cellHash[Fig7Row](base) {
		t.Fatal("cellHash ignores the row type")
	}
	if h == cellHash[Fig2Row](Options{Quick: false, Seed: 42}) {
		t.Fatal("cellHash ignores fidelity")
	}
	if h == cellHash[Fig2Row](Options{Quick: true, Seed: 7, SeedSet: true}) {
		t.Fatal("cellHash ignores the seed")
	}
	defer func(id string) { buildID = id }(buildID)
	buildID += "-rebuilt"
	if h == cellHash[Fig2Row](base) {
		t.Fatal("cellHash ignores the build")
	}
}

// TestChaosDeterministicAcrossJobs: chaos fates key off (label, index,
// attempt), so a chaos-disrupted, retry-healed run is byte-identical at
// any worker count.
func TestChaosDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) (string, error) {
		resetMemos()
		var buf bytes.Buffer
		err := Run("fig2", Options{
			Out: &buf, Quick: true, Seed: 42, Jobs: jobs,
			Chaos: faults.NewChaos(faults.ChaosConfig{
				Seed: 11, Rate: chaosRate(faults.CellTransient, 0.2), Delay: time.Millisecond,
			}),
			Retry: parallel.RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond, MaxBackoff: time.Millisecond, Seed: 42},
		})
		return buf.String(), err
	}
	out1, err1 := run(1)
	out8, err8 := run(8)
	if (err1 == nil) != (err8 == nil) {
		t.Fatalf("fate differs across jobs: %v vs %v", err1, err8)
	}
	if err1 != nil && err1.Error() != err8.Error() {
		t.Fatalf("error differs across jobs: %q vs %q", err1, err8)
	}
	if out1 != out8 {
		t.Fatal("chaos-disrupted output differs across jobs")
	}
}

func chaosRate(site faults.ChaosSite, p float64) [faults.NChaosSites]float64 {
	var r [faults.NChaosSites]float64
	r[site] = p
	return r
}

// TestChaosQuarantineConvergence is the in-process chaos harness loop:
// repeated journaled quarantine passes under seed-varied chaos converge
// (surviving cells accumulate in the journal, replays bypass chaos)
// to a pass with zero failures whose output is byte-identical to an
// undisrupted run.
func TestChaosQuarantineConvergence(t *testing.T) {
	if raceEnabled {
		t.Skip("multi-pass sweep is too slow under the race detector")
	}
	resetMemos()
	var ref bytes.Buffer
	if err := Run("fig2", Options{Out: &ref, Quick: true, Seed: 42, Jobs: 4}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rate := chaosRate(faults.CellPanic, 0.15)
	rate[faults.CellTransient] = 0.15
	const maxPasses = 12
	for pass := 1; ; pass++ {
		if pass > maxPasses {
			t.Fatalf("no clean pass after %d chaos passes", maxPasses)
		}
		resetMemos()
		j, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		failures := &parallel.FailureLog{}
		var out bytes.Buffer
		err = Run("fig2", Options{
			Out: &out, Quick: true, Seed: 42, Jobs: 4,
			Journal: j, Quarantine: true, Failures: failures,
			Chaos: faults.NewChaos(faults.ChaosConfig{
				Seed: uint64(pass), Rate: rate, Delay: time.Millisecond,
			}),
			Retry: parallel.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: time.Millisecond, Seed: 42},
		})
		j.Close()
		if err != nil {
			t.Fatalf("pass %d: quarantine run errored: %v", pass, err)
		}
		if failures.Len() > 0 {
			for _, f := range failures.All() {
				if !strings.Contains(f.Error, "chaos:") {
					t.Fatalf("pass %d: non-chaos failure quarantined: %+v", pass, f)
				}
			}
			continue
		}
		if out.String() != ref.String() {
			t.Fatalf("pass %d: converged output differs from undisrupted run", pass)
		}
		return
	}
}

// TestRunAllSkipsOnCanceledContext: a canceled context fails every
// experiment fast instead of running the sweep.
func TestRunAllSkipsOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resetMemos()
	defer resetMemos()
	start := time.Now()
	err := RunAll(Options{Out: io.Discard, Quick: true, Seed: 42, Jobs: 4, Ctx: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("canceled RunAll still took %v", elapsed)
	}
}

// runText runs one experiment and returns its rendered text, failing
// the test on error.
func runText(t *testing.T, name string, opt Options) string {
	t.Helper()
	var buf bytes.Buffer
	opt.Out = &buf
	if err := Run(name, opt); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf.String()
}

// TestJournalResumeMemoizedExperiment is the journal/resume contract
// over an experiment whose cells go through the run memo (fig4: two
// runSingle calls per cell). The cut cancels cycle runs mid-flight;
// the resume keeps the memo the interrupted run filled, so it mixes
// journal replays, memo hits and fresh runs, and must still be
// byte-identical to an uninterrupted run.
func TestJournalResumeMemoizedExperiment(t *testing.T) {
	refDir := t.TempDir()
	resetMemos()
	ref := runText(t, "fig4", Options{Quick: true, Seed: 42, Jobs: 1, JSONDir: refDir})
	refArts := readArtifacts(t, refDir)

	cuts := []struct {
		jobs  int
		after int32
	}{{1, 11}, {2, 3}, {2, 23}}
	if raceEnabled {
		cuts = cuts[1:2]
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		resetMemos()
		ctx, cancel := context.WithCancel(context.Background())
		j, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		ierr := Run("fig4", Options{
			Out: io.Discard, Quick: true, Seed: 42, Jobs: cut.jobs,
			Ctx: ctx, Journal: j,
			Progress: &cancelAfter{cancel: cancel, after: cut.after},
		})
		cancel()
		j.Close()
		recorded := j.Stats().Recorded
		if ierr != nil && !errors.Is(ierr, context.Canceled) {
			t.Fatalf("jobs=%d cut=%d: interrupted run error = %v, want context.Canceled", cut.jobs, cut.after, ierr)
		}
		if recorded < int(cut.after) {
			t.Fatalf("jobs=%d cut=%d: only %d cells journaled before the cut", cut.jobs, cut.after, recorded)
		}

		j2, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		outDir := t.TempDir()
		out := runText(t, "fig4", Options{Quick: true, Seed: 42, Jobs: cut.jobs, Journal: j2, JSONDir: outDir})
		st := j2.Stats()
		j2.Close()
		if st.Replayed == 0 {
			t.Fatalf("jobs=%d cut=%d: resume executed everything from scratch", cut.jobs, cut.after)
		}
		if out != ref {
			t.Fatalf("jobs=%d cut=%d: resumed output differs from uninterrupted run", cut.jobs, cut.after)
		}
		sameArtifacts(t, "memoized resume", readArtifacts(t, outDir), refArts)
	}
}

// TestCancelMemoizedExperimentLeavesMemoClean cancels fig4 mid-sweep
// while ab-align, which shares fig4's "fixed" runs through the memo,
// runs beside it, so ab-align's cells can be waiting on a key whose
// computing run is canceled. ab-align must finish byte-identical to
// its reference, and a rerun of fig4 over the memo both canceled runs
// left behind must match fig4's uninterrupted output, served partly
// from entries the canceled sweep completed.
func TestCancelMemoizedExperimentLeavesMemoClean(t *testing.T) {
	resetMemos()
	refFig4 := runText(t, "fig4", Options{Quick: true, Seed: 42, Jobs: 2})
	resetMemos()
	refAlign := runText(t, "ab-align", Options{Quick: true, Seed: 42, Jobs: 2})

	resetMemos()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	alignDone := make(chan string)
	go func() {
		var buf bytes.Buffer
		err := Run("ab-align", Options{Out: &buf, Quick: true, Seed: 42, Jobs: 2})
		if err != nil {
			buf.WriteString("error: " + err.Error())
		}
		alignDone <- buf.String()
	}()
	err := Run("fig4", Options{
		Out: io.Discard, Quick: true, Seed: 42, Jobs: 2,
		Ctx: ctx, Progress: &cancelAfter{cancel: cancel, after: 5},
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled fig4: err = %v, want context.Canceled", err)
	}
	if got := <-alignDone; got != refAlign {
		t.Fatal("ab-align beside a canceled fig4 differs from its reference")
	}

	before := RunMemoStats()
	if got := runText(t, "fig4", Options{Quick: true, Seed: 42, Jobs: 2}); got != refFig4 {
		t.Fatal("fig4 rerun after a canceled sweep differs from its reference")
	}
	if hits := RunMemoStats().Hits - before.Hits; hits == 0 {
		t.Fatal("the rerun was served no run the canceled sweep or ab-align completed")
	}
}
