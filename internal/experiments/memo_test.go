package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compresso/internal/capacity"
	"compresso/internal/compress"
	"compresso/internal/core"
	"compresso/internal/memctl"
	"compresso/internal/obs"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// memoTestConfig is a short quick-fidelity cycle run.
func memoTestConfig(sys sim.System) sim.Config {
	cfg := sim.DefaultConfig(sys)
	cfg.Ops = 4_000
	cfg.FootprintScale = 32
	cfg.Seed = 42
	return cfg
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// jsonOf encodes v, failing the test on error.
func jsonOf(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// hasEntry reports whether the memo holds key.
func hasEntry(key string) bool {
	runMemo.mu.Lock()
	defer runMemo.mu.Unlock()
	_, ok := runMemo.m[sha256.Sum256([]byte(key))]
	return ok
}

// within fails the test if f does not return in time: a memo that
// loses track of an entry blocks its callers forever.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("memo call still blocked after %v", d)
	}
}

// cancelAtCheck is a context whose Err reports cancellation from its
// n-th poll on: sim runs poll Cancel every few demand ops, so the run
// aborts mid-way at a deterministic point.
type cancelAtCheck struct {
	context.Context
	polls, n atomic.Int64
}

func (c *cancelAtCheck) Err() error {
	if c.polls.Add(1) >= c.n.Load() {
		return context.Canceled
	}
	return nil
}

// TestRunMemoCanceledRunLeavesNoEntry: a run whose Cancel fires
// mid-run produces no result, so it must leave no entry; the next call
// of the key computes a real result.
func TestRunMemoCanceledRunLeavesNoEntry(t *testing.T) {
	resetMemos()
	defer resetMemos()
	prof := mustProfile(t, "gcc")
	cfg := memoTestConfig(sim.Compresso)
	profs := []workload.Profile{prof}
	key := memctl.ConfigKey("single", profs, cfg, sim.BackendConfig(profs, cfg))

	ctx := &cancelAtCheck{Context: context.Background()}
	ctx.n.Store(3)
	cfg.Cancel = ctx
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled run unwound with %v, want a context.Canceled error", r)
			}
		}()
		runSingle(prof, cfg)
		t.Fatal("canceled run returned a result")
	}()
	if ctx.polls.Load() < 3 {
		t.Fatalf("run polled Cancel %d times; it was not canceled mid-run", ctx.polls.Load())
	}
	if hasEntry(key) {
		t.Fatal("canceled run left a memo entry")
	}

	cfg.Cancel = context.Background()
	misses := RunMemoStats().Misses
	var got sim.Result
	within(t, time.Minute, func() { got = runSingle(prof, cfg) })
	if RunMemoStats().Misses != misses+1 {
		t.Fatal("the call after a canceled run did not compute its key")
	}
	if jsonOf(t, got) != jsonOf(t, sim.RunSingle(prof, cfg)) {
		t.Fatal("the call after a canceled run differs from a direct run")
	}
}

// TestRunMemoPanicLeavesNoEntry: a panicking computation propagates to
// its caller and leaves no entry; a waiter on the failed entry
// computes the key itself instead of receiving a zero value.
func TestRunMemoPanicLeavesNoEntry(t *testing.T) {
	resetMemos()
	defer resetMemos()
	const key = "test-panicking-key"
	started := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan any, 1)
	go func() {
		defer func() { leaderErr <- recover() }()
		memoized(key, func() int {
			close(started)
			<-release
			panic("deliberate")
		})
	}()
	<-started

	// The waiter should find the leader's entry in flight and block on
	// it. The memo exposes no event for "a caller is waiting", so the
	// pause only makes that order likely; the assertions below hold
	// whichever order the two take.
	waiter := make(chan int, 1)
	go func() { waiter <- memoized(key, func() int { return 7 }) }()
	time.Sleep(20 * time.Millisecond)
	close(release)

	if r := <-leaderErr; r != "deliberate" {
		t.Fatalf("leader recovered %v, want the run's panic", r)
	}
	select {
	case v := <-waiter:
		if v != 7 {
			t.Fatalf("waiter got %d, want its own computed 7", v)
		}
	case <-time.After(time.Minute):
		t.Fatal("waiter on a failed entry never returned")
	}

	// The waiter's success is the key's entry now; a panic with no
	// waiter leaves nothing behind either.
	if !hasEntry(key) {
		t.Fatal("the waiter's recomputation was not stored")
	}
	func() {
		defer func() { recover() }()
		memoized("test-lone-panic", func() int { panic("deliberate") })
	}()
	if hasEntry("test-lone-panic") {
		t.Fatal("a panicking run left an entry")
	}
	within(t, time.Minute, func() {
		if v := memoized("test-lone-panic", func() int { return 3 }); v != 3 {
			t.Errorf("recomputation after a panic got %d, want 3", v)
		}
	})
}

// TestRunMemoSingleflight: eight concurrent callers of one key run it
// once and receive equal results.
func TestRunMemoSingleflight(t *testing.T) {
	resetMemos()
	defer resetMemos()
	prof := mustProfile(t, "mcf")
	cfg := memoTestConfig(sim.Compresso)
	before := RunMemoStats()

	const callers = 8
	results := make([]sim.Result, callers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = runSingle(prof, cfg)
		}()
	}
	wg.Wait()

	after := RunMemoStats()
	if misses := after.Misses - before.Misses; misses != 1 {
		t.Fatalf("%d callers of one key computed it %d times, want once", callers, misses)
	}
	if hits := after.Hits - before.Hits; hits != callers-1 {
		t.Fatalf("%d hits, want %d", hits, callers-1)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d received a different result", i)
		}
	}
}

// scribble overwrites every slice element and map entry v reaches and
// adds a map entry, so any memory a hand-out shares with the memo's
// copy shows up as a changed later hand-out.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			return
		}
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			scribble(e)
			v.SetMapIndex(k, e)
		}
		if v.Type().Key().Kind() == reflect.String {
			v.SetMapIndex(reflect.ValueOf("scribbled").Convert(v.Type().Key()), reflect.New(v.Type().Elem()).Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				scribble(v.Field(i))
			}
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "!")
	}
}

// TestRunMemoHandsOutCopies: changing every map and slice of a served
// Result or MultiResult leaves the next hand-out unchanged, whether the
// changed value came from the computing call or from a hit.
func TestRunMemoHandsOutCopies(t *testing.T) {
	resetMemos()
	defer resetMemos()
	// check compares hand-outs of get against ref, a direct run that
	// shares no memory with the memo.
	check := func(name string, get func() any, ref any) {
		t.Helper()
		for round := 0; round < 3; round++ {
			got := get() // round 0 computes, later rounds hit
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: hand-out %d differs from a direct run after earlier callers changed theirs", name, round)
			}
			c := reflect.New(reflect.TypeOf(got)).Elem()
			c.Set(reflect.ValueOf(got))
			scribble(c)
		}
	}

	// cram exports backend metrics, compresso a page-size histogram.
	gcc := mustProfile(t, "gcc")
	for _, sys := range []sim.System{sim.CRAM, sim.Compresso} {
		cfg := memoTestConfig(sys)
		ref := sim.RunSingle(gcc, cfg)
		if sys == sim.CRAM && len(ref.BackendMetrics.Counters) == 0 {
			t.Fatal("cram result carries no backend metrics to change")
		}
		if sys == sim.Compresso && len(ref.PageSizes.Buckets) == 0 {
			t.Fatal("compresso result carries no page-size buckets to change")
		}
		check(string(sys), func() any { return runSingle(gcc, cfg) }, ref)
	}
	mix := sim.Mixes()[0]
	profs, err := mix.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	cfg := memoTestConfig(sim.Compresso)
	cfg.Ops = 2_000
	check("mix", func() any { return runMix(mix.Name, profs, cfg) }, sim.RunMix(mix.Name, profs, cfg))
}

// TestRunMemoMatchesDirectRuns: a memoized run is JSON-equal to a
// direct sim.RunSingle of the same config, and the three ablation
// spellings of the unoptimized system (fig4 fixed, fig6 stage 0,
// ab-align legacy) are one key.
func TestRunMemoMatchesDirectRuns(t *testing.T) {
	resetMemos()
	defer resetMemos()
	opt := quickOpts()
	prof := mustProfile(t, "soplex")
	mkCfg := func(sys sim.System, mod any) sim.Config {
		cfg := sim.DefaultConfig(sys)
		cfg.Ops = opt.ops()
		cfg.FootprintScale = opt.scale()
		cfg.Seed = opt.seed()
		if mod != nil {
			cfg.Mods = map[string]any{string(sys): mod}
		}
		return cfg
	}
	cases := []struct {
		name string
		cfg  sim.Config
	}{
		{"fig4 fixed", mkCfg(sim.Compresso, baselineMod)},
		{"fig6 stage 0", mkCfg(sim.Compresso, fig6Mods()[0])},
		{"ab-align legacy", mkCfg(sim.Compresso, func(c *core.Config) { baselineMod(c); c.Bins = compress.LegacyBins })},
		{"compresso", mkCfg(sim.Compresso, nil)},
		{"lcp-align", mkCfg(sim.LCPAlign, nil)},
	}
	keys := map[string]bool{}
	for _, tc := range cases {
		profs := []workload.Profile{prof}
		keys[memctl.ConfigKey("single", profs, tc.cfg, sim.BackendConfig(profs, tc.cfg))] = true
		if got, want := jsonOf(t, runSingle(prof, tc.cfg)), jsonOf(t, sim.RunSingle(prof, tc.cfg)); got != want {
			t.Errorf("%s: memoized run differs from a direct run", tc.name)
		}
	}
	if len(keys) != 3 {
		t.Fatalf("%d distinct keys, want 3 (the unoptimized system, compresso, lcp-align)", len(keys))
	}
	if st := RunMemoStats(); st.Entries != 3 || st.Hits < 2 {
		t.Fatalf("memo %s, want 3 entries and the two repeated spellings served as hits", st)
	}
}

// TestRunMemoBypassesObservingRuns: a run whose output carries an
// observation (an event trace, samples, an attribution ledger) runs
// unmemoized and stores nothing.
func TestRunMemoBypassesObservingRuns(t *testing.T) {
	resetMemos()
	defer resetMemos()
	prof := mustProfile(t, "gcc")
	observing := map[string]func(*sim.Config){
		"TraceEvents": func(c *sim.Config) { c.TraceEvents = 16 },
		"SampleEvery": func(c *sim.Config) { c.SampleEvery = 1000 },
		"OnSample":    func(c *sim.Config) { c.OnSample = func(uint64, obs.Snapshot) {} },
		"Attribution": func(c *sim.Config) { c.Attribution = true },
	}
	for name, set := range observing {
		cfg := memoTestConfig(sim.Compresso)
		set(&cfg)
		before := RunMemoStats()
		runSingle(prof, cfg)
		after := RunMemoStats()
		if after.Entries != before.Entries || after.Bypassed != before.Bypassed+1 {
			t.Errorf("%s: memo %s after an observing run (was %s), want it bypassed", name, after, before)
		}
	}
}

// TestRunMemoPastCap: once the memo holds runMemoCap entries, new keys
// run unmemoized, store nothing, and still return the right result.
func TestRunMemoPastCap(t *testing.T) {
	resetMemos()
	defer resetMemos()
	for i := 0; i < runMemoCap; i++ {
		memoized(fmt.Sprintf("test-filler-%d", i), func() int { return i })
	}
	prof := mustProfile(t, "gcc")
	cfg := memoTestConfig(sim.LCP)
	before := RunMemoStats()
	if before.Entries != runMemoCap {
		t.Fatalf("memo holds %d entries, want the cap %d", before.Entries, runMemoCap)
	}
	for i := 0; i < 2; i++ {
		if jsonOf(t, runSingle(prof, cfg)) != jsonOf(t, sim.RunSingle(prof, cfg)) {
			t.Fatal("a run past the cap differs from a direct run")
		}
	}
	after := RunMemoStats()
	if after.Entries != runMemoCap || after.Bypassed-before.Bypassed != 2 || after.Hits != before.Hits {
		t.Fatalf("memo %s after two runs past the cap (was %s), want both bypassed", after, before)
	}
	if v := memoized("test-filler-7", func() int { return -1 }); v != 7 {
		t.Fatalf("a stored entry served %d, want 7", v)
	}
}

// TestConfigKeyCoversEveryField perturbs every exported leaf field of
// the run inputs one at a time: sim.Config, workload.Profile,
// capacity.Config and every registered backend's config. Each change
// must change the key, unless the field is tagged `key:"-"` with a doc
// comment that says why it cannot change a result. A new knob that the
// key ignored would alias two different runs onto one memo entry.
func TestConfigKeyCoversEveryField(t *testing.T) {
	var phased workload.Profile
	for _, p := range workload.All() {
		if len(p.Phases) > 0 {
			phased = p
			break
		}
	}
	if phased.Name == "" {
		t.Fatal("no profile with phases to perturb")
	}
	inputs := map[string]any{
		"sim.Config":       sim.DefaultConfig(sim.Compresso),
		"workload.Profile": phased,
		"capacity.Config":  capacity.DefaultConfig(0.7),
	}
	for _, sys := range sim.AllSystems() {
		cfg := memoTestConfig(sys)
		inputs[string(sys)+" config"] = sim.BackendConfig([]workload.Profile{phased}, cfg)
	}
	exempt := map[string]bool{}
	for name, in := range inputs {
		base := memctl.ConfigKey(in)
		root := reflect.New(reflect.TypeOf(in)).Elem()
		root.Set(reflect.ValueOf(in))
		n := 0
		eachLeaf(t, root, name, exempt, func(path string, perturb func() (undo func())) {
			n++
			undo := perturb()
			if memctl.ConfigKey(root.Interface()) == base {
				t.Errorf("%s: changing it leaves the key unchanged; key it or tag it `key:\"-\"` with the reason", path)
			}
			undo()
			if memctl.ConfigKey(root.Interface()) != base {
				t.Fatalf("%s: undoing the change did not restore the key", path)
			}
		})
		if n == 0 && root.NumField() > 0 {
			t.Errorf("%s: no fields perturbed", name)
		}
	}
	checkExemptComments(t, exempt)
}

// alternatives are the values an opaque leaf (an interface, or a
// struct without exported fields) is swapped for.
var alternatives = []any{
	compress.BPC{}, compress.BDI{}, compress.LegacyBins, compress.CompressoBins, compress.EightBins,
}

// eachLeaf calls visit once per exported leaf under v with a function
// that changes that leaf in place and returns its undo. Tagged fields
// are recorded in exempt ("pkgpath.Type.Field") instead.
func eachLeaf(t *testing.T, v reflect.Value, path string, exempt map[string]bool, visit func(string, func() func())) {
	t.Helper()
	// set visits a change of v made by change, undone by restoring v.
	set := func(path string, change func()) {
		visit(path, func() func() {
			old := reflect.New(v.Type()).Elem()
			old.Set(v)
			change()
			return func() { v.Set(old) }
		})
	}
	switch v.Kind() {
	case reflect.Bool:
		set(path, func() { v.SetBool(!v.Bool()) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		set(path, func() { v.SetInt(v.Int() + 1) })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		set(path, func() { v.SetUint(v.Uint() + 1) })
	case reflect.Float32, reflect.Float64:
		set(path, func() { v.SetFloat(v.Float()*2 + 0.5) })
	case reflect.String:
		set(path, func() { v.SetString(v.String() + "x") })
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachLeaf(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), exempt, visit)
		}
	case reflect.Slice:
		set(path+" (length)", func() { v.Set(reflect.Append(v, reflect.New(v.Type().Elem()).Elem())) })
		if v.Len() == 0 {
			t.Errorf("%s: empty slice, its elements go unperturbed", path)
			return
		}
		// Perturb element 0 through a private copy of the backing array.
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(c, v)
		v.Set(c)
		eachLeaf(t, v.Index(0), path+"[0]", exempt, visit)
	case reflect.Interface:
		set(path+" (type)", func() { v.Set(reflect.ValueOf(alternativeTo(t, v.Elem().Interface(), v.Type()))) })
		if v.Elem().Kind() == reflect.Struct && v.Elem().NumField() > 0 {
			// The dynamic value is not addressable: change a copy of it
			// and store the copy.
			e := reflect.New(v.Elem().Type()).Elem()
			e.Set(v.Elem())
			eachLeaf(t, e, path, exempt, func(p string, perturb func() func()) {
				visit(p, func() func() {
					old := reflect.New(v.Type()).Elem()
					old.Set(v)
					undo := perturb()
					v.Set(e)
					return func() { undo(); v.Set(old) }
				})
			})
		}
	case reflect.Struct:
		typ := v.Type()
		exported := 0
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			exported++
			if f.Tag.Get("key") == "-" {
				exempt[typ.PkgPath()+"."+typ.Name()+"."+f.Name] = true
				continue
			}
			eachLeaf(t, v.Field(i), path+"."+f.Name, exempt, visit)
		}
		if exported == 0 && typ.NumField() > 0 {
			set(path, func() { v.Set(reflect.ValueOf(alternativeTo(t, v.Interface(), typ))) })
		}
	default:
		t.Errorf("%s: %s field is neither keyed nor tagged `key:\"-\"`", path, v.Kind())
	}
}

// alternativeTo returns an alternative value assignable to typ that
// differs from cur.
func alternativeTo(t *testing.T, cur any, typ reflect.Type) any {
	for _, a := range alternatives {
		if reflect.TypeOf(a).AssignableTo(typ) && !reflect.DeepEqual(a, cur) {
			return a
		}
	}
	t.Fatalf("no alternative value of %s to swap for %v", typ, cur)
	return nil
}

// checkExemptComments requires each `key:"-"` field to carry a doc
// comment naming memctl.ConfigKey, where the reason it cannot change a
// result is written.
func checkExemptComments(t *testing.T, exempt map[string]bool) {
	t.Helper()
	if len(exempt) == 0 {
		t.Fatal("no exempt fields found; the tags moved?")
	}
	byPkg := map[string][]string{}
	for f := range exempt {
		_, rest, _ := strings.Cut(f, "/internal/")
		dir, typeField, _ := strings.Cut(rest, ".")
		byPkg[dir] = append(byPkg[dir], typeField)
	}
	for dir, fields := range byPkg {
		docs := fieldDocs(t, filepath.Join("..", dir))
		for _, tf := range fields {
			if !strings.Contains(docs[tf], "ConfigKey") {
				t.Errorf("%s.%s is tagged `key:\"-\"` without a doc comment saying why memctl.ConfigKey may skip it", dir, tf)
			}
		}
	}
}

// fieldDocs maps "Type.Field" to the field's doc comment for every
// struct type declared in the package directory dir.
func fieldDocs(t *testing.T, dir string) map[string]string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						out[ts.Name.Name+"."+name.Name] = fld.Doc.Text()
					}
				}
				return true
			})
		}
	}
	return out
}
