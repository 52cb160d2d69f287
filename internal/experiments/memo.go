package experiments

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"compresso/internal/capacity"
	"compresso/internal/memctl"
	"compresso/internal/sim"
	"compresso/internal/workload"
)

// The run memo serves every experiment's cycle runs (sim.RunSingle,
// sim.RunMix) and capacity sweeps (capacity.Sweep): one computation
// per distinct input per process, however many figures, tables and
// ablations ask for it (DESIGN.md §7).
//
//   - The key is memctl.ConfigKey over the whole input: the profiles,
//     the sim.Config or capacity.Config, and for a cycle run the
//     backend config its mod produces (sim.BackendConfig) instead of
//     the mod func. Two ablations whose mods build one controller
//     config share one run. Entries hold the key's SHA-256, not the
//     kilobyte-long encoding.
//   - Runs that observe (TraceEvents, SampleEvery, OnSample,
//     Attribution) bypass the memo: their output is the observation.
//   - The first caller of a key computes it; concurrent callers wait
//     for it. A run that panics or is canceled leaves no entry, and
//     its waiters compute the key themselves.
//   - The memo keeps a private deep copy of each result and hands out
//     deep copies, so no caller can change what another receives.
//   - Past runMemoCap entries, new keys run unmemoized.
//
// Every input is deterministic, so a served result is bit for bit what
// the caller would have computed itself.
var runMemo struct {
	mu       sync.Mutex
	m        map[[sha256.Size]byte]*runEntry
	hits     atomic.Int64
	misses   atomic.Int64
	bypassed atomic.Int64
}

// runMemoCap bounds the memo's entries. The quick suite fills about
// 520, the full suite as many.
const runMemoCap = 4096

// runEntry is one key's result. done closes when the computing run
// returns or fails; val is set, to a private deep copy, only if it
// returned.
type runEntry struct {
	done chan struct{}
	val  any
}

// RunMemo reports the process-wide run memo.
type RunMemo struct {
	Entries  int   // keys holding (or computing) a result
	Hits     int64 // calls served a stored result
	Misses   int64 // calls that computed their key's entry
	Bypassed int64 // calls that ran unmemoized: observing, or past the cap
}

// String renders the counts for a run's summary line.
func (m RunMemo) String() string {
	return fmt.Sprintf("%d entries, %d hits, %d misses, %d bypassed", m.Entries, m.Hits, m.Misses, m.Bypassed)
}

// RunMemoStats snapshots the run memo's size and its hit, miss and
// bypass counts.
func RunMemoStats() RunMemo {
	runMemo.mu.Lock()
	defer runMemo.mu.Unlock()
	return RunMemo{
		Entries:  len(runMemo.m),
		Hits:     runMemo.hits.Load(),
		Misses:   runMemo.misses.Load(),
		Bypassed: runMemo.bypassed.Load(),
	}
}

// resetMemos drops every run memo entry, so the next call of each key
// recomputes (the determinism tests render twice from scratch).
func resetMemos() {
	runMemo.mu.Lock()
	runMemo.m = nil
	runMemo.mu.Unlock()
}

// memoized returns run's result for key, computing it at most once
// per entry.
func memoized[T any](encoded string, run func() T) T {
	key := sha256.Sum256([]byte(encoded))
	for {
		runMemo.mu.Lock()
		if e, ok := runMemo.m[key]; ok {
			runMemo.mu.Unlock()
			<-e.done
			if e.val != nil {
				runMemo.hits.Add(1)
				return deepCopy(e.val.(T))
			}
			continue // the computing run failed: compute it here
		}
		if len(runMemo.m) >= runMemoCap {
			runMemo.mu.Unlock()
			runMemo.bypassed.Add(1)
			return run()
		}
		if runMemo.m == nil {
			runMemo.m = make(map[[sha256.Size]byte]*runEntry)
		}
		e := &runEntry{done: make(chan struct{})}
		runMemo.m[key] = e
		runMemo.mu.Unlock()
		runMemo.misses.Add(1)
		return fill(key, e, run)
	}
}

// fill computes e's result. If run panics (a canceled sim run unwinds
// that way), the entry is removed before its waiters wake, and the
// panic goes on to the caller.
func fill[T any](key [sha256.Size]byte, e *runEntry, run func() T) T {
	defer func() {
		if e.val == nil {
			runMemo.mu.Lock()
			if runMemo.m[key] == e {
				delete(runMemo.m, key)
			}
			runMemo.mu.Unlock()
		}
		close(e.done)
	}()
	v := run()
	e.val = deepCopy(v)
	return v
}

// observes reports whether a run's output includes an observation the
// memo does not keep.
func observes(cfg sim.Config) bool {
	return cfg.TraceEvents > 0 || cfg.SampleEvery > 0 || cfg.OnSample != nil || cfg.Attribution
}

// runSingle is sim.RunSingle through the run memo.
func runSingle(prof workload.Profile, cfg sim.Config) sim.Result {
	run := func() sim.Result { return sim.RunSingle(prof, cfg) }
	profs := []workload.Profile{prof}
	if observes(cfg) {
		runMemo.bypassed.Add(1)
		return run()
	}
	return memoized(memctl.ConfigKey("single", profs, cfg, sim.BackendConfig(profs, cfg)), run)
}

// runMix is sim.RunMix through the run memo.
func runMix(mixName string, profs []workload.Profile, cfg sim.Config) sim.MultiResult {
	run := func() sim.MultiResult { return sim.RunMix(mixName, profs, cfg) }
	if observes(cfg) {
		runMemo.bypassed.Add(1)
		return run()
	}
	return memoized(memctl.ConfigKey("mix", mixName, profs, cfg, sim.BackendConfig(profs, cfg)), run)
}

// capacitySweep is capacity.Sweep through the run memo. Outcome i is
// the evaluation at fracs[i] whatever else the list holds, so a
// caller that wants one fraction of another sweep's list reads its
// entry instead of profiling the same trace again.
func capacitySweep(profs []workload.Profile, cfg capacity.Config, fracs []float64) []capacity.Outcome {
	return memoized(memctl.ConfigKey("capacity", profs, cfg, fracs), func() []capacity.Outcome {
		return capacity.Sweep(profs, cfg, fracs)
	})
}

// deepCopy returns v with every slice, map, pointer and interface it
// reaches copied, so the copy shares no memory with v.
func deepCopy[T any](v T) T {
	c := v
	detach(reflect.ValueOf(&c).Elem())
	return c
}

// detach replaces every reference v holds with a copy; v is settable.
func detach(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.IsNil() {
			return
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(c, v)
		if holdsRefs(v.Type().Elem()) {
			for i := 0; i < c.Len(); i++ {
				detach(c.Index(i))
			}
		}
		v.Set(c)
	case reflect.Map:
		if v.IsNil() {
			return
		}
		c := reflect.MakeMapWithSize(v.Type(), v.Len())
		for it := v.MapRange(); it.Next(); {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(it.Value())
			detach(e)
			c.SetMapIndex(it.Key(), e)
		}
		v.Set(c)
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return
		}
		e := reflect.New(v.Elem().Type()).Elem()
		e.Set(v.Elem())
		detach(e)
		if v.Kind() == reflect.Pointer {
			v.Set(e.Addr())
		} else {
			v.Set(e)
		}
	case reflect.Array:
		if holdsRefs(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				detach(v.Index(i))
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() {
				if holdsRefs(f.Type()) {
					panic(fmt.Sprintf("experiments: cannot deep-copy unexported field %s.%s",
						v.Type(), v.Type().Field(i).Name))
				}
				continue
			}
			detach(f)
		}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if !v.IsNil() {
			panic(fmt.Sprintf("experiments: cannot deep-copy a %s", v.Type()))
		}
	}
}

// holdsRefs reports whether values of t can reach shared memory.
func holdsRefs(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface,
		reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return holdsRefs(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsRefs(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
