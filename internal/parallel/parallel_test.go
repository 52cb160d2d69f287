package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3, 100) = %d", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8, 3) = %d, want 3", got)
	}
	if got := Workers(2, 100); got != 2 {
		t.Fatalf("Workers(2, 100) = %d, want 2", got)
	}
	if got := Workers(8, 0); got != 1 {
		t.Fatalf("Workers(8, 0) = %d, want 1", got)
	}
}

func TestMapOrdered(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 0} {
		got := Map(jobs, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: index %d = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got := Map(4, 0, func(i int) int { t.Fatal("cell ran"); return 0 })
	if len(got) != 0 {
		t.Fatalf("len %d", len(got))
	}
}

func TestMapRunsEveryCellOnce(t *testing.T) {
	var counts [257]atomic.Int32
	Map(7, len(counts), func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
}

// The experiment grids run on MapResilient; with a zero Run it must
// keep a serial loop's contract: results by index, every cell once,
// the lowest-index error, partial results beside it.

func TestResilientZeroRunOrdered(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 0} {
		got, fails, err := MapResilient(Run{Jobs: jobs}, 100, func(_ context.Context, i, _ int) (int, error) {
			return i * i, nil
		})
		if err != nil || fails != nil {
			t.Fatalf("jobs=%d: err=%v fails=%v", jobs, err, fails)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: index %d = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestResilientRunsEveryCellOnce(t *testing.T) {
	var counts [257]atomic.Int32
	var attempts atomic.Int32
	MapResilient(Run{Jobs: 7}, len(counts), func(_ context.Context, i, attempt int) (struct{}, error) {
		counts[i].Add(1)
		attempts.Add(int32(attempt))
		return struct{}{}, nil
	})
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
	if got := attempts.Load(); got != int32(len(counts)) {
		t.Fatalf("attempt numbers sum to %d, want every cell on attempt 1", got)
	}
}

func TestResilientLowestIndexErrorWins(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		_, _, err := MapResilient(Run{Jobs: jobs}, 50, func(_ context.Context, i, _ int) (int, error) {
			if i%2 == 1 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 1 failed" {
			t.Fatalf("jobs=%d: err = %v, want cell 1 failed", jobs, err)
		}
	}
}

func TestResilientPartialResults(t *testing.T) {
	boom := errors.New("boom")
	got, _, err := MapResilient(Run{Jobs: 4}, 4, func(_ context.Context, i, _ int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i * 10, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// All non-failing cells still ran and landed at their index.
	want := []int{0, 10, 0, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partial results %v, want %v", got, want)
	}
}

// TestResilientZeroPolicyMatchesSerialLoop is the agreement test for
// the one engine: with a zero policy, with or without a progress sink,
// at any worker count, MapResilient returns exactly what a plain
// serial loop over the cells returns — values and first error alike.
func TestResilientZeroPolicyMatchesSerialLoop(t *testing.T) {
	fn := func(i int) (int, error) {
		if i%13 == 12 {
			return -i, fmt.Errorf("cell %d failed", i)
		}
		return i*7 + 1, nil
	}
	const n = 40
	want := make([]int, n)
	var wantErr error
	for i := range want {
		v, err := fn(i)
		if err != nil {
			v = 0 // a failed cell keeps its zero value
			if wantErr == nil {
				wantErr = err
			}
		}
		want[i] = v
	}
	for _, jobs := range []int{1, 3, 8} {
		for _, p := range []Progress{nil, &recorder{}} {
			got, fails, err := MapResilient(Run{Jobs: jobs, Progress: p, Label: "g"}, n,
				func(_ context.Context, i, _ int) (int, error) { return fn(i) })
			if !reflect.DeepEqual(got, want) || fails != nil {
				t.Fatalf("jobs=%d progress=%v: got %v fails %v, want %v", jobs, p != nil, got, fails, want)
			}
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("jobs=%d progress=%v: err %v, want %v", jobs, p != nil, err, wantErr)
			}
		}
	}
}

func TestMapPanicPropagatesLowestIndex(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("jobs=%d: no panic", jobs)
				}
				if msg, ok := r.(string); !ok || msg != "cell 3 blew up" {
					t.Fatalf("jobs=%d: recovered %v, want lowest-index panic", jobs, r)
				}
			}()
			Map(jobs, 20, func(i int) int {
				if i == 3 || i == 17 {
					panic(fmt.Sprintf("cell %d blew up", i))
				}
				return i
			})
		}()
	}
}
