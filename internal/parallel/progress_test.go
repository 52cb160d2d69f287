package parallel

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// recorder is a concurrency-safe Progress sink for tests.
type recorder struct {
	mu     sync.Mutex
	starts []string
	ends   []string
	cells  []int
	walls  []time.Duration
}

func (r *recorder) GridStart(label string, cells int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts = append(r.starts, label)
}

func (r *recorder) GridCell(label string, index int, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells = append(r.cells, index)
	r.walls = append(r.walls, wall)
}

func (r *recorder) GridEnd(label string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, label)
}

// The MapProgress/MapErrProgress tests below keep the names of the
// entry points they first pinned; the behaviour now runs on
// MapResilient with a zero policy, the one engine behind every grid.

func TestMapProgressReportsEveryCellOnce(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		rec := &recorder{}
		out, _, err := MapResilient(Run{Jobs: jobs, Progress: rec, Label: "g"}, 10,
			func(_ context.Context, i, _ int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d", jobs, i, v)
			}
		}
		if !reflect.DeepEqual(rec.starts, []string{"g"}) || !reflect.DeepEqual(rec.ends, []string{"g"}) {
			t.Fatalf("jobs=%d: starts %v ends %v", jobs, rec.starts, rec.ends)
		}
		sort.Ints(rec.cells)
		want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		if !reflect.DeepEqual(rec.cells, want) {
			t.Fatalf("jobs=%d: cells %v", jobs, rec.cells)
		}
		for _, w := range rec.walls {
			if w < 0 {
				t.Fatalf("negative wall time %v", w)
			}
		}
	}
}

func TestMapProgressResultsMatchMap(t *testing.T) {
	fn := func(i int) int { return i*7 + 1 }
	plain := Map(3, 20, fn)
	tracked, _, err := MapResilient(Run{Jobs: 3, Progress: &recorder{}, Label: "g"}, 20,
		func(_ context.Context, i, _ int) (int, error) { return fn(i), nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, tracked) {
		t.Fatal("progress sink changed results")
	}
}

func TestMapErrProgress(t *testing.T) {
	rec := &recorder{}
	_, _, err := MapResilient(Run{Jobs: 2, Progress: rec, Label: "e"}, 5,
		func(_ context.Context, i, _ int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.cells) != 5 {
		t.Fatalf("reported %d cells", len(rec.cells))
	}
}

func TestMapProgressNilSink(t *testing.T) {
	out, _, err := MapResilient(Run{Jobs: 2}, 3,
		func(_ context.Context, i, _ int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int{0, 1, 2}) {
		t.Fatalf("out = %v", out)
	}
}

// TestProgressGridEndFiresOnPanic: a failing cell — panicking or
// returning an error — still closes the grid with GridEnd, and reports
// its own GridCell like any finished cell.
func TestProgressGridEndFiresOnPanic(t *testing.T) {
	for _, panics := range []bool{true, false} {
		rec := &recorder{}
		_, _, err := MapResilient(Run{Jobs: 2, Progress: rec, Label: "p"}, 4,
			func(_ context.Context, i, _ int) (int, error) {
				if i == 2 {
					if panics {
						panic("boom")
					}
					return 0, errors.New("boom")
				}
				return i, nil
			})
		var pe *PanicError
		if err == nil || errors.As(err, &pe) != panics {
			t.Fatalf("panics=%v: err = %v", panics, err)
		}
		if !reflect.DeepEqual(rec.ends, []string{"p"}) {
			t.Fatalf("panics=%v: GridEnd not reported on failure: %v", panics, rec.ends)
		}
		reported := false
		for _, c := range rec.cells {
			reported = reported || c == 2
		}
		if !reported {
			t.Fatalf("panics=%v: failing cell reported no GridCell: %v", panics, rec.cells)
		}
	}
}
