package main

import (
	"testing"
	"time"
)

func TestGuardRefusesSecondTiming(t *testing.T) {
	var g onceGuard
	if err := g.claim("suite-quick"); err != nil {
		t.Fatalf("first claim: %v", err)
	}
	if err := g.claim("mix1-hotloop"); err != nil {
		t.Fatalf("another workload: %v", err)
	}
	if err := g.claim("suite-quick"); err == nil {
		t.Fatal("second claim of the same workload succeeded")
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	cases := []struct {
		name string
		kids [][2]int64
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", [][2]int64{{10, 20}, {30, 40}}, 20},
		{"overlapping", [][2]int64{{10, 30}, {20, 40}}, 30},
		{"nested", [][2]int64{{10, 50}, {20, 30}}, 40},
		{"unsorted and touching", [][2]int64{{40, 60}, {10, 40}}, 50},
		{"clipped to parent", [][2]int64{{-10, 10}, {90, 120}}, 20},
	}
	for _, c := range cases {
		if got := covered(0, 100, c.kids); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(1, 4)
	parent, child := tr.kind("parent"), tr.kind("child")
	tr.request()
	tr.begin(parent)
	for i := 0; i < 2; i++ {
		tr.begin(child)
		time.Sleep(2 * time.Millisecond)
		tr.end()
	}
	tr.end()
	tr.flushTree()
	p, c := tr.stats("parent"), tr.stats("child")
	if p.count != 1 || c.count != 2 {
		t.Fatalf("counts: parent %d child %d", p.count, c.count)
	}
	if p.self != p.total-c.total {
		t.Errorf("parent self %d != total %d - children %d", p.self, p.total, c.total)
	}
	if c.self != c.total {
		t.Errorf("leaf self %d != total %d", c.self, c.total)
	}
	if len(tr.trees) != 1 || len(tr.trees[0]) != 3 {
		t.Fatalf("trees = %v, want one tree of three spans", tr.trees)
	}
	for i, s := range tr.trees[0] {
		wantParent := -1
		if i > 0 {
			wantParent = 0
		}
		if s.Parent != wantParent || s.End < s.Start || s.Req != 1 {
			t.Errorf("span %d = %+v", i, s)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{{576, 98}, {10000, 99.9}, {1000, 99}, {100, 90}, {20, 50}, {19, 100}, {2, 100}}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	values := make([]float64, 576)
	for i := range values {
		values[i] = float64(i + 1)
	}
	d := summarize(values)
	if d.N != 576 || d.TailPct != 98 || d.P50 != 288 || d.Tail != 565 || d.Max != 576 {
		t.Errorf("summarize = %+v", d)
	}
	if beyond := d.N - int(d.Tail); beyond < 10 {
		t.Errorf("only %d samples beyond the tail", beyond)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestMeterCPUDelta(t *testing.T) {
	m := startMeter()
	deadline := time.Now().Add(50 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	s := m.stop()
	if s.CPU < 25*time.Millisecond || s.CPU > s.Wall+10*time.Millisecond {
		t.Errorf("busy 50ms: cpu %v wall %v (x=%d)", s.CPU, s.Wall, x)
	}
	m = startMeter()
	time.Sleep(50 * time.Millisecond)
	if s := m.stop(); s.CPU > 25*time.Millisecond {
		t.Errorf("sleeping 50ms burned cpu %v", s.CPU)
	}
}

func TestDistinctBenchesHeaviestFirst(t *testing.T) {
	j, err := newJob("fleet-tiering", 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.profs) != 2 || j.profs[0].Name == j.profs[1].Name {
		t.Fatalf("probe profiles = %v", j.profs)
	}
}
