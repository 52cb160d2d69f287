package main

import (
	"math"
	"sort"
	"time"
)

// Span is one recorded interval at a layer boundary. Spans of one
// request (a demand op or a grid cell) share Req; Parent indexes the
// enclosing span within the same request's tree (-1 for a root).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// spanKind indexes a tracer's per-name aggregates.
type spanKind int

// maxDurations bounds the durations kept per span name; beyond it the
// tracer keeps every 2^k-th duration (deterministic decimation).
const maxDurations = 1 << 19

// kindStats aggregates every span of one name.
type kindStats struct {
	name   string
	count  uint64
	total  int64 // ns
	self   int64 // ns: duration minus the union of child intervals
	durs   []float64
	stride uint64
}

func (k *kindStats) observe(dur int64) {
	k.count++
	k.total += dur
	if (k.count-1)%k.stride != 0 {
		return
	}
	if len(k.durs) == maxDurations {
		kept := k.durs[:0]
		for i := 0; i < len(k.durs); i += 2 {
			kept = append(kept, k.durs[i])
		}
		k.durs = kept
		k.stride *= 2
		if (k.count-1)%k.stride != 0 {
			return
		}
	}
	k.durs = append(k.durs, float64(dur))
}

// openSpan is a span begun and not yet ended.
type openSpan struct {
	kind  spanKind
	start int64
	node  int // index in the sampled tree, -1 when not sampled
	kids  [][2]int64
}

// tracer records synchronously nested spans, aggregates them in memory
// per name (duration distribution, total and self time) and keeps a
// bounded sample of complete request trees.
type tracer struct {
	base   time.Time
	kinds  []*kindStats
	byName map[string]spanKind
	stack  []openSpan

	req         uint64
	sampleEvery uint64
	maxTrees    int
	sampling    bool
	tree        []Span
	trees       [][]Span
}

func newTracer(sampleEvery uint64, maxTrees int) *tracer {
	return &tracer{base: time.Now(), byName: map[string]spanKind{},
		sampleEvery: sampleEvery, maxTrees: maxTrees}
}

// kind registers (or resolves) a span name.
func (t *tracer) kind(name string) spanKind {
	if k, ok := t.byName[name]; ok {
		return k
	}
	k := spanKind(len(t.kinds))
	t.kinds = append(t.kinds, &kindStats{name: name, stride: 1})
	t.byName[name] = k
	return k
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// request starts a new request: the previous one's tree, if sampled,
// is complete and kept.
func (t *tracer) request() {
	t.flushTree()
	t.req++
	t.sampling = len(t.trees) < t.maxTrees && t.sampleEvery > 0 && t.req%t.sampleEvery == 0
}

func (t *tracer) flushTree() {
	if t.sampling && len(t.tree) > 0 && len(t.stack) == 0 {
		t.trees = append(t.trees, t.tree)
	}
	t.tree = nil
}

// begin opens a span of kind k nested in the innermost open span.
func (t *tracer) begin(k spanKind) {
	s := openSpan{kind: k, node: -1}
	if t.sampling {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].node
		}
		s.node = len(t.tree)
		t.tree = append(t.tree, Span{Name: t.kinds[k].name, Parent: parent, Req: t.req})
	}
	if n := len(t.stack); n < cap(t.stack) {
		// Reuse the frame's child slice from an earlier span at this depth.
		t.stack = t.stack[:n+1]
		s.kids = t.stack[n].kids[:0]
		t.stack[n] = s
	} else {
		t.stack = append(t.stack, s)
	}
	t.stack[len(t.stack)-1].start = t.now()
}

// end closes the innermost open span.
func (t *tracer) end() {
	end := t.now()
	n := len(t.stack) - 1
	s := &t.stack[n]
	dur := end - s.start
	ks := t.kinds[s.kind]
	ks.observe(dur)
	ks.self += dur - covered(s.start, end, s.kids)
	if s.node >= 0 {
		t.tree[s.node].Start, t.tree[s.node].End = s.start, end
	}
	t.stack = t.stack[:n]
	if n > 0 {
		p := &t.stack[n-1]
		p.kids = append(p.kids, [2]int64{s.start, end})
	}
}

// covered returns how much of [start, end) the union of the child
// intervals covers: overlapping children count once.
func covered(start, end int64, kids [][2]int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), kids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total int64
	cur := [2]int64{math.MinInt64, math.MinInt64}
	for _, iv := range sorted {
		iv[0], iv[1] = max(iv[0], start), min(iv[1], end)
		if iv[1] <= iv[0] {
			continue
		}
		if iv[0] > cur[1] {
			if cur[1] > cur[0] {
				total += cur[1] - cur[0]
			}
			cur = iv
			continue
		}
		cur[1] = max(cur[1], iv[1])
	}
	if cur[1] > cur[0] {
		total += cur[1] - cur[0]
	}
	return total
}

// stats returns the aggregate for name (zero-valued when never seen).
func (t *tracer) stats(name string) *kindStats {
	if k, ok := t.byName[name]; ok {
		return t.kinds[k]
	}
	return &kindStats{name: name, stride: 1}
}

// dist summarizes a sample of values: the median, the highest
// percentile with at least ten samples beyond it, and the maximum.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
	Max     float64
}

// tailLadder lists the percentiles considered for a tail, highest
// first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// tailPercentile returns the highest ladder percentile that leaves at
// least ten of n samples beyond its nearest rank, or 100 (the maximum)
// when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 100
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(len(sorted), p) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func summarize(values []float64) dist {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	d := dist{N: len(sorted), TailPct: tailPercentile(len(sorted))}
	d.P50 = percentile(sorted, 50)
	d.Tail = percentile(sorted, d.TailPct)
	d.Max = percentile(sorted, 100)
	return d
}

// median returns the median of values (the mean of the middle pair
// for an even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
