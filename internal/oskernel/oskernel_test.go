package oskernel

import (
	"container/list"
	"testing"

	"compresso/internal/rng"
)

func TestPagerBasics(t *testing.T) {
	p := NewPager(2 * 4096) // 2 pages
	if !p.Touch(1) {
		t.Fatal("cold touch did not fault")
	}
	if p.Touch(1) {
		t.Fatal("hot touch faulted")
	}
	p.Touch(2)
	p.Touch(3) // evicts LRU (1)
	if p.Resident() != 2 {
		t.Fatalf("resident %d", p.Resident())
	}
	if !p.Touch(1) {
		t.Fatal("evicted page did not fault")
	}
	if p.Faults() != 4 || p.Touches() != 5 {
		t.Fatalf("faults %d touches %d", p.Faults(), p.Touches())
	}
}

func TestPagerLRUOrder(t *testing.T) {
	p := NewPager(2 * 4096)
	p.Touch(1)
	p.Touch(2)
	p.Touch(1) // 2 becomes LRU
	p.Touch(3) // evicts 2
	if p.Touch(1) {
		t.Fatal("MRU page evicted")
	}
	if !p.Touch(2) {
		t.Fatal("LRU page survived")
	}
}

func TestPagerUnconstrained(t *testing.T) {
	p := NewPager(-1)
	for i := uint64(0); i < 10000; i++ {
		p.Touch(i)
	}
	if p.Faults() != 10000 || p.Resident() != 10000 {
		t.Fatalf("faults %d resident %d", p.Faults(), p.Resident())
	}
	// Re-touching never faults: nothing is ever evicted.
	for i := uint64(0); i < 10000; i++ {
		if p.Touch(i) {
			t.Fatal("unconstrained pager evicted")
		}
	}
}

func TestPagerSetBudgetShrinks(t *testing.T) {
	p := NewPager(10 * 4096)
	for i := uint64(0); i < 10; i++ {
		p.Touch(i)
	}
	p.SetBudget(3 * 4096)
	if p.Resident() != 3 {
		t.Fatalf("resident %d after shrink", p.Resident())
	}
	if p.Budget() != 3*4096 {
		t.Fatalf("budget %d", p.Budget())
	}
}

func TestPagerFaultRateDropsWithBudget(t *testing.T) {
	run := func(pages int64) float64 {
		p := NewPager(pages * 4096)
		r := rng.New(1)
		z := rng.NewZipf(r, 100, 0.8)
		for i := 0; i < 50000; i++ {
			p.Touch(uint64(z.Next()))
		}
		return p.FaultRate()
	}
	small := run(10)
	big := run(60)
	if big >= small {
		t.Fatalf("fault rate %v at 60 pages >= %v at 10 pages", big, small)
	}
	if small == 0 {
		t.Fatal("no faults under a tight budget")
	}
}

// fakeCtl implements Discarder.
type fakeCtl struct {
	free      int
	discarded []uint64
}

func (f *fakeCtl) Discard(page uint64) {
	f.discarded = append(f.discarded, page)
	f.free += 2 // each page frees two chunks
}
func (f *fakeCtl) FreeMachineChunks() int { return f.free }

func TestBalloonReclaimsColdest(t *testing.T) {
	ctl := &fakeCtl{}
	b := NewBalloon(ctl, 4)
	for i := uint64(0); i < 10; i++ {
		b.Note(i)
	}
	b.Note(0) // page 0 is hot again; page 1 is now coldest
	if !b.OnPressure(1) {
		t.Fatal("pressure freed nothing")
	}
	if ctl.free < 4 {
		t.Fatalf("free %d below watermark", ctl.free)
	}
	if len(ctl.discarded) == 0 || ctl.discarded[0] != 1 {
		t.Fatalf("discarded %v, want coldest (1) first", ctl.discarded)
	}
	for _, d := range ctl.discarded {
		if d == 0 {
			t.Fatal("balloon reclaimed the hottest page")
		}
	}
	if b.Reclaimed() != uint64(len(ctl.discarded)) {
		t.Fatal("reclaim count mismatch")
	}
	if b.ReclaimCost() == 0 {
		t.Fatal("no reclaim cost modeled")
	}
}

func TestBalloonNothingToFree(t *testing.T) {
	ctl := &fakeCtl{}
	b := NewBalloon(ctl, 4)
	if b.OnPressure(1) {
		t.Fatal("empty balloon claimed success")
	}
	if b.PressureEvents() != 1 {
		t.Fatal("pressure not counted")
	}
}

func TestBalloonForget(t *testing.T) {
	ctl := &fakeCtl{}
	b := NewBalloon(ctl, 100)
	b.Note(1)
	b.Note(2)
	b.Forget(1)
	b.OnPressure(1)
	for _, d := range ctl.discarded {
		if d == 1 {
			t.Fatal("forgotten page reclaimed")
		}
	}
}

// refLRU is the container/list LRU the index-linked one replaced, kept
// as the reference model: front is most recently used.
type refLRU struct {
	l  *list.List
	el map[uint64]*list.Element
}

func newRefLRU() *refLRU { return &refLRU{l: list.New(), el: map[uint64]*list.Element{}} }

func (r *refLRU) touch(page uint64) bool {
	if e, ok := r.el[page]; ok {
		r.l.MoveToFront(e)
		return true
	}
	r.el[page] = r.l.PushFront(page)
	return false
}

func (r *refLRU) remove(page uint64) {
	if e, ok := r.el[page]; ok {
		r.l.Remove(e)
		delete(r.el, page)
	}
}

func (r *refLRU) popBack() uint64 {
	page := r.l.Remove(r.l.Back()).(uint64)
	delete(r.el, page)
	return page
}

// order lists the reference's pages from least to most recently used.
func (r *refLRU) order() []uint64 {
	var out []uint64
	for e := r.l.Back(); e != nil; e = e.Prev() {
		out = append(out, e.Value.(uint64))
	}
	return out
}

// order lists the LRU's pages from least to most recently used.
func (l *lru) order() []uint64 {
	var out []uint64
	for p := l.tail; p != nilPage; p = l.prev[p] {
		out = append(out, uint64(p))
	}
	return out
}

func sameOrder(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPagerMatchesListReference drives the pager and a container/list
// reference pager through random touches, with the budget shrinking,
// growing and going unconstrained along the way, and compares every
// fault verdict, the fault and resident counts, and the full LRU
// order.
func TestPagerMatchesListReference(t *testing.T) {
	r := rng.New(5)
	for _, span := range []int{8, 300, 5000} {
		p := NewPager(int64(span/4) * 4096)
		ref, refBudget := newRefLRU(), int64(span/4)*4096
		var refFaults uint64
		refEvict := func() {
			for refBudget >= 0 && int64(ref.l.Len())*4096 > refBudget {
				ref.popBack()
			}
		}
		z := rng.NewZipf(r, span, 0.7)
		for i := 0; i < 40000; i++ {
			if i%997 == 0 {
				budget := int64(r.Intn(span+1)) * 4096
				if r.Intn(8) == 0 {
					budget = -1
				}
				p.SetBudget(budget)
				refBudget = budget
				refEvict()
			}
			page := uint64(z.Next())
			if r.Intn(4) == 0 {
				page = uint64(r.Intn(span))
			}
			hit := ref.touch(page)
			if !hit {
				refFaults++
				refEvict()
			}
			if faulted := p.Touch(page); faulted == hit {
				t.Fatalf("span %d op %d page %d: pager faulted=%v, reference hit=%v", span, i, page, faulted, hit)
			}
			if p.Faults() != refFaults || p.Resident() != ref.l.Len() {
				t.Fatalf("span %d op %d: faults %d resident %d, reference %d and %d",
					span, i, p.Faults(), p.Resident(), refFaults, ref.l.Len())
			}
		}
		if !sameOrder(p.lru.order(), ref.order()) {
			t.Fatalf("span %d: LRU order diverged from the reference", span)
		}
	}
}

// TestBalloonMatchesListReference drives the balloon and a
// container/list reference through random notes, forgets and pressure
// events, comparing the discard sequence and reclaim count.
func TestBalloonMatchesListReference(t *testing.T) {
	r := rng.New(9)
	ctl := &fakeCtl{}
	b := NewBalloon(ctl, 6)
	ref := newRefLRU()
	var refDiscarded []uint64
	refFree := 0
	for i := 0; i < 20000; i++ {
		page := uint64(r.Intn(700))
		switch op := r.Intn(10); {
		case op < 7:
			b.Note(page)
			ref.touch(page)
		case op < 9:
			b.Forget(page)
			ref.remove(page)
		default:
			ctl.free = r.Intn(4)
			refFree = ctl.free
			need := 1 + r.Intn(10)
			freed := b.OnPressure(need)
			target, refFreed := max(6, need), false
			for refFree < target && ref.l.Len() > 0 {
				refDiscarded = append(refDiscarded, ref.popBack())
				refFree += 2
				refFreed = true
			}
			if freed != refFreed {
				t.Fatalf("op %d: OnPressure freed=%v, reference %v", i, freed, refFreed)
			}
		}
	}
	if !sameOrder(ctl.discarded, refDiscarded) || b.Reclaimed() != uint64(len(refDiscarded)) {
		t.Fatalf("balloon reclaimed %d pages, reference %d (or in another order)", b.Reclaimed(), len(refDiscarded))
	}
	if len(refDiscarded) == 0 {
		t.Fatal("no pressure event reclaimed anything")
	}
	if !sameOrder(b.lru.order(), ref.order()) {
		t.Fatal("balloon LRU order diverged from the reference")
	}
}

// BenchmarkPagerTouch times one pager touch on a zipf stream over 4096
// pages with a quarter of them resident: hits reorder, misses evict.
func BenchmarkPagerTouch(b *testing.B) {
	const pages = 4096
	z := rng.NewZipf(rng.New(1), pages, 0.8)
	stream := make([]uint64, 1<<16)
	for i := range stream {
		stream[i] = uint64(z.Next())
	}
	p := NewPager(pages / 4 * 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Touch(stream[i&(len(stream)-1)])
	}
}
