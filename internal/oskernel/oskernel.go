// Package oskernel models the two operating-system behaviours the
// paper's evaluation depends on, without making the OS
// compression-aware:
//
//   - Pager: page-granular LRU paging under a byte budget — the
//     mechanism behind the memory-capacity impact evaluation (§VI-A's
//     cgroups-constrained runs). Every page touch either hits the
//     resident set or faults and evicts the LRU page.
//   - Balloon: the §V-B ballooning driver. When the hardware runs out
//     of machine memory, the Compresso driver inflates, the guest OS
//     surrenders its coldest pages, and the hardware marks them
//     invalid — keeping the OS fully compression-unaware.
package oskernel

import (
	"fmt"
	"math"

	"compresso/internal/memctl"
)

// nilPage terminates the LRU's index links.
const nilPage = -1

// lru is a least-recently-used order over dense page ids: a doubly
// linked list threaded through two index arrays plus a membership
// bitmap, all grown on demand, so a touch allocates nothing once the
// arrays cover the pages in use. Both the pager and the balloon keep
// their page temperature in one.
type lru struct {
	prev, next []int32  // each member's neighbours, nilPage at the ends
	in         []uint64 // membership bitmap
	head, tail int32    // most and least recently used, nilPage when empty
	n          int
}

func newLRU() lru { return lru{head: nilPage, tail: nilPage} }

func (l *lru) has(page uint64) bool {
	return page < uint64(len(l.prev)) && l.in[page/64]&(1<<(page%64)) != 0
}

// touch makes page the most recently used, adding it when absent, and
// reports whether it was already present.
func (l *lru) touch(page uint64) bool {
	if l.has(page) {
		if p := int32(page); p != l.head {
			l.unlink(p)
			l.pushFront(p)
		}
		return true
	}
	l.grow(page)
	l.in[page/64] |= 1 << (page % 64)
	l.pushFront(int32(page))
	l.n++
	return false
}

// remove drops page if present.
func (l *lru) remove(page uint64) {
	if !l.has(page) {
		return
	}
	l.unlink(int32(page))
	l.in[page/64] &^= 1 << (page % 64)
	l.n--
}

// back returns the least recently used page.
func (l *lru) back() (uint64, bool) {
	if l.tail == nilPage {
		return 0, false
	}
	return uint64(l.tail), true
}

func (l *lru) unlink(p int32) {
	prev, next := l.prev[p], l.next[p]
	if prev != nilPage {
		l.next[prev] = next
	} else {
		l.head = next
	}
	if next != nilPage {
		l.prev[next] = prev
	} else {
		l.tail = prev
	}
}

func (l *lru) pushFront(p int32) {
	l.prev[p], l.next[p] = nilPage, l.head
	if l.head != nilPage {
		l.prev[l.head] = p
	} else {
		l.tail = p
	}
	l.head = p
}

// grow extends the arrays to cover page, doubling to amortize.
func (l *lru) grow(page uint64) {
	if page < uint64(len(l.prev)) {
		return
	}
	if page >= math.MaxInt32 {
		panic(fmt.Sprintf("oskernel: page id %d beyond the LRU's int32 range", page))
	}
	n := int(min(max(2*uint64(len(l.prev)), page+1, 64), math.MaxInt32))
	l.prev = append(l.prev, make([]int32, n-len(l.prev))...)
	l.next = append(l.next, make([]int32, n-len(l.next))...)
	l.in = append(l.in, make([]uint64, (n+63)/64-len(l.in))...)
}

// Pager is an LRU paging model over 4 KB pages with a byte budget.
type Pager struct {
	budget int64 // bytes; <0 means unconstrained
	lru    lru

	touches uint64
	faults  uint64
}

// NewPager creates a pager with the given budget in bytes
// (negative = unconstrained).
func NewPager(budgetBytes int64) *Pager {
	return &Pager{budget: budgetBytes, lru: newLRU()}
}

// SetBudget changes the budget (the paper's dynamic cgroups
// adjustment); shrinking evicts immediately.
func (p *Pager) SetBudget(bytes int64) {
	p.budget = bytes
	p.evictToBudget()
}

// Budget returns the current budget.
func (p *Pager) Budget() int64 { return p.budget }

func (p *Pager) evictToBudget() {
	if p.budget < 0 {
		return
	}
	for int64(p.lru.n)*memctl.PageSize > p.budget {
		page, _ := p.lru.back() // the LRU is not empty: n > budget/PageSize >= 0
		p.lru.remove(page)
	}
}

// Touch records an access to page, returning whether it faulted
// (was not resident).
func (p *Pager) Touch(page uint64) bool {
	p.touches++
	if p.lru.touch(page) {
		return false
	}
	p.faults++
	p.evictToBudget()
	return true
}

// Faults returns the fault count.
func (p *Pager) Faults() uint64 { return p.faults }

// Touches returns the touch count.
func (p *Pager) Touches() uint64 { return p.touches }

// Resident returns the resident page count.
func (p *Pager) Resident() int { return p.lru.n }

// FaultRate returns faults per touch.
func (p *Pager) FaultRate() float64 {
	if p.touches == 0 {
		return 0
	}
	return float64(p.faults) / float64(p.touches)
}

// Discarder is the controller-side hook a balloon reclaims through
// (implemented by both the Compresso and LCP controllers).
type Discarder interface {
	Discard(page uint64)
	FreeMachineChunks() int
}

// Balloon is the §V-B driver model: it tracks page temperature via the
// same LRU the pager uses and, on memory pressure, "inflates" by
// claiming the coldest OSPA pages from the guest OS and telling the
// hardware to invalidate them. Liu et al.'s measurement (cited in the
// paper) puts reclaim throughput around 1 GB / 500 ms; ReclaimCycles
// charges that cost per reclaimed page at 3 GHz.
type Balloon struct {
	ctl Discarder
	lru lru

	// WatermarkChunks is the free-chunk level the balloon restores on
	// each pressure event.
	WatermarkChunks int

	// ReclaimCyclesPerPage is the modeled cost of reclaiming one page
	// (default: 500 ms/GB at 3 GHz ≈ 5,700 cycles per 4 KB page).
	ReclaimCyclesPerPage uint64

	reclaimed    uint64
	reclaimCost  uint64
	pressureHits uint64
}

// NewBalloon builds a balloon driver over ctl.
func NewBalloon(ctl Discarder, watermarkChunks int) *Balloon {
	return &Balloon{
		ctl:                  ctl,
		lru:                  newLRU(),
		WatermarkChunks:      watermarkChunks,
		ReclaimCyclesPerPage: 5700,
	}
}

// Note records that the guest touched an OSPA page (temperature
// tracking). Call it from the access path or a coarse sample of it.
func (b *Balloon) Note(page uint64) { b.lru.touch(page) }

// Forget drops a page from temperature tracking (it was discarded by
// someone else).
func (b *Balloon) Forget(page uint64) { b.lru.remove(page) }

// OnPressure is the memctl pressure callback: it reclaims cold pages
// until the free watermark is restored. It reports whether any memory
// was freed.
func (b *Balloon) OnPressure(needChunks int) bool {
	b.pressureHits++
	freedAny := false
	target := b.WatermarkChunks
	if needChunks > target {
		target = needChunks
	}
	for b.ctl.FreeMachineChunks() < target {
		page, ok := b.lru.back()
		if !ok {
			break
		}
		b.lru.remove(page)
		b.ctl.Discard(page)
		b.reclaimed++
		b.reclaimCost += b.ReclaimCyclesPerPage
		freedAny = true
	}
	return freedAny
}

// Reclaimed returns the number of pages ballooned away.
func (b *Balloon) Reclaimed() uint64 { return b.reclaimed }

// ReclaimCost returns the cumulative modeled reclaim cost in cycles.
func (b *Balloon) ReclaimCost() uint64 { return b.reclaimCost }

// PressureEvents returns how often the hardware signalled pressure.
func (b *Balloon) PressureEvents() uint64 { return b.pressureHits }
