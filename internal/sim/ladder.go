package sim

import "math/bits"

// This file implements the ladder queue: the engine's event scheduler
// (Engine.events in engine.go). It replaces the binary/4-ary
// heap family with the bucketed-timestamp structure the DES literature
// settled on for O(1) amortized enqueue/dequeue — a near-future timing
// wheel of FIFO buckets keyed by quantized event time, an overflow
// ladder of geometrically coarser rungs that re-bucket lazily on first
// touch, and a sorted "bottom" holding only the active bucket.
//
// Determinism: the scheduler's contract is to pop the exact global
// minimum by the (at, seq) total order, and every (at, seq) key is
// unique (seq is monotone per engine). Any correct
// implementation therefore yields byte-identical runs — bucketing
// cannot reorder anything a heap would not, it only changes how much
// work finding the minimum costs. The lockstep fuzz test in
// ladder_test.go drives this structure and the 4-ary heap oracle
// (heap_test.go) through randomized workloads asserting exactly that.
//
// Quantization: rung-0 buckets span 2^ladShift ns (~1us), chosen to
// match the repository's cost models — AM service and issue costs are
// hundreds of ns, cross-node transfers a few us, so the resident
// working set of an experiment (tens to hundreds of events after the
// PR-4 reserved-seq chaining) spreads over a few dozen rung-0 buckets
// at a handful of events each. Each coarser rung widens the span by
// 2^ladBits; ladRungs rungs reach 2^(ladShift+ladBits*ladRungs) ns
// (~9 virtual years), with an unsorted top list beyond that for
// far-future housekeeping (heartbeat horizons, watchdog sentinels).
const (
	ladShift   = 7 // rung-0 bucket span: 2^7 ns
	ladBits    = 8 // buckets per rung: 2^8
	ladBuckets = 1 << ladBits
	ladMask    = ladBuckets - 1
	ladRungs   = 6
)

// ladRung is one wheel level: ladBuckets FIFO buckets plus an
// occupancy bitmap so find-first-non-empty is a handful of word scans
// instead of a 256-slot walk.
type ladRung struct {
	bucket [ladBuckets][]event
	occ    [ladBuckets / 64]uint64
	count  int
}

// firstFrom returns the absolute index of the first occupied bucket at
// or after absolute index base. All occupied buckets lie in the window
// [base, base+ladBuckets), so the circular bitmap scan is unambiguous.
// The rung must be non-empty.
func (r *ladRung) firstFrom(base uint64) uint64 {
	s := int(base & ladMask)
	w := s >> 6
	if word := r.occ[w] &^ (1<<uint(s&63) - 1); word != 0 {
		return base + uint64(w<<6+bits.TrailingZeros64(word)-s)
	}
	for i := 1; i <= len(r.occ); i++ {
		wi := (w + i) & (len(r.occ) - 1)
		if word := r.occ[wi]; word != 0 {
			d := (wi<<6 + bits.TrailingZeros64(word) - s) & ladMask
			return base + uint64(d)
		}
	}
	panic("sim: ladder rung bitmap empty with count > 0")
}

// ladder is the queue proper. Invariant: when n > 0 the bottom (cur)
// is non-empty — pop refills it eagerly — so the minimum is always
// cur[head] and minTime is O(1).
type ladder struct {
	cur    []event // active bucket, sorted ascending by (at, seq)
	head   int     // consumed prefix of cur
	cursor Time    // start of the active bucket's span (wheel position)
	curHi  Time    // exclusive end of the active bucket's span
	n      int
	peak   int // high-water mark of n (see Engine.PeakQueueResidency)
	rungs  [ladRungs]*ladRung
	top    []event // beyond the highest rung's window; unsorted
	topMin Time
}

func (l *ladder) len() int { return l.n }

// push inserts ev. Events landing inside the active bucket's span are
// merge-inserted into the sorted bottom (binary search + memmove, with
// an O(1) prepend slot when the new event precedes everything — the
// resume-chain case); everything else is an O(1) bucket append.
func (l *ladder) push(ev event) {
	if l.n == 0 {
		// Empty queue: re-anchor the wheel at the event. The common
		// near-empty regime therefore lives entirely in the bottom.
		l.cursor = ev.at &^ (1<<ladShift - 1)
		l.curHi = l.cursor + (1 << ladShift)
		l.cur = append(l.cur[:0], ev)
		l.head = 0
		l.n = 1
		l.peak = max(l.peak, 1)
		return
	}
	l.n++
	if l.n > l.peak {
		l.peak = l.n
	}
	if ev.at < l.curHi {
		l.insertCur(ev)
		return
	}
	l.spill(ev)
}

// insertCur merge-inserts ev into the sorted bottom.
func (l *ladder) insertCur(ev event) {
	k := evKey{at: ev.at, seq: ev.seq}
	cur := l.cur
	lo, hi := l.head, len(cur)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if (evKey{at: cur[m].at, seq: cur[m].seq}).before(k) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == l.head && l.head > 0 {
		l.head--
		cur[l.head] = ev
		return
	}
	cur = append(cur, event{})
	copy(cur[lo+1:], cur[lo:])
	cur[lo] = ev
	l.cur = cur
}

// spill files ev into the lowest rung whose window (relative to the
// wheel cursor) covers it, or the top list beyond all rungs.
func (l *ladder) spill(ev event) {
	base := uint64(l.cursor) >> ladShift
	idx := uint64(ev.at) >> ladShift
	for k := 0; k < ladRungs; k++ {
		if idx-base < ladBuckets {
			r := l.rungs[k]
			if r == nil {
				r = new(ladRung)
				l.rungs[k] = r
			}
			b := int(idx & ladMask)
			r.bucket[b] = append(r.bucket[b], ev)
			r.occ[b>>6] |= 1 << uint(b&63)
			r.count++
			return
		}
		base >>= ladBits
		idx >>= ladBits
	}
	if len(l.top) == 0 || ev.at < l.topMin {
		l.topMin = ev.at
	}
	l.top = append(l.top, ev)
}

// minKey returns the (at, seq) key of the earliest event; the ladder
// must be non-empty.
func (l *ladder) minKey() evKey {
	ev := &l.cur[l.head]
	return evKey{at: ev.at, seq: ev.seq}
}

// minTime returns the earliest scheduled time; the ladder must be
// non-empty. The bottom slot doubles as the engine's next-event
// register: inline-advance checks read it as a field load, never a
// structure probe.
func (l *ladder) minTime() Time { return l.cur[l.head].at }

// popInto removes the earliest event by (at, seq), writing it to *dst.
// The pointer form exists because the event struct is 56 bytes and pop
// sits on the hottest path in the repository: writing through the
// caller's pointer once beats returning by value through the two
// non-inlined frames (ladder → nextEvent), which the profiler shows
// as pure memmove.
func (l *ladder) popInto(dst *event) {
	*dst = l.cur[l.head]
	l.cur[l.head] = event{} // clear fn/p/run so the slot retains nothing
	l.head++
	l.n--
	if l.head == len(l.cur) {
		l.cur = l.cur[:0]
		l.head = 0
		if l.n > 0 {
			l.refill()
		}
	}
}

// pop is popInto for callers off the hot path (tests, the fuzz oracle).
func (l *ladder) pop() event {
	var ev event
	l.popInto(&ev)
	return ev
}

// refill activates the next non-empty bucket as the bottom. It finds
// the rung holding the earliest bucket span; a rung-0 bucket is sorted
// and swapped in directly, while a coarser bucket is first re-bucketed
// one or more rungs down (the lazy "first touch" of the overflow
// ladder: each event moves at most once per rung on its way to the
// bottom, never per pop).
func (l *ladder) refill() {
	for {
		bestK := -1
		var bestIdx uint64
		bestStart := Time(timeMax)
		base := uint64(l.cursor) >> ladShift
		for k := 0; k < ladRungs; k++ {
			if r := l.rungs[k]; r != nil && r.count > 0 {
				idx := r.firstFrom(base)
				if start := Time(idx << uint(ladShift+k*ladBits)); start < bestStart {
					bestK, bestIdx, bestStart = k, idx, start
				}
			}
			base >>= ladBits
		}
		if len(l.top) > 0 && l.topMin < bestStart {
			l.rebaseTop()
			continue
		}
		r := l.rungs[bestK]
		b := int(bestIdx & ladMask)
		box := r.bucket[b]
		r.occ[b>>6] &^= 1 << uint(b&63)
		r.count -= len(box)
		l.cursor = bestStart
		if bestK == 0 {
			// Swap the bucket in as the new bottom, handing the old
			// bottom's capacity back to the slot — steady state moves
			// slice headers, never memory.
			r.bucket[b] = l.cur[:0]
			l.cur = box
			l.head = 0
			l.curHi = bestStart + (1 << ladShift)
			sortEvents(l.cur)
			return
		}
		// Coarser rung: re-bucket its contents downward. Every event
		// shares this bucket's span, so each lands within a lower
		// rung's window from the advanced cursor — spill never refiles
		// into this bucket, so handing its capacity back first is safe.
		r.bucket[b] = box[:0]
		for i := range box {
			l.spill(box[i])
			box[i] = event{}
		}
	}
}

// rebaseTop re-anchors the wheel at the top list's minimum and files
// its events into the rungs. Reached only when every rung has drained
// — i.e. the clock is jumping a span longer than the highest rung's
// window — so the O(len(top)) re-push amortizes to nothing.
func (l *ladder) rebaseTop() {
	l.cursor = l.topMin &^ (1<<ladShift - 1)
	box := l.top
	l.top = nil // spill may re-append; rare enough that a fresh slab is fine
	l.topMin = 0
	for i := range box {
		l.spill(box[i])
		box[i] = event{}
	}
}

// activeSpan reports the active bucket's time span, for scheduler
// diagnostics.
func (l *ladder) activeSpan() (lo, hi Time) { return l.cursor, l.curHi }

// sortEvents sorts a bucket ascending by (at, seq): insertion sort for
// the small buckets the quantization aims at, median-of-three
// quicksort (recursing into the smaller side) when a bucket grows
// past that. Keys are unique, so the order is total and the sort's
// stability is irrelevant. No allocation on any path.
//
// A bucket holds events in push order, and pushes are near-monotone in
// (at, seq) — seq increases monotonically and same-instant bursts (a
// collective fan-out, a fault schedule) append an already ordered run —
// so most buckets arrive fully sorted. The linear presorted scan makes
// that case O(n) instead of paying quicksort's partition walk.
func sortEvents(a []event) {
	sorted := true
	for i := 1; i < len(a); i++ {
		if (evKey{at: a[i].at, seq: a[i].seq}).before(evKey{at: a[i-1].at, seq: a[i-1].seq}) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	sortEventsRec(a)
}

func sortEventsRec(a []event) {
	for len(a) > 24 {
		p := pivotEvents(a)
		k := evKey{at: a[p].at, seq: a[p].seq}
		a[p], a[len(a)-1] = a[len(a)-1], a[p]
		i := 0
		for j := 0; j < len(a)-1; j++ {
			if (evKey{at: a[j].at, seq: a[j].seq}).before(k) {
				a[i], a[j] = a[j], a[i]
				i++
			}
		}
		a[i], a[len(a)-1] = a[len(a)-1], a[i]
		if i < len(a)-1-i {
			sortEventsRec(a[:i])
			a = a[i+1:]
		} else {
			sortEventsRec(a[i+1:])
			a = a[:i]
		}
	}
	for i := 1; i < len(a); i++ {
		ev := a[i]
		k := evKey{at: ev.at, seq: ev.seq}
		j := i - 1
		for j >= 0 && k.before(evKey{at: a[j].at, seq: a[j].seq}) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = ev
	}
}

// pivotEvents picks a median-of-three pivot index for sortEvents.
func pivotEvents(a []event) int {
	lo, mid, hi := 0, len(a)/2, len(a)-1
	kl := evKey{at: a[lo].at, seq: a[lo].seq}
	km := evKey{at: a[mid].at, seq: a[mid].seq}
	kh := evKey{at: a[hi].at, seq: a[hi].seq}
	if km.before(kl) {
		lo, kl, mid, km = mid, km, lo, kl
	}
	if kh.before(km) {
		mid, km = hi, kh
	}
	if km.before(kl) {
		mid = lo
	}
	return mid
}
