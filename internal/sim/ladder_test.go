package sim

import (
	"math/rand"
	"testing"
)

// The ladder queue's correctness contract is exact: pop order by
// (at, seq) must be byte-for-byte what the heap oracle (heap_test.go)
// produces, or every experiment's determinism guarantee dies. These
// tests drive the two structures in lockstep through randomized workloads shaped like
// the engine's real traffic — same-time seq ties, reserved
// (out-of-order) sequence numbers, far-future events that land in
// overflow rungs and the top list — plus adversarial seqs in high bands
// far from the engine counter, and assert identical pop streams. CI runs them under -race;
// the structures are single-goroutine, so -race here is about catching
// accidental sharing introduced by future refactors, not concurrency.

// ladTestOp is one step of a generated workload.
type ladTestOp struct {
	push bool
	ev   event
}

// genLadderOps builds a push/pop schedule honoring the engine's one
// scheduling invariant: an event is never pushed before the time of
// the last event popped. Everything else is adversarial — time
// offsets are drawn from a mixture spanning "same instant" through
// "beyond the highest rung", and seq assignment mixes the monotone
// counter with reserved blocks (scheduled late, like Server chaining)
// and high bands far from the counter (arbitrary unique keys).
func genLadderOps(rng *rand.Rand, n int) []ladTestOp {
	ops := make([]ladTestOp, 0, n)
	var now Time   // time of the last pop, simulated
	var seq uint64 // monotone engine counter
	var reserved []uint64
	var bandSeq uint64 // per-band counters share one monotone stream
	depth := 0
	// A simulated pop must know what would be popped to advance now.
	// Track pending keys in a simple sorted slice — this is the test's
	// own oracle for "now", independent of both structures under test.
	var pending []evKey
	insert := func(k evKey) {
		lo, hi := 0, len(pending)
		for lo < hi {
			m := (lo + hi) / 2
			if pending[m].before(k) {
				lo = m + 1
			} else {
				hi = m
			}
		}
		pending = append(pending, evKey{})
		copy(pending[lo+1:], pending[lo:])
		pending[lo] = k
	}
	for len(ops) < n {
		if depth == 0 || rng.Intn(100) < 55 {
			// Push. Offset mixture: ties, intra-bucket, rung 0/1,
			// high rungs, and far-future top-list territory.
			var off Time
			switch rng.Intn(10) {
			case 0, 1:
				off = 0 // same-instant tie
			case 2, 3, 4:
				off = Time(rng.Intn(1 << ladShift)) // inside one bucket
			case 5, 6:
				off = Time(rng.Intn(64 << ladShift)) // rung 0 span
			case 7:
				off = Time(rng.Int63n(1 << (ladShift + ladBits + 3))) // rung 1-2
			case 8:
				off = Time(rng.Int63n(1 << (ladShift + 4*ladBits))) // high rungs
			default:
				off = Time(rng.Int63n(1<<62)) + 1<<(ladShift+ladRungs*ladBits) // top list
			}
			at := now + off
			var s uint64
			switch rng.Intn(10) {
			case 0, 1:
				// Reserve a seq now, schedule it a few pushes later —
				// the Server chaining pattern that makes seqs arrive
				// out of order.
				seq++
				reserved = append(reserved, seq)
				continue
			case 2:
				// High-band seq (band<<48 | counter): a unique key far
				// from the engine counter, so ties on at order by band.
				bandSeq++
				s = uint64(1+rng.Intn(3))<<48 | bandSeq
			default:
				if len(reserved) > 0 && rng.Intn(3) == 0 {
					s = reserved[0]
					reserved = reserved[1:]
				} else {
					seq++
					s = seq
				}
			}
			ops = append(ops, ladTestOp{push: true, ev: event{at: at, seq: s}})
			insert(evKey{at: at, seq: s})
			depth++
		} else {
			ops = append(ops, ladTestOp{})
			now = pending[0].at
			pending = pending[1:]
			depth--
		}
	}
	return ops
}

// TestLadderHeapLockstep is the core differential test: ladder and
// heap consume identical op streams; every pop must return the same
// (at, seq), and between ops the observable minimum must agree.
func TestLadderHeapLockstep(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(3000)
		ops := genLadderOps(rng, n)
		var lad ladder
		var heap eventHeap
		for i, op := range ops {
			if op.push {
				lad.push(op.ev)
				heap.push(op.ev)
			} else {
				le, he := lad.pop(), heap.pop()
				lk := evKey{at: le.at, seq: le.seq}
				hk := evKey{at: he.at, seq: he.seq}
				if lk != hk {
					t.Fatalf("seed %d op %d: ladder popped (%v,%d), heap popped (%v,%d)",
						seed, i, le.at, le.seq, he.at, he.seq)
				}
			}
			if lad.len() != heap.len() {
				t.Fatalf("seed %d op %d: ladder len %d, heap len %d", seed, i, lad.len(), heap.len())
			}
			if lad.len() > 0 {
				if lad.minTime() != heap.minTime() {
					t.Fatalf("seed %d op %d: ladder minTime %v, heap minTime %v",
						seed, i, lad.minTime(), heap.minTime())
				}
				if lk, hk := lad.minKey(), heap.k[0]; lk != hk {
					t.Fatalf("seed %d op %d: ladder minKey %+v, heap minKey %+v", seed, i, lk, hk)
				}
			}
		}
		// Drain: the tails must match too (exercises refill cascades
		// through every rung and the top list in one sweep).
		for lad.len() > 0 {
			le, he := lad.pop(), heap.pop()
			if le.at != he.at || le.seq != he.seq {
				t.Fatalf("seed %d drain: ladder popped (%v,%d), heap popped (%v,%d)",
					seed, le.at, le.seq, he.at, he.seq)
			}
		}
		if heap.len() != 0 {
			t.Fatalf("seed %d: heap holds %d events after ladder drained", seed, heap.len())
		}
	}
}

// TestLadderPeakResidency checks the ladder's peak-residency gauge
// (Engine.PeakQueueResidency) against the test's own depth and
// high-water count over a generated workload.
func TestLadderPeakResidency(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ops := genLadderOps(rng, 4000)
	var lad ladder
	depth, peak := 0, 0
	for i, op := range ops {
		if op.push {
			lad.push(op.ev)
			depth++
			peak = max(peak, depth)
		} else {
			lad.pop()
			depth--
		}
		if lad.len() != depth || lad.peak != peak {
			t.Fatalf("op %d: ladder len %d peak %d, want %d and %d", i, lad.len(), lad.peak, depth, peak)
		}
	}
}

// TestLadderEngineIdentical runs a full engine workload — randomized
// timer cascades with same-instant bursts, reserved-seq runners, and
// far-future events — and checks its execution order in lockstep
// against the heap oracle fed the same keys. The test predicts every
// key, since each At and ReserveSeq consumes exactly one seq; every
// event, as it fires, must be the oracle's minimum. DisableFastPaths
// forces every event through the scheduler queue, so same-time ties
// exercise the ladder rather than the nowQueue FIFO.
func TestLadderEngineIdentical(t *testing.T) {
	for _, fastOff := range []bool{false, true} {
		e := New(7)
		if fastOff {
			e.DisableFastPaths()
		}
		rng := rand.New(rand.NewSource(7))
		var oracle eventHeap
		var seq uint64 // the engine's seq counter, predicted
		fired := 0
		check := func(k evKey) {
			if oracle.len() == 0 {
				t.Fatalf("fastOff=%v: event (%v,%d) fired with the oracle empty", fastOff, k.at, k.seq)
			}
			want := oracle.pop()
			if k != (evKey{at: want.at, seq: want.seq}) || e.Now() != k.at {
				t.Fatalf("fastOff=%v: event %d fired (%v,%d) at %v, oracle popped (%v,%d)",
					fastOff, fired, k.at, k.seq, e.Now(), want.at, want.seq)
			}
			fired++
		}
		at := func(when Time, fn func()) {
			seq++
			k := evKey{at: when, seq: seq}
			oracle.push(event{at: k.at, seq: k.seq})
			e.At(when, func() { check(k); fn() })
		}
		var tick func()
		n := 0
		tick = func() {
			n++
			if n >= 5000 {
				return
			}
			// Burst of same-instant events plus a spread of future
			// ones, some via reserved sequence numbers.
			for i := rng.Intn(3); i > 0; i-- {
				at(e.Now(), func() {})
			}
			off := Duration(rng.Intn(200 << ladShift))
			if rng.Intn(20) == 0 {
				off = Duration(rng.Int63n(3600 * int64(Second))) // deep rungs / top
			}
			rs := e.ReserveSeq()
			if seq++; rs != seq {
				t.Fatalf("fastOff=%v: ReserveSeq returned %d, predicted %d", fastOff, rs, seq)
			}
			at(e.Now().Add(off/2+1), tick)
			rk := evKey{at: e.Now().Add(off), seq: rs}
			oracle.push(event{at: rk.at, seq: rk.seq})
			e.AtRunReserved(rk.at, rs, runnerFunc(func() { check(rk) }))
		}
		at(0, tick)
		e.MustRun()
		if oracle.len() != 0 || fired != int(seq) {
			t.Fatalf("fastOff=%v: %d events fired, %d scheduled, %d left in the oracle",
				fastOff, fired, seq, oracle.len())
		}
	}
}

type runnerFunc func()

func (f runnerFunc) Step() { f() }

// TestLadderReanchor covers the drain-to-empty path: after the queue
// empties, the wheel re-anchors at the next push, however far in the
// future, and ordering still holds.
func TestLadderReanchor(t *testing.T) {
	var l ladder
	var h eventHeap
	at := Time(0)
	seq := uint64(0)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		at += Time(rng.Int63n(24 * 3600 * int64(Second)))
		burst := 1 + rng.Intn(8)
		for i := 0; i < burst; i++ {
			seq++
			ev := event{at: at + Time(rng.Intn(1<<20)), seq: seq}
			l.push(ev)
			h.push(ev)
		}
		for l.len() > 0 {
			le, he := l.pop(), h.pop()
			if le.at != he.at || le.seq != he.seq {
				t.Fatalf("round %d: ladder (%v,%d) vs heap (%v,%d)", round, le.at, le.seq, he.at, he.seq)
			}
			if le.at > at {
				at = le.at
			}
		}
	}
}
