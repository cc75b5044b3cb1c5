package mpi

import (
	"testing"

	"repro/internal/sim"
)

// fastpathWorkload mixes every scheduling shape the run-to-completion
// fast paths touch: computation (inline advance), p2p messaging,
// lock/unlock and fence epochs, flushes, and the full RMA op family.
func fastpathWorkload(r *Rank) {
	c := r.CommWorld()
	win, buf := r.WinAllocate(c, 128, nil)
	c.Barrier()

	r.Compute(3 * sim.Microsecond)
	if r.Rank() == 0 {
		c.Send(1, 9, []byte("ping"))
	} else if r.Rank() == 1 {
		c.Recv(0, 9)
	}

	win.LockAll(AssertNone)
	for tgt := 0; tgt < c.Size(); tgt++ {
		if tgt == r.Rank() {
			continue
		}
		win.Accumulate(PutFloat64s([]float64{1}), tgt, 0, Scalar(Float64), OpSum)
	}
	win.FlushAll()
	win.UnlockAll()

	win.Fence(AssertNone)
	if r.Rank() == 0 {
		win.Put(PutFloat64s([]float64{42}), 1, 8, Scalar(Float64))
		dst := make([]byte, 8)
		win.Get(dst, 1, 0, Scalar(Float64))
	}
	win.Fence(AssertNone)

	c.Barrier()
	_ = buf
	win.Free()
}

// runFastPathAB runs main on a world built from cfg, with the engine's
// run-to-completion fast paths disabled when off. A slow-side world must
// never inline an advance, or the A/B comparison is not what it claims.
func runFastPathAB(t *testing.T, cfg Config, off bool, main func(r *Rank)) *World {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if off {
		w.Engine().DisableFastPaths()
	}
	w.Launch(main)
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := w.Engine().InlinedAdvances(); off && n != 0 {
		t.Fatalf("world with fast paths disabled inlined %d advances", n)
	}
	return w
}

// TestFastPathOnOffIdentical is the A/B contract for the
// run-to-completion optimizations: the same workload with the fast
// paths disabled (every event through the scheduler queue, every
// advance through a park/resume pair) and with the default fast paths
// must produce an identical summary — same end time, same counters, bit
// for bit. The fast paths elide scheduler mechanics, never scheduling
// decisions.
func TestFastPathOnOffIdentical(t *testing.T) {
	fast := runFastPathAB(t, testConfig(8, 4), false, fastpathWorkload)
	if fast.Engine().InlinedAdvances() == 0 {
		t.Fatal("fast-path world never inlined an advance; the A/B comparison is vacuous")
	}
	slow := runFastPathAB(t, testConfig(8, 4), true, fastpathWorkload)

	a, b := fast.Summary(), slow.Summary()
	// PeakQueueResidency measures scheduler occupancy — exactly what the
	// fast paths exist to reduce — so it is the one summary field allowed
	// to differ between the A/B runs.
	a.PeakQueueResidency, b.PeakQueueResidency = 0, 0
	if a != b {
		t.Fatalf("fast-path run diverged from heap-only run:\nfast: %+v\nslow: %+v", a, b)
	}
	if a, b := fast.Engine().EventsExecuted(), slow.Engine().EventsExecuted(); a != b {
		t.Fatalf("event counts differ: fast %d, slow %d", a, b)
	}
}

// TestFastPathOnOffIdenticalUnderFlowControl repeats the A/B check with
// credit flow control, whose stall/timeout bookkeeping is observed
// between events and is therefore the most fragile consumer of event
// ordering.
func TestFastPathOnOffIdenticalUnderFlowControl(t *testing.T) {
	run := func(off bool) WorldSummary {
		cfg := testConfig(4, 4)
		cfg.Flow = &FlowConfig{Credits: 2}
		return runFastPathAB(t, cfg, off, func(r *Rank) {
			c := r.CommWorld()
			win, _ := r.WinAllocate(c, 64, nil)
			c.Barrier()
			if r.Rank() != 0 {
				win.Lock(0, LockShared, AssertNone)
				for i := 0; i < 8; i++ {
					win.Accumulate(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64), OpSum)
				}
				win.Unlock(0)
			} else {
				r.Compute(50 * sim.Microsecond)
			}
			c.Barrier()
			win.Free()
		}).Summary()
	}
	a, b := run(false), run(true)
	a.PeakQueueResidency, b.PeakQueueResidency = 0, 0 // scheduler occupancy, not system state
	if a != b {
		t.Fatalf("flow-control run diverged:\nfast: %+v\nslow: %+v", a, b)
	}
}
