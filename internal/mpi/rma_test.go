package mpi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

func TestWinAllocatePutGetLockUnlock(t *testing.T) {
	var fetched []float64
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 64, nil)
		if len(buf) != 64 {
			t.Errorf("buf len = %d", len(buf))
		}
		c.Barrier()
		if r.Rank() == 0 {
			win.Lock(1, LockExclusive, AssertNone)
			win.Put(PutFloat64s([]float64{3.5, -2}), 1, 8, TypeOf(Float64, 2))
			win.Unlock(1)
			win.Lock(1, LockShared, AssertNone)
			dst := make([]byte, 16)
			win.Get(dst, 1, 8, TypeOf(Float64, 2))
			win.Unlock(1)
			fetched = GetFloat64s(dst)
		}
		c.Barrier()
		win.Free()
	})
	if fetched[0] != 3.5 || fetched[1] != -2 {
		t.Fatalf("fetched %v", fetched)
	}
}

func TestAccumulateSumsAtTarget(t *testing.T) {
	var result float64
	mustRun(t, testConfig(4, 4), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() != 0 {
			win.Lock(0, LockShared, AssertNone)
			win.Accumulate(PutFloat64s([]float64{float64(r.Rank())}), 0, 0,
				Scalar(Float64), OpSum)
			win.Unlock(0)
		}
		c.Barrier()
		if r.Rank() == 0 {
			result = GetFloat64s(buf)[0]
		}
	})
	if result != 1+2+3 {
		t.Fatalf("sum = %v", result)
	}
}

func TestFenceEpochPutVisibleAfterFence(t *testing.T) {
	var seen float64
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		win.Fence(ModeNoPrecede)
		if r.Rank() == 0 {
			win.Put(PutFloat64s([]float64{7}), 1, 0, Scalar(Float64))
		}
		win.Fence(ModeNoSucceed)
		if r.Rank() == 1 {
			seen = GetFloat64s(buf)[0]
		}
	})
	if seen != 7 {
		t.Fatalf("after fence, target saw %v", seen)
	}
}

func TestFenceGatesOnRemoteCompletion(t *testing.T) {
	// Rank 0 issues many accumulates (software AMs) to rank 1 inside a
	// fence epoch; after the closing fence on rank 1, every accumulate
	// must be applied even though rank 1 never called flush.
	const n = 32
	var sum float64
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		win.Fence(ModeNoPrecede)
		if r.Rank() == 0 {
			for i := 0; i < n; i++ {
				win.Accumulate(PutFloat64s([]float64{1}), 1, 0, Scalar(Float64), OpSum)
			}
		}
		win.Fence(ModeNoSucceed)
		if r.Rank() == 1 {
			sum = GetFloat64s(buf)[0]
		}
	})
	if sum != n {
		t.Fatalf("sum = %v, want %d", sum, n)
	}
}

func TestLockAllAccumulateFlushUnlockAll(t *testing.T) {
	var got float64
	mustRun(t, testConfig(3, 3), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() != 0 {
			win.LockAll(AssertNone)
			win.Accumulate(PutFloat64s([]float64{2}), 0, 0, Scalar(Float64), OpSum)
			win.FlushAll()
			win.Accumulate(PutFloat64s([]float64{0.5}), 0, 0, Scalar(Float64), OpSum)
			win.UnlockAll()
		}
		c.Barrier()
		if r.Rank() == 0 {
			got = GetFloat64s(buf)[0]
		}
	})
	if got != 5 {
		t.Fatalf("got %v, want 5", got)
	}
}

func TestFlushForcesCompletion(t *testing.T) {
	// After Flush returns, the target memory must already contain the
	// accumulated value (remote completion), observable via a
	// subsequent Get on the same lock epoch.
	var observed float64
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			win.Accumulate(PutFloat64s([]float64{4}), 1, 0, Scalar(Float64), OpSum)
			win.Flush(1)
			dst := make([]byte, 8)
			win.Get(dst, 1, 0, Scalar(Float64))
			win.Flush(1)
			observed = GetFloat64s(dst)[0]
			win.UnlockAll()
		} else {
			// Target sits in a barrier (inside MPI) so progress happens.
		}
		c.Barrier()
	})
	if observed != 4 {
		t.Fatalf("observed %v", observed)
	}
}

func TestPSCWExposureCompletes(t *testing.T) {
	var got []float64
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 16, nil)
		if r.Rank() == 0 {
			win.Start([]int{1}, AssertNone)
			win.Put(PutFloat64s([]float64{1.25, 2.5}), 1, 0, TypeOf(Float64, 2))
			win.Complete()
		} else {
			win.Post([]int{0}, AssertNone)
			win.Wait()
			got = GetFloat64s(buf)
		}
	})
	if got[0] != 1.25 || got[1] != 2.5 {
		t.Fatalf("got %v", got)
	}
}

func TestPSCWStartBlocksUntilPost(t *testing.T) {
	var startDone sim.Time
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		if r.Rank() == 0 {
			win.Start([]int{1}, AssertNone)
			startDone = r.Now()
			win.Complete()
		} else {
			r.Compute(80 * sim.Microsecond)
			win.Post([]int{0}, AssertNone)
			win.Wait()
		}
		c.Barrier()
	})
	if startDone < sim.Time(80*sim.Microsecond) {
		t.Fatalf("Start returned at %v, before Post", startDone)
	}
}

func TestPSCWNoCheckSkipsPostSync(t *testing.T) {
	var startCost sim.Duration
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		if r.Rank() == 0 {
			before := r.Now()
			win.Start([]int{1}, ModeNoCheck)
			startCost = r.Now().Sub(before)
			win.Put(PutFloat64s([]float64{1}), 1, 0, Scalar(Float64))
			win.Complete()
		} else {
			win.Post([]int{0}, ModeNoCheck)
			win.Wait()
		}
		c.Barrier()
	})
	if startCost > 2*sim.Microsecond {
		t.Fatalf("NoCheck Start took %v, should not wait for Post", startCost)
	}
}

func TestGetAccumulateReturnsOldValue(t *testing.T) {
	var old, after float64
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		if r.Rank() == 1 {
			copy(buf, PutFloat64s([]float64{10}))
		}
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			res := make([]byte, 8)
			win.GetAccumulate(PutFloat64s([]float64{5}), res, 1, 0, Scalar(Float64), OpSum)
			win.Flush(1)
			old = GetFloat64s(res)[0]
			win.UnlockAll()
		}
		c.Barrier()
		if r.Rank() == 1 {
			after = GetFloat64s(buf)[0]
		}
	})
	if old != 10 || after != 15 {
		t.Fatalf("old=%v after=%v", old, after)
	}
}

func TestFetchAndOp(t *testing.T) {
	var fetched int64
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		if r.Rank() == 1 {
			copy(buf, PutInt64(100))
		}
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			res := make([]byte, 8)
			win.FetchAndOp(PutInt64(1), res, 1, 0, Int64, OpSum)
			win.Flush(1)
			fetched = GetInt64(res)
			win.UnlockAll()
		}
		c.Barrier()
		if r.Rank() == 1 && GetInt64(buf) != 101 {
			t.Errorf("target = %d", GetInt64(buf))
		}
	})
	if fetched != 100 {
		t.Fatalf("fetched %d", fetched)
	}
}

func TestCompareAndSwap(t *testing.T) {
	var first, second int64
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		if r.Rank() == 1 {
			copy(buf, PutInt64(7))
		}
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			res := make([]byte, 8)
			// Successful CAS: 7 -> 8.
			win.CompareAndSwap(PutInt64(7), PutInt64(8), res, 1, 0, Int64)
			win.Flush(1)
			first = GetInt64(res)
			// Failed CAS: compare 7 no longer matches.
			win.CompareAndSwap(PutInt64(7), PutInt64(99), res, 1, 0, Int64)
			win.Flush(1)
			second = GetInt64(res)
			win.UnlockAll()
		}
		c.Barrier()
		if r.Rank() == 1 && GetInt64(buf) != 8 {
			t.Errorf("target = %d, want 8", GetInt64(buf))
		}
	})
	if first != 7 || second != 8 {
		t.Fatalf("first=%d second=%d", first, second)
	}
}

func TestNoncontiguousPutVector(t *testing.T) {
	var got []float64
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 48, nil)
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			// Write elements 0, 2, 4 of the target's 6 doubles.
			win.Put(PutFloat64s([]float64{1, 2, 3}), 1, 0, Vector(Float64, 3, 1, 2))
			win.UnlockAll()
		}
		c.Barrier()
		if r.Rank() == 1 {
			got = GetFloat64s(buf)
		}
	})
	want := []float64{1, 0, 2, 0, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRMAOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-bounds RMA")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			win.Put(PutFloat64s([]float64{1, 2}), 1, 0, TypeOf(Float64, 2)) // 16 > 8
			win.UnlockAll()
		}
		c.Barrier()
	})
}

func TestRMAWithoutEpochPanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("no panic for RMA without epoch")
		}
		if !strings.Contains(fmt.Sprint(p), "PUT to target 1 without an epoch") {
			t.Fatalf("unhelpful panic: %v", p)
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		if r.Rank() == 0 {
			win.Put(PutFloat64s([]float64{1}), 1, 0, Scalar(Float64))
		}
		c.Barrier()
	})
}

func TestNestedLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for nested lock")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		if r.Rank() == 0 {
			win.Lock(1, LockExclusive, AssertNone)
			win.Lock(1, LockShared, AssertNone)
		}
		c.Barrier()
	})
}

func TestExclusiveLocksSerialize(t *testing.T) {
	// Two origins take exclusive locks on the same target and hold them
	// across a long flush; their epochs must not overlap.
	type span struct{ start, end sim.Time }
	spans := make([]span, 3)
	mustRun(t, testConfig(3, 3), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() != 0 {
			win.Lock(0, LockExclusive, AssertNone)
			win.Put(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64))
			win.Flush(0) // forces acquisition
			start := r.Now()
			win.Accumulate(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64), OpSum)
			win.Flush(0)
			end := r.Now()
			win.Unlock(0)
			spans[r.Rank()] = span{start, end}
		}
		c.Barrier()
	})
	a, b := spans[1], spans[2]
	if a.start < b.end && b.start < a.end {
		t.Fatalf("exclusive epochs overlap: %+v %+v", a, b)
	}
}

func TestSharedLocksOverlap(t *testing.T) {
	// Shared lock holders proceed concurrently: with identical work,
	// both origins' epochs span the same virtual time rather than
	// serializing one after the other.
	type span struct{ start, end sim.Time }
	spans := make([]span, 3)
	mustRun(t, testConfig(3, 3), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() != 0 {
			start := r.Now()
			win.Lock(0, LockShared, AssertNone)
			win.Accumulate(PutFloat64s([]float64{1}), 0, 0, Scalar(Float64), OpSum)
			win.Flush(0)
			win.Unlock(0)
			spans[r.Rank()] = span{start, r.Now()}
		}
		c.Barrier()
	})
	a, b := spans[1], spans[2]
	if !(a.start < b.end && b.start < a.end) {
		t.Fatalf("shared epochs serialized: %+v %+v", a, b)
	}
}

func TestSelfLockImmediate(t *testing.T) {
	var elapsed sim.Duration
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		if r.Rank() == 0 {
			start := r.Now()
			win.Lock(0, LockExclusive, AssertNone)
			elapsed = r.Now().Sub(start)
			win.Put(PutFloat64s([]float64{9}), 0, 0, Scalar(Float64))
			win.Unlock(0)
			if GetFloat64s(buf)[0] != 9 {
				t.Error("self put not applied")
			}
		}
		c.Barrier()
	})
	if elapsed > 5*sim.Microsecond {
		t.Fatalf("self lock took %v", elapsed)
	}
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		if r.Rank() == 0 {
			win.Unlock(1)
		}
		c.Barrier()
	})
}

func TestHardwarePutBypassesTargetCPU(t *testing.T) {
	cfg := testConfig(2, 2) // regular platform: software RMA
	wSoft := mustRun(t, cfg, putWorkload)
	cfgHW := testConfig(2, 2)
	cfgHW.Net = hwNet()
	wHW := mustRun(t, cfgHW, putWorkload)

	if soft := wSoft.RankByID(1).Stats(); soft.SoftwareAMs == 0 {
		t.Error("regular platform should process puts in software")
	}
	hw := wHW.RankByID(1).Stats()
	if hw.SoftwareAMs != 0 {
		t.Errorf("hardware platform processed %d software AMs", hw.SoftwareAMs)
	}
	if hw.HardwareOps == 0 {
		t.Error("hardware platform recorded no hardware ops")
	}
}

func TestAccumulateAlwaysSoftware(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Net = hwNet()
	w := mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			win.Accumulate(PutFloat64s([]float64{1}), 1, 0, Scalar(Float64), OpSum)
			win.UnlockAll()
		}
		c.Barrier()
	})
	if w.RankByID(1).Stats().SoftwareAMs != 1 {
		t.Fatal("accumulate did not take the software path on hardware platform")
	}
}

func TestNoncontiguousPutSoftwareOnHardwarePlatform(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Net = hwNet()
	w := mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 64, nil)
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			win.Put(PutFloat64s([]float64{1, 2}), 1, 0, Vector(Float64, 2, 1, 2))
			win.UnlockAll()
		}
		c.Barrier()
	})
	if w.RankByID(1).Stats().SoftwareAMs != 1 {
		t.Fatal("noncontiguous put must use the software path")
	}
}

func TestWinSharedAllocation(t *testing.T) {
	mustRun(t, testConfig(3, 3), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocateShared(c, 8*(r.Rank()+1), nil)
		if len(buf) != 8*(r.Rank()+1) {
			t.Errorf("rank %d buf = %d", r.Rank(), len(buf))
		}
		// All regions alias one segment, consecutively.
		r0 := win.RegionOf(0)
		for i := 1; i < 3; i++ {
			if !win.RegionOf(i).SameSegment(r0) {
				t.Error("shared window regions in different segments")
			}
		}
		// Offsets are 16-aligned (segment binding safety).
		if win.RegionOf(1).Offset() != 16 || win.RegionOf(2).Offset() != 32 {
			t.Errorf("offsets = %d, %d", win.RegionOf(1).Offset(), win.RegionOf(2).Offset())
		}
		if win.Region().Root().Len() != 16+16+32 {
			t.Errorf("root len = %d", win.Region().Root().Len())
		}
		c.Barrier()
	})
}

func TestWinSharedDirectStoreVisible(t *testing.T) {
	// A store through one rank's slice is visible through the shared
	// segment (load/store shared memory semantics).
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocateShared(c, 8, nil)
		if r.Rank() == 0 {
			copy(buf, PutFloat64s([]float64{6.5}))
		}
		c.Barrier()
		if r.Rank() == 1 {
			other := win.RegionOf(0).Bytes()
			if GetFloat64s(other)[0] != 6.5 {
				t.Error("store not visible through shared segment")
			}
		}
		c.Barrier()
	})
}

func TestWinSharedCrossNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for cross-node shared window")
		}
	}()
	mustRun(t, testConfig(4, 2), func(r *Rank) { // 2 nodes
		c := r.CommWorld()
		r.WinAllocateShared(c, 8, nil)
	})
}

func TestWinCreateOverExistingMemory(t *testing.T) {
	var got float64
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		w1, buf := r.WinAllocateRegion(c, 16, nil)
		// Second window exposing a sub-range of the same memory.
		w2 := r.WinCreate(c, w1.Region().Sub(8, 8), nil)
		c.Barrier()
		if r.Rank() == 0 {
			w2.LockAll(AssertNone)
			w2.Put(PutFloat64s([]float64{3}), 1, 0, Scalar(Float64))
			w2.UnlockAll()
		}
		c.Barrier()
		if r.Rank() == 1 {
			got = GetFloat64s(buf)[1] // second double of w1's memory
		}
		c.Barrier()
		w2.Free()
		w1.Free()
	})
	if got != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestWindowAllocationCostScalesWithHints(t *testing.T) {
	// WinCreate must be cheaper than WinAllocate (Casper's overlapping
	// windows depend on this, Fig. 3(a)).
	timeOf := func(f func(r *Rank, c *Comm)) sim.Duration {
		var d sim.Duration
		mustRun(t, testConfig(4, 4), func(r *Rank) {
			c := r.CommWorld()
			start := r.Now()
			f(r, c)
			if r.Rank() == 0 {
				d = r.Now().Sub(start)
			}
			c.Barrier()
		})
		return d
	}
	alloc := timeOf(func(r *Rank, c *Comm) { r.WinAllocate(c, 1024, nil) })
	create := timeOf(func(r *Rank, c *Comm) {
		w, _ := r.WinAllocateRegion(c, 1024, nil)
		_ = w
	})
	_ = create
	if alloc <= 0 {
		t.Fatal("allocation cost not modeled")
	}
}

func putWorkload(r *Rank) {
	c := r.CommWorld()
	win, _ := r.WinAllocate(c, 64, nil)
	c.Barrier()
	if r.Rank() == 0 {
		win.LockAll(AssertNone)
		for i := 0; i < 4; i++ {
			win.Put(PutFloat64s([]float64{float64(i)}), 1, 8*i, Scalar(Float64))
		}
		win.UnlockAll()
	}
	c.Barrier()
}

// hwNet is the DMAPP-style platform with hardware contiguous put/get.
func hwNet() *netmodel.Params { return netmodel.CrayXC30DMAPP() }

func TestAccumulateOrderingAcrossSizes(t *testing.T) {
	// MPI-3 §11.7.1: same-origin accumulates to the same location apply
	// in issue order — even when a later, smaller message could
	// physically overtake an earlier, larger one. A large REPLACE
	// followed by a small REPLACE must leave the small one's value.
	var got float64
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8*512, nil)
		c.Barrier()
		if r.Rank() == 0 {
			big := make([]float64, 512) // all zeros
			win.LockAll(AssertNone)
			win.Accumulate(PutFloat64s(big), 1, 0, TypeOf(Float64, 512), OpReplace)
			win.Accumulate(PutFloat64s([]float64{7}), 1, 0, Scalar(Float64), OpReplace)
			win.UnlockAll()
		}
		c.Barrier()
		if r.Rank() == 1 {
			got = GetFloat64s(buf)[0]
		}
	})
	if got != 7 {
		t.Fatalf("accumulate ordering violated: element = %v, want 7 (the later op)", got)
	}
}

func TestAccumulateOrderingAfterLazyGrant(t *testing.T) {
	// Ops queued behind a lazy lock acquisition are released together;
	// their ordering must still hold.
	var got float64
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8*512, nil)
		c.Barrier()
		if r.Rank() == 0 {
			win.Lock(1, LockExclusive, AssertNone)
			// Both issued before the (lazy) grant arrives.
			win.Accumulate(PutFloat64s(make([]float64, 512)), 1, 0, TypeOf(Float64, 512), OpReplace)
			win.Accumulate(PutFloat64s([]float64{3}), 1, 0, Scalar(Float64), OpReplace)
			win.Unlock(1)
		}
		c.Barrier()
		if r.Rank() == 1 {
			got = GetFloat64s(buf)[0]
		}
	})
	if got != 3 {
		t.Fatalf("queued accumulate ordering violated: %v", got)
	}
}
