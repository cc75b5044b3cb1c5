package mpi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// These tests exercise failure modes: incorrect MPI usage must produce
// a diagnosable error (a panic with a meaningful message, or a
// DeadlockError naming the stuck call) rather than silent corruption or
// a hang without explanation.

// runExpectDeadlock runs main and asserts the world deadlocks with the
// given substring in a stuck-process reason.
func runExpectDeadlock(t *testing.T, cfg Config, substr string, main func(r *Rank)) {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(main)
	err = w.Run()
	de, ok := err.(*sim.DeadlockError)
	if !ok {
		t.Fatalf("expected deadlock, got %v", err)
	}
	if !strings.Contains(de.Error(), substr) {
		t.Fatalf("deadlock report %q does not mention %q", de.Error(), substr)
	}
}

func TestDeadlockReportNamesRecv(t *testing.T) {
	runExpectDeadlock(t, testConfig(2, 2), "MPI_Recv", func(r *Rank) {
		if r.Rank() == 0 {
			r.CommWorld().Recv(1, 5) // never sent
		}
	})
}

func TestDeadlockReportNamesWait(t *testing.T) {
	// Wait without any origin calling Complete.
	runExpectDeadlock(t, testConfig(2, 2), "MPI_Win_wait", func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		if r.Rank() == 1 {
			win.Post([]int{0}, AssertNone)
			win.Wait()
		}
		// Rank 0 never starts an access epoch.
	})
}

func TestDeadlockReportNamesBarrier(t *testing.T) {
	runExpectDeadlock(t, testConfig(2, 2), "MPI_Barrier", func(r *Rank) {
		if r.Rank() == 0 {
			r.CommWorld().Barrier() // rank 1 never arrives
		}
	})
}

func TestDeadlockReportNamesFlushWhenNoProgressPossible(t *testing.T) {
	// Flush of an accumulate to a target that exits without ever
	// re-entering MPI: no progress is possible, and the report says
	// what was being waited for.
	runExpectDeadlock(t, testConfig(2, 2), "MPI_Win_flush", func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			win.Accumulate(PutFloat64s([]float64{1}), 1, 0, Scalar(Float64), OpSum)
			win.Flush(1)
			win.UnlockAll()
		}
		// Rank 1 terminates immediately: its pending AMs are never
		// serviced.
	})
}

func TestMismatchedCollectivesDiagnosed(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("no panic for mismatched collectives")
		}
		if !strings.Contains(fmt.Sprint(p), "collective mismatch") {
			t.Fatalf("unhelpful panic: %v", p)
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 0 {
			c.Barrier()
		} else {
			c.Bcast(0, nil) // mismatched collective
		}
	})
}

func TestStartWithoutPostDeadlocks(t *testing.T) {
	runExpectDeadlock(t, testConfig(2, 2), "MPI_Win_start", func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		if r.Rank() == 0 {
			win.Start([]int{1}, AssertNone) // target never posts
		}
	})
}

func TestCompleteWithoutStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.Complete()
		}
	})
}

func TestWaitWithoutPostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.Wait()
		}
	})
}

func TestDoublePostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.Post([]int{1}, AssertNone)
			win.Post([]int{1}, AssertNone)
		}
	})
}

func TestNestedLockAllPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			win.LockAll(AssertNone)
		}
	})
}

func TestUnlockAllWithoutLockAllPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.UnlockAll()
		}
	})
}

func TestPSCWOpOutsideGroupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(3, 3), func(r *Rank) {
		c := r.CommWorld()
		win, _ := r.WinAllocate(c, 8, nil)
		switch r.Rank() {
		case 0:
			win.Start([]int{1}, AssertNone)
			// Target 2 is not in the access group.
			win.Put(PutFloat64s([]float64{1}), 2, 0, Scalar(Float64))
			win.Complete()
		case 1:
			win.Post([]int{0}, AssertNone)
			win.Wait()
		}
	})
}

func TestNegativeWinSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		r.WinAllocate(r.CommWorld(), -1, nil)
	})
}

func TestAttachOnNonDynamicWindowPanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("no panic")
		}
		if !strings.Contains(fmt.Sprint(p), "Attach on a non-dynamic window") {
			t.Fatalf("unhelpful panic: %v", p)
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocateRegion(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.Attach(make([]byte, 8))
		}
	})
}

func TestDetachOfUnattachedBasePanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("no panic")
		}
		if !strings.Contains(fmt.Sprint(p), "Detach of unattached base") {
			t.Fatalf("unhelpful panic: %v", p)
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win := r.WinCreateDynamic(r.CommWorld(), nil)
		if r.Rank() == 0 {
			win.Detach(0x9999)
		}
	})
}

func TestDynamicAccessOutsideAttachedMemoryPanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("no panic")
		}
		if !strings.Contains(fmt.Sprint(p), "hits no attached memory") {
			t.Fatalf("unhelpful panic: %v", p)
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		c := r.CommWorld()
		win := r.WinCreateDynamic(c, nil)
		if r.Rank() == 1 {
			win.Attach(make([]byte, 64))
		}
		c.Barrier()
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			// No attachment lives at this address on rank 1.
			win.Put(PutFloat64s([]float64{1}), 1, 0x500000, Scalar(Float64))
			win.FlushAll()
			win.UnlockAll()
		}
		c.Barrier()
	})
}

func TestAttachMisuseErrorsReturn(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Errors = ErrorsReturn
	mustRun(t, cfg, func(r *Rank) {
		win, _ := r.WinAllocateRegion(r.CommWorld(), 8, nil)
		if r.Rank() == 0 {
			win.Attach(make([]byte, 8))
			err := r.Err()
			if err == nil {
				t.Error("no error recorded for Attach on non-dynamic window")
			} else if err.Class != ErrRMAAttach {
				t.Errorf("class = %v, want MPI_ERR_RMA_ATTACH", err.Class)
			}
		}
	})
}

func TestBadDatatypePanicsAtIssue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	mustRun(t, testConfig(2, 2), func(r *Rank) {
		win, _ := r.WinAllocate(r.CommWorld(), 64, nil)
		if r.Rank() == 0 {
			win.LockAll(AssertNone)
			bad := Datatype{Basic: Float64, Count: 2, BlockLen: 3, Stride: 2}
			win.Put(make([]byte, 48), 1, 0, bad)
		}
	})
}

// TestRMAWithoutEpochErrorsReturn drives the MPI_ERR_RMA_SYNC early
// return for an op issued with no epoch, under flow control with a
// one-credit window: the rejected op must hold no credit, count as no
// issued op, and hand its header back, so a legal op right after it
// issues and completes without a backlog timeout.
func TestRMAWithoutEpochErrorsReturn(t *testing.T) {
	cfg := testConfig(2, 2)
	cfg.Errors = ErrorsReturn
	cfg.Flow = &FlowConfig{Credits: 1, Timeout: 20 * sim.Microsecond}
	var got *MPIError
	var freeBefore, freeAfter int
	var sum float64
	w := mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 64, nil)
		c.Barrier()
		if r.Rank() == 0 {
			freeBefore = len(r.w.opFree)
			win.Accumulate(PutFloat64s([]float64{5}), 1, 0, Scalar(Float64), OpSum)
			freeAfter = len(r.w.opFree)
			got = r.Err()
			r.ClearErr()
			win.Lock(1, LockShared, AssertNone)
			win.Accumulate(PutFloat64s([]float64{1}), 1, 0, Scalar(Float64), OpSum)
			win.Unlock(1)
			if err := r.Err(); err != nil {
				t.Errorf("legal op after the sync error failed: %v", err)
			}
		}
		c.Barrier()
		if r.Rank() == 1 {
			sum = GetFloat64s(buf[:8])[0]
		}
		win.Free()
	})
	if got == nil || got.Class != ErrRMASync {
		t.Fatalf("error = %v, want MPI_ERR_RMA_SYNC", got)
	}
	if !strings.Contains(got.Msg, "without an epoch") {
		t.Errorf("unhelpful message: %q", got.Msg)
	}
	// Rank 0 had issued nothing before, so the rejected op allocated a
	// fresh header; it must be back on the freelist.
	if freeBefore != 0 || freeAfter != 1 {
		t.Errorf("op freelist %d -> %d across the rejected op, want 0 -> 1", freeBefore, freeAfter)
	}
	if ch := w.flow.chans[[2]int{0, 1}]; ch == nil || ch.available != 1 {
		t.Errorf("credit window 0->1 not restored: %+v", ch)
	}
	if n := w.RankByID(0).Stats().OpsIssued; n != 1 {
		t.Errorf("OpsIssued = %d, want 1 (the rejected op must not count)", n)
	}
	if n := w.wins[0].inflight.Pending(); n != 0 {
		t.Errorf("%d ops still in flight", n)
	}
	if sum != 1 {
		t.Errorf("target value %v, want 1 (only the legal op applies)", sum)
	}
	auditPool(t, w, "sync error")
}

// TestPSCWOpOutsideGroupErrorsReturn is the ErrorsReturn twin of
// TestPSCWOpOutsideGroupPanics: the op to a target outside the access
// group is rejected with MPI_ERR_RMA_SYNC before it is counted toward
// any target, and the epoch completes normally.
func TestPSCWOpOutsideGroupErrorsReturn(t *testing.T) {
	cfg := testConfig(3, 3)
	cfg.Errors = ErrorsReturn
	var got *MPIError
	var vals [3]float64
	w := mustRun(t, cfg, func(r *Rank) {
		c := r.CommWorld()
		win, buf := r.WinAllocate(c, 8, nil)
		switch r.Rank() {
		case 0:
			win.Start([]int{1}, AssertNone)
			win.Put(PutFloat64s([]float64{2}), 2, 0, Scalar(Float64))
			got = r.Err()
			win.Put(PutFloat64s([]float64{1}), 1, 0, Scalar(Float64))
			win.Complete()
		case 1:
			win.Post([]int{0}, AssertNone)
			win.Wait()
		}
		c.Barrier()
		vals[r.Rank()] = GetFloat64s(buf)[0]
	})
	if got == nil || got.Class != ErrRMASync {
		t.Fatalf("error = %v, want MPI_ERR_RMA_SYNC", got)
	}
	if !strings.Contains(got.Msg, "outside access group") {
		t.Errorf("unhelpful message: %q", got.Msg)
	}
	if vals != [3]float64{0, 1, 0} {
		t.Errorf("window values %v, want [0 1 0]", vals)
	}
	if n := w.RankByID(0).Stats().OpsIssued; n != 1 {
		t.Errorf("OpsIssued = %d, want 1 (the rejected op must not count)", n)
	}
	auditPool(t, w, "PSCW sync error")
}
