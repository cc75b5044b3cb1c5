package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// --- Fence ------------------------------------------------------------

// Fence implements Window: MPI_WIN_FENCE. Closing a fence epoch
// guarantees that all operations targeting this process have been
// applied and all operations it issued are complete; the model gates the
// fence barrier on the window's global in-flight count draining (a
// piggybacked completion count, as real implementations do), so the
// origin pays no per-operation ack round trips — which is precisely the
// advantage the base implementation has over Casper's
// flushall+barrier translation (Section III-C1).
func (w *Win) Fence(assert Assert) {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if !assert.Has(ModeNoPrecede) {
		// While parked here the rank is inside MPI, so AMs targeted at
		// it are serviced — fence drains both directions.
		w.g.inflight.Wait(r.proc, "MPI_Win_fence drain")
	}
	w.c.collective("MPI_Win_fence", nil, w.c.barrierCost(), nil)
	w.fenceActive = !assert.Has(ModeNoSucceed)
}

// --- PSCW -------------------------------------------------------------

// Post implements Window: MPI_WIN_POST, opening an exposure epoch for
// the origins in group (comm ranks). It does not block.
func (w *Win) Post(group []int, assert Assert) {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if w.exposure != nil {
		panic("mpi: Post with exposure epoch already open")
	}
	w.exposure = &pscwExposure{group: append([]int(nil), group...), assert: assert}
	p := w.g.pscwState()
	if p.expected[w.me] == nil {
		p.expected[w.me] = map[int]int64{}
	}
	for _, o := range w.exposure.group {
		delete(p.expected[w.me], o)
	}
	if !assert.Has(ModeNoCheck) {
		// Notify each origin that this target is posted.
		for _, origin := range w.exposure.group {
			origin := origin
			wire := r.transferTo(w.g.comm.ranks[origin], 16)
			me := w.me
			r.eng.After(wire, func() {
				if p.postSeen[origin] == nil {
					p.postSeen[origin] = map[int]bool{}
				}
				p.postSeen[origin][me] = true
				p.sig.Broadcast()
			})
		}
	}
}

// Start implements Window: MPI_WIN_START, opening an access epoch to the
// targets in group. Without ModeNoCheck it blocks until all targets have
// posted.
func (w *Win) Start(group []int, assert Assert) {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if w.access != nil {
		panic("mpi: Start with access epoch already open")
	}
	w.access = &pscwAccess{group: append([]int(nil), group...), assert: assert,
		issued: map[int]int64{}}
	if !assert.Has(ModeNoCheck) {
		p := w.g.pscwState()
		for {
			ready := true
			for _, t := range w.access.group {
				if p.postSeen[w.me] == nil || !p.postSeen[w.me][t] {
					ready = false
					break
				}
			}
			if ready {
				break
			}
			p.sig.Wait(r.proc, "MPI_Win_start awaiting posts")
		}
		for _, t := range w.access.group {
			delete(p.postSeen[w.me], t)
		}
	}
}

// Complete implements Window: MPI_WIN_COMPLETE, closing the access
// epoch. It guarantees local completion only; each target learns the
// number of operations to expect.
func (w *Win) Complete() {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if w.access == nil {
		panic("mpi: Complete without access epoch")
	}
	p := w.g.pscwState()
	for _, t := range w.access.group {
		t := t
		count := w.access.issued[t]
		origin := w.me
		wire := r.transferTo(w.g.comm.ranks[t], 16)
		r.eng.After(wire, func() {
			if p.expected[t] == nil {
				p.expected[t] = map[int]int64{}
			}
			p.expected[t][origin] = count + 1 // +1 marks "complete received"
			p.sig.Broadcast()
		})
	}
	w.access = nil
}

// Wait implements Window: MPI_WIN_WAIT, closing the exposure epoch once
// every origin has called Complete and all their operations have been
// applied here.
func (w *Win) Wait() {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if w.exposure == nil {
		panic("mpi: Wait without exposure epoch")
	}
	p := w.g.pscwState()
	for {
		done := true
		for _, origin := range w.exposure.group {
			exp, ok := p.expected[w.me][origin]
			if !ok {
				done = false
				break
			}
			var applied int64
			if p.applied[w.me] != nil {
				applied = p.applied[w.me][origin]
			}
			if applied < exp-1 {
				done = false
				break
			}
		}
		if done {
			break
		}
		p.sig.Wait(r.proc, "MPI_Win_wait")
	}
	for _, origin := range w.exposure.group {
		delete(p.expected[w.me], origin)
		if p.applied[w.me] != nil {
			p.applied[w.me][origin] = 0
		}
	}
	w.exposure = nil
}

// --- Passive target ----------------------------------------------------

// Lock implements Window: MPI_WIN_LOCK. With the platform's lazy-lock
// behaviour the acquisition is deferred to the first operation or flush
// (Section III-B: "many MPI implementations might not acquire the lock
// immediately"); a lock to self is acquired eagerly, which MPI requires
// so local load/store access is immediately legal.
func (w *Win) Lock(target int, lock LockType, assert Assert) {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	ts := w.target(target)
	if ts.locked {
		panic(fmt.Sprintf("mpi: nested Lock to target %d (disallowed by MPI)", target))
	}
	ts.locked = true
	ts.viaAll = false
	ts.lock = lock
	if target == w.me || !r.w.net.LockLazy {
		w.requestLock(target, ts)
	}
}

// Unlock implements Window: MPI_WIN_UNLOCK, completing all operations to
// the target and releasing the lock.
func (w *Win) Unlock(target int) {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	ts := w.lookupTarget(target)
	if ts == nil || !ts.locked || ts.viaAll {
		panic(fmt.Sprintf("mpi: Unlock of target %d without Lock", target))
	}
	w.closeTarget(target, ts)
	w.targets[target] = nil
}

// closeTarget finishes the passive epoch to one target: force lock
// acquisition if any op needs it, wait for acks, release the lock.
func (w *Win) closeTarget(target int, ts *targetState) {
	r := w.r
	if ts.requested {
		ts.granted.Await(r.proc, "MPI_Win_unlock awaiting lock grant")
		ts.pending.Wait(r.proc, "MPI_Win_unlock awaiting remote completion")
		// Release travels to the target's lock manager.
		mgr := w.g.lockMgr(target)
		origin := w.me
		excl := ts.lock == LockExclusive
		wire := r.transferTo(w.g.comm.ranks[target], 16)
		r.eng.After(wire, func() { mgr.release(origin, excl) })
	}
	ts.locked = false
	ts.requested = false
	ts.granted = sim.Completion{}
}

// LockAll implements Window: MPI_WIN_LOCK_ALL (shared mode on every
// rank). Acquisition is lazy per target.
func (w *Win) LockAll(assert Assert) {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if w.lockAll {
		panic("mpi: nested LockAll")
	}
	w.lockAll = true
}

// UnlockAll implements Window: MPI_WIN_UNLOCK_ALL.
func (w *Win) UnlockAll() {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	if !w.lockAll {
		panic("mpi: UnlockAll without LockAll")
	}
	for t, ts := range w.targets {
		if ts != nil && ts.locked && ts.viaAll {
			w.closeTarget(t, ts)
			w.targets[t] = nil
		}
	}
	w.lockAll = false
}

// Flush implements Window: MPI_WIN_FLUSH — complete all outstanding
// operations to the target at both origin and target. After a flush the
// lock is necessarily acquired, which opens Casper's
// "static-binding-free" interval (Section III-B-3).
func (w *Win) Flush(target int) {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	ts := w.lookupTarget(target)
	if ts == nil || !ts.locked {
		if w.lockAll {
			return // no ops issued to this target yet; nothing to flush
		}
		panic(fmt.Sprintf("mpi: Flush of target %d without passive epoch", target))
	}
	if ts.requested {
		ts.granted.Await(r.proc, "MPI_Win_flush awaiting lock grant")
	}
	ts.pending.Wait(r.proc, "MPI_Win_flush")
}

// FlushAll implements Window: MPI_WIN_FLUSH_ALL.
func (w *Win) FlushAll() {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	for _, ts := range w.targets {
		if ts == nil || !ts.locked {
			continue
		}
		if ts.requested {
			ts.granted.Await(r.proc, "MPI_Win_flush_all awaiting lock grant")
		}
		ts.pending.Wait(r.proc, "MPI_Win_flush_all")
	}
}

// FlushLocal implements Window: MPI_WIN_FLUSH_LOCAL. Origin buffers are
// snapshotted at issue in this model, so local completion is immediate.
func (w *Win) FlushLocal(target int) {
	w.r.mpiEnter()
	w.r.mpiLeave()
}

// FlushLocalAll implements Window: MPI_WIN_FLUSH_LOCAL_ALL.
func (w *Win) FlushLocalAll() {
	w.r.mpiEnter()
	w.r.mpiLeave()
}

// Sync implements Window: MPI_WIN_SYNC, the memory barrier Casper must
// add to its fence translation (Section III-C1).
func (w *Win) Sync() {
	w.r.mpiEnter()
	w.r.mpiLeave()
}

// Acquire forces acquisition of the (lazily requested) lock on target,
// blocking until it is granted. MPI implementations do this inside
// flush; Casper calls it explicitly so that a flush opens the
// static-binding-free interval on every ghost of the node (III-B-3).
func (w *Win) Acquire(target int) {
	r := w.r
	r.mpiEnter()
	defer r.mpiLeave()
	ts := w.lookupTarget(target)
	if ts == nil || !ts.locked {
		if w.lockAll {
			ts = w.target(target)
			ts.locked = true
			ts.viaAll = true
			ts.lock = LockShared
		} else {
			panic(fmt.Sprintf("mpi: Acquire of target %d without passive epoch", target))
		}
	}
	if !ts.requested {
		w.requestLock(target, ts)
	}
	ts.granted.Await(r.proc, "MPI_Win lock acquire")
}

// requestLock sends the (possibly deferred) lock request to the
// target's lock manager and arranges for ts.granted to complete when the
// grant message returns. Queued operations are released on grant.
func (w *Win) requestLock(target int, ts *targetState) {
	r := w.r
	ts.requested = true
	mgr := w.g.lockMgr(target)
	excl := ts.lock == LockExclusive
	origin := w.me
	var wire sim.Duration
	if target != w.me {
		wire = r.transferTo(w.g.comm.ranks[target], 16)
	}
	tr := w.g.rankOf(target)
	grant := func() {
		// Runs when the manager grants the lock; the grant message then
		// travels back to the origin.
		var back sim.Duration
		if target != w.me {
			back = tr.transferTo(w.g.comm.ranks[origin], 16)
		}
		r.eng.After(back, func() {
			ts.granted.Complete()
			queued := ts.queued
			ts.queued = nil
			for _, op := range queued {
				// Re-issue from the origin's window handle; the op
				// already carries all its state.
				w.send(op)
			}
		})
	}
	r.eng.After(wire, func() { mgr.request(&lockReq{origin: origin, excl: excl, grant: grant}) })
}
