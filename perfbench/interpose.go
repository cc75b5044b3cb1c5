package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// callKind groups the Window calls the interposer counts.
type callKind int

const (
	kindPut    callKind = iota // Put, RPut
	kindGet                    // Get, RGet
	kindAcc                    // Accumulate, GetAccumulate
	kindAtomic                 // FetchAndOp, CompareAndSwap
	kindSync                   // Flush, FlushAll, Unlock, UnlockAll
	numKinds
)

var kindNames = [numKinds]string{"put", "get", "acc", "atomic", "sync"}

// mixKey is one (locality, size, contiguity) class of RMA payload, the
// inputs of the network model's cost functions.
type mixKey struct {
	loc        netmodel.Locality
	size       int
	contiguous bool
}

// setupClock records the host instants that bound a world's set-up:
// when Casper's Init first ran and when the last user rank returned
// from its first WinAllocate.
type setupClock struct {
	coreStart time.Time
	lastAlloc time.Time
}

func (s *setupClock) noteCoreInit() {
	if s.coreStart.IsZero() {
		s.coreStart = time.Now()
	}
}

func (s *setupClock) noteAlloc() {
	if t := time.Now(); t.After(s.lastAlloc) {
		s.lastAlloc = t
	}
}

// tracer is the state of the PMPI-style timing interposer: per call
// kind it counts calls, payload bytes and the simulated time the
// calling process spent inside the call. The simulation runs one
// process at a time, so the counters need no locking.
type tracer struct {
	place *cluster.Placement
	calls [numKinds]int64
	bytes [numKinds]int64
	wait  [numKinds]sim.Duration
	mix   map[mixKey]int64
}

func newTracer() *tracer { return &tracer{mix: make(map[mixKey]int64)} }

// setupEnv wraps an Env only to stamp the setupClock when a rank
// returns from its first WinAllocate; windows pass through unwrapped.
type setupEnv struct {
	mpi.Env
	clock *setupClock
	done  bool
}

func (e *setupEnv) WinAllocate(comm *mpi.Comm, size int, info mpi.Info) (mpi.Window, []byte) {
	w, buf := e.Env.WinAllocate(comm, size, info)
	if !e.done {
		e.done = true
		e.clock.noteAlloc()
	}
	return w, buf
}

// tracedEnv is setupEnv plus the interposer: every window it creates
// is wrapped in a tracedWin.
type tracedEnv struct {
	setupEnv
	t *tracer
}

func (e *tracedEnv) WinAllocate(comm *mpi.Comm, size int, info mpi.Info) (mpi.Window, []byte) {
	w, buf := e.setupEnv.WinAllocate(comm, size, info)
	return &tracedWin{Window: w, t: e.t, env: e.Env, comm: comm}, buf
}

// wrapEnv returns env wrapped for set-up timing, and for tracing when
// t is non-nil.
func wrapEnv(env mpi.Env, clock *setupClock, t *tracer) mpi.Env {
	if t == nil {
		return &setupEnv{Env: env, clock: clock}
	}
	return &tracedEnv{setupEnv: setupEnv{Env: env, clock: clock}, t: t}
}

// tracedWin forwards every call to the wrapped Window and records the
// communication and completion calls.
type tracedWin struct {
	mpi.Window
	t    *tracer
	env  mpi.Env
	comm *mpi.Comm
}

func (w *tracedWin) note(k callKind, target, n int, dt mpi.Datatype, t0 sim.Time) {
	w.t.calls[k]++
	w.t.bytes[k] += int64(n)
	w.t.wait[k] += w.env.Now().Sub(t0)
	if w.t.place != nil {
		a, b := w.comm.WorldRank(w.comm.Rank()), w.comm.WorldRank(target)
		loc := netmodel.LocalityOf(w.t.place.SameNode(a, b), w.t.place.SameNUMA(a, b))
		w.t.mix[mixKey{loc, n, dt.Contiguous()}]++
	}
}

func (w *tracedWin) sync(t0 sim.Time) {
	w.t.calls[kindSync]++
	w.t.wait[kindSync] += w.env.Now().Sub(t0)
}

func (w *tracedWin) Put(src []byte, target, disp int, dt mpi.Datatype) {
	t0 := w.env.Now()
	w.Window.Put(src, target, disp, dt)
	w.note(kindPut, target, len(src), dt, t0)
}

func (w *tracedWin) RPut(src []byte, target, disp int, dt mpi.Datatype) *mpi.RMARequest {
	t0 := w.env.Now()
	r := w.Window.RPut(src, target, disp, dt)
	w.note(kindPut, target, len(src), dt, t0)
	return r
}

func (w *tracedWin) Get(dst []byte, target, disp int, dt mpi.Datatype) {
	t0 := w.env.Now()
	w.Window.Get(dst, target, disp, dt)
	w.note(kindGet, target, len(dst), dt, t0)
}

func (w *tracedWin) RGet(dst []byte, target, disp int, dt mpi.Datatype) *mpi.RMARequest {
	t0 := w.env.Now()
	r := w.Window.RGet(dst, target, disp, dt)
	w.note(kindGet, target, len(dst), dt, t0)
	return r
}

func (w *tracedWin) Accumulate(src []byte, target, disp int, dt mpi.Datatype, op mpi.Op) {
	t0 := w.env.Now()
	w.Window.Accumulate(src, target, disp, dt, op)
	w.note(kindAcc, target, len(src), dt, t0)
}

func (w *tracedWin) GetAccumulate(src, result []byte, target, disp int, dt mpi.Datatype, op mpi.Op) {
	t0 := w.env.Now()
	w.Window.GetAccumulate(src, result, target, disp, dt, op)
	w.note(kindAcc, target, len(src), dt, t0)
}

func (w *tracedWin) FetchAndOp(src, result []byte, target, disp int, b mpi.BasicType, op mpi.Op) {
	t0 := w.env.Now()
	w.Window.FetchAndOp(src, result, target, disp, b, op)
	w.note(kindAtomic, target, b.Size(), mpi.Scalar(b), t0)
}

func (w *tracedWin) CompareAndSwap(compare, origin, result []byte, target, disp int, b mpi.BasicType) {
	t0 := w.env.Now()
	w.Window.CompareAndSwap(compare, origin, result, target, disp, b)
	w.note(kindAtomic, target, b.Size(), mpi.Scalar(b), t0)
}

func (w *tracedWin) Flush(target int) {
	t0 := w.env.Now()
	w.Window.Flush(target)
	w.sync(t0)
}

func (w *tracedWin) FlushAll() {
	t0 := w.env.Now()
	w.Window.FlushAll()
	w.sync(t0)
}

func (w *tracedWin) Unlock(target int) {
	t0 := w.env.Now()
	w.Window.Unlock(target)
	w.sync(t0)
}

func (w *tracedWin) UnlockAll() {
	t0 := w.env.Now()
	w.Window.UnlockAll()
	w.sync(t0)
}
