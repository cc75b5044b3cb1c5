package sim

import "fmt"

type procState int

const (
	stateNew procState = iota
	stateRunning
	stateParked
	stateDone
)

// Proc is a simulated process: a goroutine scheduled cooperatively by the
// Engine. All Proc methods must be called from the process's own
// goroutine while it is running.
type Proc struct {
	eng        *Engine
	id         int
	name       string
	resume     chan struct{}
	state      procState
	parkReason string
	killed     bool // Engine.Kill called: never resume again

	// Engine.Freeze state: while frozen, resume/start events addressed
	// to this process are swallowed; deferredWake records that at least
	// one was, so Thaw can replay a single coalesced wakeup.
	frozen       bool
	deferredWake bool
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// ID returns the process's spawn index, unique within its engine.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// Advance consumes d of virtual time, modeling computation or a fixed
// latency. Other processes and events run in the meantime.
//
// Run-to-completion fast path: when nothing else is scheduled before
// now+d, the park/resume round trip is pure overhead — the engine would
// immediately pop this process's own resume event and switch straight
// back. In that case the clock advances inline and the process keeps
// running, eliding two goroutine switches and a heap push/pop. The
// observable schedule is identical (see Engine.advanceInlineOK).
func (p *Proc) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s advancing by negative duration %v", p.name, d))
	}
	if d == 0 {
		return
	}
	e := p.eng
	t := e.now.Add(d)
	if e.advanceInlineOK(t) {
		e.noteInlineAdvance(t)
		return
	}
	e.atResume(t, p)
	p.park("advancing")
}

// AdvanceTo consumes virtual time until at least time t. It is a no-op if
// t is not in the future.
func (p *Proc) AdvanceTo(t Time) {
	if t > p.eng.now {
		p.Advance(t.Sub(p.eng.now))
	}
}

// park blocks the process until something resumes it. reason appears in
// deadlock reports. With the run-to-completion fast paths enabled the
// parked process drives the event loop itself instead of bouncing
// through the engine goroutine (see drive); otherwise the yield deposit
// never blocks (one-slot semaphore under strict alternation), so a park
// is a single blocking channel operation.
func (p *Proc) park(reason string) {
	p.state = stateParked
	p.parkReason = reason
	e := p.eng
	if e.driveOK() {
		p.drive()
	} else {
		e.yield <- struct{}{}
		<-p.resume
	}
	p.state = stateRunning
	p.parkReason = ""
}

// drive runs the event loop from the parked process's own goroutine.
// fn/Runner events execute inline with no channel traffic at all; when
// the process's own resume event comes up it simply keeps running; a
// resume of a different process is handed off goroutine-to-goroutine,
// halving the switch cost of the park → engine → resume round trip.
// Event order is exactly Run's — drive pops the same queues in the same
// order and shares Run's bookkeeping (execOne) — so a run is
// bit-identical whether the engine or a process drives. The engine
// goroutine stays blocked in transfer throughout and only takes over
// again when a process exits or the queues drain.
func (p *Proc) drive() {
	e := p.eng
	var ev event
	for {
		if !e.nextEvent(&ev) {
			// Nothing can ever wake us: hand back to Run, which
			// reports the deadlock (or finishes, after a kill).
			e.yield <- struct{}{}
			<-p.resume
			return
		}
		if ev.bg && e.live <= 0 {
			continue
		}
		if q := e.execOne(ev); q != nil {
			if q == p {
				return // own wakeup: keep running, zero channel ops
			}
			q.resume <- struct{}{}
			<-p.resume
			return
		}
	}
}

// wake schedules the parked process to resume at the current virtual
// time. It must only be called on a process that is parked (or will
// remain parked until the event fires), which the synchronization
// primitives in this package guarantee — the engine's resume dispatch
// panics otherwise.
func (p *Proc) wake() {
	p.eng.atResume(p.eng.now, p)
}

// Killed reports whether Engine.Kill has terminated this process.
func (p *Proc) Killed() bool { return p.killed }

// Done reports whether the process's function has returned.
func (p *Proc) Done() bool { return p.state == stateDone }

// Frozen reports whether Engine.Freeze currently suspends this process.
func (p *Proc) Frozen() bool { return p.frozen }

// Signal is a broadcast condition variable in virtual time. Processes
// Wait on it after observing an unsatisfied predicate; any simulation
// context that changes the predicate calls Broadcast. Waiters must
// re-check their predicate after waking (wakeups can be spurious when
// several processes share a Signal).
type Signal struct {
	waiters []*Proc
}

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc, reason string) {
	s.waiters = append(s.waiters, p)
	p.park(reason)
}

// Broadcast wakes every current waiter.
func (s *Signal) Broadcast() {
	ws := s.waiters
	if len(ws) == 0 {
		return
	}
	// Reuse the backing array: wake only schedules resume events, so no
	// waiter re-registers until after this loop returns (strict
	// alternation), and re-Waits then overwrite slots already consumed.
	s.waiters = ws[:0]
	for _, p := range ws {
		p.wake()
	}
}

// Completion is a one-shot future: it transitions to done exactly once
// and releases every process awaiting it. The zero value is ready to use.
type Completion struct {
	done bool
	sig  Signal
}

// Done reports whether Complete has been called.
func (c *Completion) Done() bool { return c.done }

// Complete marks the completion done and wakes all awaiters. Completing
// twice is a no-op.
func (c *Completion) Complete() {
	if c.done {
		return
	}
	c.done = true
	c.sig.Broadcast()
}

// Await parks p until the completion is done. Returns immediately if it
// already is.
func (c *Completion) Await(p *Proc, reason string) {
	for !c.done {
		c.sig.Wait(p, reason)
	}
}

// CompletionSet tracks a dynamic count of outstanding operations and lets
// a process wait for the count to reach zero. It is the simulation
// analogue of a WaitGroup.
type CompletionSet struct {
	pending int
	sig     Signal
}

// Add notes n more outstanding operations.
func (c *CompletionSet) Add(n int) { c.pending += n }

// Done notes one operation finished and wakes waiters when none remain.
func (c *CompletionSet) Done() {
	c.pending--
	if c.pending < 0 {
		panic("sim: CompletionSet.Done without matching Add")
	}
	if c.pending == 0 {
		c.sig.Broadcast()
	}
}

// Pending returns the number of outstanding operations.
func (c *CompletionSet) Pending() int { return c.pending }

// Wait parks p until no operations are outstanding.
func (c *CompletionSet) Wait(p *Proc, reason string) {
	for c.pending > 0 {
		c.sig.Wait(p, reason)
	}
}
