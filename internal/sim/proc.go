package sim

import "fmt"

type procState int

const (
	stateNew procState = iota
	stateRunning
	stateParked
	stateDone
)

// Proc is a simulated process: a coroutine of the Engine, which resumes
// it when one of its events fires and regains control when it parks or
// returns. All Proc methods must be called from the process itself
// while it is running.
type Proc struct {
	eng        *Engine
	id         int
	name       string
	next       func() (struct{}, bool) // resume; false once fn has returned
	yield      func(struct{}) bool     // suspend back to the engine
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
// running, eliding two coroutine switches and a scheduler push/pop. The
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
// deadlock reports. Control goes straight back to the engine, which
// resumes the process from Run when its wakeup event fires.
func (p *Proc) park(reason string) {
	p.state = stateParked
	p.parkReason = reason
	p.yield(struct{}{})
	p.state = stateRunning
	p.parkReason = ""
}

// resumeFromEngine runs the process from engine context until it parks
// or returns. A panic in the process comes out of here, and so out of
// Run, with its original value.
func (p *Proc) resumeFromEngine() {
	if _, ok := p.next(); !ok {
		p.state = stateDone
		p.eng.live--
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
