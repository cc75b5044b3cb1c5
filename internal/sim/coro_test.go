package sim

import (
	"reflect"
	"runtime"
	"testing"
)

// procPanic is a panic value whose identity the engine must preserve.
type procPanic struct{ msg string }

// TestProcPanicComesOutOfRun checks that a panic inside a process
// leaves Run with its original value, whether or not a watchdog is
// armed, while another process is parked.
func TestProcPanicComesOutOfRun(t *testing.T) {
	for _, watchdog := range []bool{false, true} {
		e := New(1)
		if watchdog {
			e.SetWatchdog(1_000_000, Time(Second))
		}
		want := &procPanic{"boom"}
		var never Signal
		e.Spawn("waiter", func(p *Proc) { never.Wait(p, "forever") })
		e.Spawn("bomb", func(p *Proc) {
			p.Advance(Microsecond)
			panic(want)
		})
		got := func() (r interface{}) {
			defer func() { r = recover() }()
			_ = e.Run()
			return nil
		}()
		if got != want {
			t.Errorf("watchdog=%v: Run panicked with %v, want %v", watchdog, got, want)
		}
	}
}

// TestKillParkedProcess kills a process parked in a Signal wait: a later
// broadcast must not resume it, and the run ends without a deadlock.
func TestKillParkedProcess(t *testing.T) {
	e := New(1)
	var sig Signal
	resumed := false
	victim := e.Spawn("victim", func(p *Proc) {
		sig.Wait(p, "signal")
		resumed = true
	})
	e.Spawn("killer", func(p *Proc) {
		p.Advance(10 * Microsecond)
		e.Kill(victim)
		sig.Broadcast()
		p.Advance(10 * Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if resumed || !victim.Killed() || victim.Done() {
		t.Fatalf("resumed=%v killed=%v done=%v, want false true false",
			resumed, victim.Killed(), victim.Done())
	}
}

// TestFreezeThawParkedProcess freezes a process parked in Advance and
// one not yet started: the wakeups that fall inside the freeze are
// swallowed and replayed once at Thaw.
func TestFreezeThawParkedProcess(t *testing.T) {
	e := New(1)
	var ticks []Time
	var late Time
	ticker := e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(10 * Microsecond)
			ticks = append(ticks, p.Now())
		}
	})
	starter := e.SpawnAt(Time(5*Microsecond), "late", func(p *Proc) { late = p.Now() })
	e.Spawn("control", func(p *Proc) {
		if !e.Freeze(starter) {
			t.Error("Freeze of an unstarted process did not take effect")
		}
		p.Advance(15 * Microsecond)
		if !e.Freeze(ticker) || !ticker.Frozen() {
			t.Error("Freeze of a parked process did not take effect")
		}
		p.Advance(30 * Microsecond)
		e.Thaw(ticker)
		e.Thaw(starter)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []Time{Time(10 * Microsecond), Time(45 * Microsecond), Time(55 * Microsecond)}
	if !reflect.DeepEqual(ticks, want) {
		t.Errorf("ticker resumed at %v, want %v", ticks, want)
	}
	if late != Time(45*Microsecond) {
		t.Errorf("late process started at %v, want 45us", late)
	}
	if !ticker.Done() || !starter.Done() {
		t.Error("thawed processes did not run to completion")
	}
}

// TestFinishedProcessesReleaseGoroutines checks that once every process
// has returned, none of their goroutines is left behind.
func TestFinishedProcessesReleaseGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(1)
	var sig Signal
	turn := 0
	for i := 0; i < 32; i++ {
		e.Spawn("p", func(p *Proc) {
			p.Advance(Duration(i) * Microsecond)
			for turn < 32 {
				turn++
				sig.Broadcast()
				sig.Wait(p, "turn")
			}
			sig.Broadcast()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after the run, %d before", after, before)
	}
}
