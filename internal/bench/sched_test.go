package bench

// TestSchedHeapLadderIdentical is the experiment-level half of the
// scheduler identity contract (the structure-level half is the
// lockstep fuzz in internal/sim/ladder_test.go): real experiments,
// rendered to bytes, must not move when the event scheduler flips
// between the ladder queue and the heap oracle.

import (
	"testing"

	"repro/internal/sim"
)

// withScheduler runs f under k and restores the package default.
func withScheduler(k sim.SchedulerKind, f func()) {
	prev := Scheduler()
	SetScheduler(k)
	defer SetScheduler(prev)
	f()
}

func TestSchedHeapLadderIdentical(t *testing.T) {
	cases := []struct {
		id string
		o  Options
	}{
		{"fig5a", Options{Scale: 0.12, Seed: 42, Parallel: 1}},
		{"fig5b", Options{Scale: 0.12, Seed: 42, Parallel: 1}},
		{"faultrecover", Options{Scale: 0.25, Seed: 42, Parallel: 1}},
	}
	for _, c := range cases {
		e, ok := Get(c.id)
		if !ok {
			t.Fatalf("%s not registered", c.id)
		}
		var lad, heap string
		withScheduler(sim.SchedLadder, func() { lad = e.Run(c.o).CSV() })
		withScheduler(sim.SchedHeap, func() { heap = e.Run(c.o).CSV() })
		if lad != heap {
			t.Errorf("%s: ladder and heap render different bytes:\n--- ladder ---\n%s--- heap ---\n%s",
				c.id, lad, heap)
		}
	}
}
