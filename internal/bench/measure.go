package bench

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/mpi"
)

// Measurement is one timed experiment run: the wall-clock cost of
// simulating, with the simulator's own throughput counters. Events come
// from mpi.TotalEventsExecuted deltas (every World.Run adds its
// engine's executed-event count), allocations from runtime.MemStats
// Mallocs deltas — both process-wide, so measure one run at a time.
//
// Contract for multi-goroutine runs (Options.Parallel > 1): Events and
// EventsPerSec stay exact — the counter is an atomic every world adds
// to regardless of which worker runs it. Mallocs does not: the
// process-wide delta picks up worker-goroutine stacks and scheduler
// bookkeeping on top of the event loop's own allocations, so
// AllocsPerEvent is only comparable against a committed baseline when
// measured with Parallel <= 1. The casperbench allocgate therefore
// always gates on the serial measurement (see cmd/casperbench
// runBench), never on a parallel one.
type Measurement struct {
	Experiment     string  `json:"experiment"`
	Parallel       int     `json:"parallel"`
	GOMAXPROCS     int     `json:"gomaxprocs"` // runtime.GOMAXPROCS during this run
	WallSeconds    float64 `json:"wall_seconds"`
	Events         int64   `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	InlinedEvents  int64   `json:"inlined_events"` // Advance calls completed inline (run-to-completion)
	Mallocs        uint64  `json:"mallocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// PeakQueueResidency is the deepest any engine's scheduler queue
	// got during the run (max across worlds) —
	// the working-set size the ladder queue's bucket quantization is
	// tuned around. See sim.Engine.PeakQueueResidency.
	PeakQueueResidency int    `json:"peak_queue_residency"`
	CSV                string `json:"-"` // rendered output, for bit-identity checks
}

// Measure runs the experiment once under o and returns its measurement.
func Measure(e Experiment, o Options) Measurement {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ev0 := mpi.TotalEventsExecuted()
	in0 := mpi.TotalInlinedAdvances()
	mpi.TakePeakQueueResidency() // discard history; read the interval's peak below
	t0 := time.Now()
	res := e.Run(o)
	wall := time.Since(t0).Seconds()
	events := mpi.TotalEventsExecuted() - ev0
	runtime.ReadMemStats(&after)
	m := Measurement{
		Experiment:         e.ID,
		Parallel:           o.Parallel,
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		WallSeconds:        wall,
		Events:             events,
		InlinedEvents:      mpi.TotalInlinedAdvances() - in0,
		Mallocs:            after.Mallocs - before.Mallocs,
		PeakQueueResidency: mpi.TakePeakQueueResidency(),
		CSV:                res.CSV(),
	}
	if wall > 0 {
		m.EventsPerSec = float64(events) / wall
	}
	if events > 0 {
		m.AllocsPerEvent = float64(m.Mallocs) / float64(events)
	}
	return m
}

// MeasureN runs the experiment count times and returns every round plus
// the round with the median events/sec (the lower middle for even
// counts). Repeating and taking the median is the defense against a
// noisy measurement host: simulated results are bit-identical across
// rounds — MeasureN panics if they are not — so rounds differ only in
// wall-clock terms. The casperbench -benchcount flag drives this.
func MeasureN(e Experiment, o Options, count int) (rounds []Measurement, median Measurement) {
	if count < 1 {
		count = 1
	}
	rounds = make([]Measurement, count)
	for i := range rounds {
		rounds[i] = Measure(e, o)
		if rounds[i].CSV != rounds[0].CSV {
			panic("bench: output differs between measurement rounds of " + e.ID)
		}
	}
	byRate := append([]Measurement(nil), rounds...)
	sort.Slice(byRate, func(i, j int) bool { return byRate[i].EventsPerSec < byRate[j].EventsPerSec })
	return rounds, byRate[(count-1)/2]
}
