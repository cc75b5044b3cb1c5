package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// The layer probes time one layer in isolation through its public
// functions, sized by what the traced run measured. Each reports the
// median of probeRounds rounds in host nanoseconds per operation.
const probeRounds = 5

func probe(ops int, round func()) float64 {
	ns := make([]float64, probeRounds)
	for i := range ns {
		t0 := time.Now()
		round()
		ns[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(ns)
}

// holdRunner is one pending event of the hold model: each Step
// reschedules itself at a pseudo-random offset until the budget is spent.
type holdRunner struct {
	e    *sim.Engine
	h    *holdState
	offs []sim.Duration
}

type holdState struct{ left, next int }

func (r *holdRunner) Step() {
	if r.h.left == 0 {
		return
	}
	r.h.left--
	r.h.next++
	r.e.AfterRun(r.offs[r.h.next%len(r.offs)], r)
}

// schedProbe is the hold model through sim.New, AtRun and Run: a steady
// queue of depth pending events, each pop pushing a successor. The
// offsets mirror the cost models: mostly sub-microsecond service steps,
// some bucket-width gaps, a tail of multi-microsecond transfers.
func schedProbe(depth int) float64 {
	const events = 1 << 20
	rng := rand.New(rand.NewSource(1))
	offs := make([]sim.Duration, 1024)
	for i := range offs {
		switch rng.Intn(10) {
		case 0, 1:
			offs[i] = sim.Duration(rng.Intn(32 << 10))
		case 2:
			offs[i] = sim.Duration(rng.Int63n(int64(sim.Microseconds(40))))
		default:
			offs[i] = sim.Duration(rng.Int63n(int64(sim.Microseconds(1))))
		}
	}
	return probe(events, func() {
		e := sim.New(1)
		h := &holdState{left: events}
		for i := 0; i < depth; i++ {
			e.AtRun(sim.Time(offs[i%len(offs)]), &holdRunner{e: e, h: h, offs: offs})
		}
		e.MustRun()
	})
}

// handoffProbe spawns procs simulated processes that all Advance in
// lockstep, so every event parks one goroutine and resumes the next:
// the park/resume cost of a world with that many processes.
func handoffProbe(procs int) float64 {
	const advances = 1 << 18
	per := advances / procs
	return probe(per*procs, func() {
		e := sim.New(1)
		for i := 0; i < procs; i++ {
			e.Spawn("p", func(p *sim.Proc) {
				for k := 0; k < per; k++ {
					p.Advance(sim.Microsecond)
				}
			})
		}
		e.MustRun()
	})
}

// netSink keeps the network-model probe's results live.
var netSink sim.Duration

// netmodelProbe replays the traced payload mix through a fresh Memo:
// one TransferLoc and one AMCost per operation.
func netmodelProbe(net *netmodel.Params, mix map[mixKey]int64) float64 {
	keys := make([]mixKey, 0, len(mix))
	var total int64
	for k, n := range mix {
		keys = append(keys, k)
		total += n
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.loc != b.loc {
			return a.loc < b.loc
		}
		if a.size != b.size {
			return a.size < b.size
		}
		return !a.contiguous && b.contiguous
	})
	// A 4096-entry sequence with each class in proportion to its count
	// (at least once), shuffled deterministically.
	const seqLen = 4096
	var seq []mixKey
	for _, k := range keys {
		c := int(mix[k] * seqLen / total)
		if c < 1 {
			c = 1
		}
		for i := 0; i < c; i++ {
			seq = append(seq, k)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	const ops = 1 << 21
	return probe(ops, func() {
		m := netmodel.NewMemo(net)
		var acc sim.Duration
		for i := 0; i < ops; i++ {
			k := seq[i%len(seq)]
			acc += m.TransferLoc(k.loc, k.size) + m.AMCost(k.size, k.contiguous)
		}
		netSink = acc
	})
}
