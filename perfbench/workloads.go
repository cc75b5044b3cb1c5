package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/tce"
)

// The simulated nodes mirror the paper's Cray XC30: 24 cores in two
// NUMA domains.
const (
	coresPerNode = 24
	numaPerNode  = 2
)

// repCtx is what one repetition of a workload receives.
type repCtx struct {
	seed    int64
	scale   float64 // 1 is the benchmark's size; the smoke tests use less
	tracer  *tracer // nil in untraced repetitions
	perturb bool    // self-test: corrupt one expected value
}

// scaled shrinks a size by the context's scale, keeping at least lo.
func (c *repCtx) scaled(v, lo int) int {
	if s := int(math.Round(float64(v) * c.scale)); s > lo {
		return s
	}
	return lo
}

// repOut is what one repetition reports back. Everything except the
// host-time fields is a deterministic function of the workload, seed
// and scale.
type repOut struct {
	failures []string
	// fingerprint renders the simulated statistics that must repeat
	// exactly: end time and summary counters (the event count is left
	// out, so engine changes that fuse or split events do not trip it).
	fingerprint string

	summary   mpi.WorldSummary
	events    int64
	inlined   int64
	peakQueue int
	ghostAMs  int64 // software AMs served by Casper ghost ranks

	setup     time.Duration // world construction to the last user's first WinAllocate
	coreSetup time.Duration // first core.Init to the last user's first WinAllocate
}

func (o *repOut) failf(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// workload is one named benchmark input.
type workload struct {
	name string
	run  func(c *repCtx) repOut
	// world is the world run builds and the size of its first window;
	// setupProbe times its set-up.
	world func(c *repCtx) (worldSpec, int)
}

var workloads = []workload{
	{"acc_casper", accCasper, accWorld},
	{"put_plain_hw", putPlainHW, putWorld},
	{"ccsd_ga", ccsdGA, ccsdWorld},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// worldSpec is a world to build: ghosts > 0 deploys Casper on it.
type worldSpec struct {
	nodes, ppn, ghosts int
	net                func() *netmodel.Params
	prog               mpi.ProgressMode
}

// runWorld builds the world, runs body on every user process (through
// the set-up clock and, when tracing, the interposer), and fills the
// simulator and MPI counters of out.
func runWorld(c *repCtx, ws worldSpec, body func(env mpi.Env)) repOut {
	var out repOut
	var clock setupClock
	n := ws.nodes * ws.ppn
	m := cluster.Machine{Nodes: ws.nodes, CoresPerNode: coresPerNode, NUMAPerNode: numaPerNode}
	t0 := time.Now()
	w, err := mpi.NewWorld(mpi.Config{
		Machine: m, N: n, PPN: ws.ppn, Net: ws.net(), Seed: c.seed, Progress: ws.prog,
	})
	if err != nil {
		out.failf("world: %v", err)
		return out
	}
	if c.tracer != nil {
		c.tracer.place = w.Placement()
	}
	w.Launch(func(r *mpi.Rank) {
		var env mpi.Env = r
		if ws.ghosts > 0 {
			clock.noteCoreInit()
			p, ghost := core.Init(r, core.Config{NumGhosts: ws.ghosts})
			if ghost {
				return
			}
			defer p.Finalize()
			env = p
		}
		body(wrapEnv(env, &clock, c.tracer))
	})
	if err := w.Run(); err != nil {
		out.failf("run: %v", err)
		return out
	}
	out.setup = clock.lastAlloc.Sub(t0)
	if ws.ghosts > 0 {
		out.coreSetup = clock.lastAlloc.Sub(clock.coreStart)
		ghosts, err := core.GhostRanks(m, n, ws.ppn, ws.ghosts)
		if err != nil {
			out.failf("ghosts: %v", err)
		}
		for _, gs := range ghosts {
			for _, g := range gs {
				out.ghostAMs += w.RankByID(g).Stats().SoftwareAMs
			}
		}
	}
	eng := w.Engine()
	out.summary = w.Summary()
	out.events = eng.EventsExecuted()
	out.inlined = eng.InlinedAdvances()
	out.peakQueue = eng.PeakQueueResidency()
	s := out.summary
	s.PeakQueueResidency = 0 // a scheduler property, not a simulated result
	out.fingerprint = fmt.Sprintf("%+v", s)
	return out
}

// The all-to-all storm runs a2aIters iterations of a2aOpsPerPeer
// operations to each peer.
const (
	a2aIters      = 5
	a2aOpsPerPeer = 11
)

// a2aValue is the seeded value origin sends target in one operation: an
// integer from 1 to 1024, so every accumulated sum is exact in float64.
func a2aValue(seed int64, origin, target, iter, op int) float64 {
	h := uint64(seed)
	for _, v := range [...]int{origin, target, iter, op} {
		h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return float64(1 + h%1024)
}

// allToAll is the Section IV-B-2 pattern of fig5: every process issues
// one 8-byte RMA op to each peer, computes ~100us (with seeded per-rank
// jitter), issues ten more ops to each peer, and flushes; five times.
// Accumulates add into one slot per origin; puts write a slot per
// (origin, op index), so no two puts of one epoch overlap and the final
// contents are the last iteration's values. Every rank then checks its
// whole window.
func allToAll(c *repCtx, ws worldSpec, users int, put bool) repOut {
	slots := users
	if put {
		slots = users * a2aOpsPerPeer
	}
	var fails []string
	maxEl := sim.Duration(0)
	out := runWorld(c, ws, func(env mpi.Env) {
		me, size := env.Rank(), env.Size()
		comm := env.CommWorld()
		win, buf := env.WinAllocate(comm, 8*slots, nil)
		rng := rand.New(rand.NewSource(c.seed + 0x9E3779B9*int64(me+1)))
		dt := mpi.Scalar(mpi.Float64)
		issue := func(t, iter, op int) {
			v := mpi.PutFloat64s([]float64{a2aValue(c.seed, me, t, iter, op)})
			if put {
				win.Put(v, t, 8*(me*a2aOpsPerPeer+op), dt)
			} else {
				win.Accumulate(v, t, 8*me, dt, mpi.OpSum)
			}
		}
		comm.Barrier()
		start := env.Now()
		win.LockAll(mpi.AssertNone)
		for iter := 0; iter < a2aIters; iter++ {
			for t := 0; t < size; t++ {
				if t != me {
					issue(t, iter, 0)
				}
			}
			env.Compute(sim.Microseconds(100) + sim.Duration(rng.Int63n(int64(sim.Microseconds(100)))))
			for op := 1; op < a2aOpsPerPeer; op++ {
				for t := 0; t < size; t++ {
					if t != me {
						issue(t, iter, op)
					}
				}
			}
			win.FlushAll()
		}
		win.UnlockAll()
		comm.Barrier()
		if el := env.Now().Sub(start); el > maxEl {
			maxEl = el
		}
		got := mpi.GetFloat64s(buf)
		for o := 0; o < size; o++ {
			for op := 0; op < a2aOpsPerPeer; op++ {
				var want, have float64
				switch {
				case o == me:
				case put:
					want = a2aValue(c.seed, o, me, a2aIters-1, op)
				case op == 0:
					for iter := 0; iter < a2aIters; iter++ {
						for k := 0; k < a2aOpsPerPeer; k++ {
							want += a2aValue(c.seed, o, me, iter, k)
						}
					}
				default:
					continue
				}
				if c.perturb && me == 0 && o == 1 && op == 0 {
					want++
				}
				if put {
					have = got[o*a2aOpsPerPeer+op]
				} else {
					have = got[o]
				}
				if have != want {
					fails = append(fails, fmt.Sprintf("rank %d slot of origin %d op %d: %v, want %v", me, o, op, have, want))
				}
			}
		}
		win.Free()
	})
	out.failures = append(out.failures, fails...)
	out.fingerprint += fmt.Sprintf(" elapsed=%v", maxEl)
	return out
}

// accWorld is fig5a's Casper configuration: the regular XC30 model (all
// RMA in software), one user and one ghost process per node.
func accWorld(c *repCtx) (worldSpec, int) {
	users := c.scaled(48, 4)
	return worldSpec{nodes: users, ppn: 2, ghosts: 1,
		net: netmodel.CrayXC30, prog: mpi.ProgressNone}, 8 * users
}

// accCasper is fig5a's accumulate storm over Casper.
func accCasper(c *repCtx) repOut {
	ws, _ := accWorld(c)
	return allToAll(c, ws, ws.nodes, false)
}

// putWorld is plain MPI over the DMAPP model, where contiguous puts
// complete in simulated NIC hardware; one process per node.
func putWorld(c *repCtx) (worldSpec, int) {
	ranks := c.scaled(64, 4)
	return worldSpec{nodes: ranks, ppn: 1,
		net: netmodel.CrayXC30DMAPP, prog: mpi.ProgressInterrupt}, 8 * ranks * a2aOpsPerPeer
}

// putPlainHW is the same storm with puts, on putWorld.
func putPlainHW(c *repCtx) repOut {
	ws, _ := putWorld(c)
	return allToAll(c, ws, ws.nodes, true)
}

// ccsdParams sizes the CCSD loop like fig8a (48x48 tiles, about three
// tasks per core). The seed sets the simulated DGEMM speed within
// +-4%, which reorders the task-counter races without changing the
// amount of work.
func ccsdParams(c *repCtx, nodes int) tce.Params {
	tiles := int(math.Ceil(math.Sqrt(float64(3 * nodes * coresPerNode))))
	rng := rand.New(rand.NewSource(c.seed))
	return tce.Params{TilesPerDim: tiles, TileSize: 48, Phase: tce.PhaseCCSD,
		GemmNsPerFlop: 0.25 * (0.96 + 0.08*rng.Float64())}
}

// ccsdWorld is Table I's Casper deployment: 24 processes per node, four
// of them ghosts. Its first window is one rank's block of tile array A.
func ccsdWorld(c *repCtx) (worldSpec, int) {
	nodes := c.scaled(8, 1)
	var dep tce.Deployment
	for _, d := range tce.Deployments(coresPerNode) {
		if d.Name == "Casper" {
			dep = d
		}
	}
	p := ccsdParams(c, nodes)
	n := p.TilesPerDim * p.TileSize
	users := nodes * (dep.PPN - dep.Ghosts)
	return worldSpec{nodes: nodes, ppn: dep.PPN, ghosts: dep.Ghosts,
		net: netmodel.CrayXC30, prog: dep.Progress}, 8 * n * n / users
}

// ccsdGA is the NWChem-like CCSD loop of tce over Global Arrays on
// Casper: remote tile Gets, a simulated DGEMM, an Acc, and a
// fetch-and-op task counter.
func ccsdGA(c *repCtx) repOut {
	ws, _ := ccsdWorld(c)
	p := ccsdParams(c, ws.nodes)
	tasks := 0
	maxEl := sim.Duration(0)
	out := runWorld(c, ws, func(env mpi.Env) {
		res := tce.Run(env, p)
		tasks += res.Tasks
		if res.Elapsed > maxEl {
			maxEl = res.Elapsed
		}
	})
	want := p.TilesPerDim * p.TilesPerDim
	if c.perturb {
		want++
	}
	if tasks != want {
		out.failf("tasks executed %d, want %d", tasks, want)
	}
	out.fingerprint += fmt.Sprintf(" elapsed=%v tasks=%d", maxEl, tasks)
	return out
}

// setupProbe builds the workload's world again and again, each time only
// allocating and freeing its first window, and returns the host seconds
// of set-up and of its Casper part, per round. It builds at least 15
// worlds, and more while under a second has passed (at most 200), so
// that small worlds, whose set-up takes well under a millisecond, get a
// steady median too.
func setupProbe(c *repCtx, wl workload) (setup, coreSetup []float64) {
	ws, size := wl.world(c)
	start := time.Now()
	for i := 0; i < 200 && (i < 15 || time.Since(start) < time.Second); i++ {
		runtime.GC()
		out := runWorld(c, ws, func(env mpi.Env) {
			w, _ := env.WinAllocate(env.CommWorld(), size, nil)
			w.Free()
		})
		setup = append(setup, out.setup.Seconds())
		coreSetup = append(coreSetup, out.coreSetup.Seconds())
	}
	return setup, coreSetup
}
