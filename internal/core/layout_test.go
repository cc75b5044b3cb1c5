package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mpi"
)

// uncachedBoundGhost is the reference rank binding: the same-NUMA
// ghosts of the target's node if there are any, else all of them,
// indexed by the target's local user index. No memo.
func uncachedBoundGhost(d *deployment, worldRank int) int {
	ghosts := d.ghostsOf(worldRank)
	var sameNUMA []int
	for _, g := range ghosts {
		if d.place.SameNUMA(g, worldRank) {
			sameNUMA = append(sameNUMA, g)
		}
	}
	pool := ghosts
	if len(sameNUMA) > 0 {
		pool = sameNUMA
	}
	return pool[d.userLocalIndex(worldRank)%len(pool)]
}

// uncachedLayout recomputes a window's routing metadata from scratch:
// a fresh ghost slice per target, a map from world to user rank, and
// uncachedBoundGhost. sizes are the window sizes by user comm rank.
func uncachedLayout(cw *casperWin, sizes []int) []tinfo {
	d := cw.p.d
	topo := d.topologyFor(cw.comm.Group())
	align := func(x int) int { return (x + mpi.MaxBasicSize - 1) / mpi.MaxBasicSize * mpi.MaxBasicSize }
	toInternal := func(wr int) int {
		cr, ok := cw.internal.CommRankOf(wr)
		if !ok {
			panic(fmt.Sprintf("rank %d missing from internal comm", wr))
		}
		return cr
	}
	worldToUser := map[int]int{}
	for t := 0; t < cw.comm.Size(); t++ {
		worldToUser[cw.comm.WorldRank(t)] = t
	}
	out := make([]tinfo, cw.comm.Size())
	totals := map[int]int{}
	for node, users := range topo.usersByNode {
		off := 0
		for _, wr := range users {
			ut := worldToUser[wr]
			out[ut] = tinfo{world: wr, node: node, base: off, size: sizes[ut]}
			off += align(sizes[ut])
		}
		totals[node] = off
	}
	for t := range out {
		ti := &out[t]
		for _, gw := range d.ghostsOf(ti.world) {
			ti.ghosts = append(ti.ghosts, toInternal(gw))
		}
		ti.bound = toInternal(uncachedBoundGhost(d, ti.world))
		ti.selfInternal = toInternal(ti.world)
		if len(cw.lockWins) > 0 {
			ti.lockWinIdx = topo.windowLocalIndex(d, ti.world) % len(cw.lockWins)
		}
		ti.nodeTotal = totals[ti.node]
		ti.chunk = align((ti.nodeTotal + d.cfg.NumGhosts - 1) / d.cfg.NumGhosts)
		if ti.chunk == 0 {
			ti.chunk = mpi.MaxBasicSize
		}
	}
	return out
}

// TestLayoutMatchesUncachedComputation checks the shared per-node ghost
// slices, the memoized rank binding and the slice-backed world-to-user
// map against the uncached computation, field by field, on every rank:
// 1, 2 and 4 ghosts per node on two-node, two-NUMA-domain machines, for
// a window over the user world and one over a reordered split of it.
func TestLayoutMatchesUncachedComputation(t *testing.T) {
	sizeOf := func(commRank int) int { return 8 * (commRank % 5) }
	for _, ghosts := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("ghosts%d", ghosts), func(t *testing.T) {
			casperRun(t, casperConfig(48, 24), Config{NumGhosts: ghosts}, func(p *Process) {
				check := func(c *mpi.Comm) {
					win, _ := p.WinAllocate(c, sizeOf(c.Rank()), nil)
					cw := win.(*casperWin)
					sizes := make([]int, c.Size())
					for r := range sizes {
						sizes[r] = sizeOf(r)
					}
					want := uncachedLayout(cw, sizes)
					for ut := range want {
						if !reflect.DeepEqual(cw.layout[ut], want[ut]) {
							t.Errorf("rank %d target %d: layout %+v, want %+v",
								p.Rank(), ut, cw.layout[ut], want[ut])
						}
					}
					for _, users := range p.d.usersByNode {
						for _, u := range users {
							if got, w := p.d.boundGhost(u), uncachedBoundGhost(p.d, u); got != w {
								t.Errorf("boundGhost(%d) = %d, want %d", u, got, w)
							}
						}
					}
					win.Free()
				}
				world := p.CommWorld()
				check(world)
				check(world.Split(world.Rank()%2, -world.Rank()))
			})
		})
	}
}
