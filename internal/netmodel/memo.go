package netmodel

import "repro/internal/sim"

// Locality classifies the placement relationship between two ranks, the
// first half of the (srcNode, dstNode) part of a latency lookup. Ranks
// cache the class per destination so the placement arithmetic runs once
// per pair instead of once per message.
type Locality uint8

// Locality classes.
const (
	LocInter    Locality = iota // different nodes
	LocIntra                    // same node, same NUMA domain
	LocIntraFar                 // same node, across NUMA domains
	numLocality
)

// LocalityOf folds the two placement booleans into a Locality.
func LocalityOf(sameNode, sameNUMA bool) Locality {
	if !sameNode {
		return LocInter
	}
	if sameNUMA {
		return LocIntra
	}
	return LocIntraFar
}

// latCache is a tiny direct-mapped cache from message size to cost.
// RMA traffic uses a handful of distinct sizes (element payloads,
// 16-byte headers, the occasional large transfer), so even 8 slots hit
// almost always; a collision just recomputes. Slot 0 doubles as the
// "unset" state via the ok flag, so a zero-size entry works too.
type latCache [8]struct {
	n  int
	d  sim.Duration
	ok bool
}

func (c *latCache) slot(n int) *struct {
	n  int
	d  sim.Duration
	ok bool
} {
	return &c[(uint(n)>>3)&7]
}

// Memo wraps a Params with per-(locality, size) caches of the transfer
// and AM-cost computations, which the simulator otherwise redoes for
// every message. A Memo is NOT safe for concurrent use: each simulated
// world owns one (worlds in a parallel sweep never share state).
type Memo struct {
	p    *Params
	xfer [numLocality]latCache
	am   [2]latCache // index 1 = noncontiguous
}

// NewMemo returns a memoizing view of p.
func NewMemo(p *Params) *Memo { return &Memo{p: p} }

// Params returns the underlying cost model.
func (m *Memo) Params() *Params { return m.p }

// Transfer is Params.Transfer with memoization.
func (m *Memo) Transfer(sameNode, sameNUMA bool, n int) sim.Duration {
	return m.TransferLoc(LocalityOf(sameNode, sameNUMA), n)
}

// TransferLoc returns the wire time for n bytes at the given locality.
func (m *Memo) TransferLoc(loc Locality, n int) sim.Duration {
	s := m.xfer[loc].slot(n)
	if s.ok && s.n == n {
		return s.d
	}
	var d sim.Duration
	switch loc {
	case LocInter:
		d = m.p.Transfer(false, false, n)
	case LocIntra:
		d = m.p.Transfer(true, true, n)
	default:
		d = m.p.Transfer(true, false, n)
	}
	s.n, s.d, s.ok = n, d, true
	return d
}

// AMCost is Params.AMCost with memoization.
func (m *Memo) AMCost(n int, contiguous bool) sim.Duration {
	idx := 0
	if !contiguous {
		idx = 1
	}
	s := m.am[idx].slot(n)
	if s.ok && s.n == n {
		return s.d
	}
	d := m.p.AMCost(n, contiguous)
	s.n, s.d, s.ok = n, d, true
	return d
}
