package trace

import (
	"fmt"
	"sort"
)

// WaitEdge is one blocked-on relation in a wait-for graph: process
// From is waiting on process To for the reason in Label (a lock grant,
// an epoch close, a flow-control credit, ...).
type WaitEdge struct {
	From, To int
	Label    string
}

// RenderWaitGraph formats a wait-for graph for hang diagnostics: one
// line per edge, preceded by any cycles found (a cycle is the
// signature of a true deadlock; acyclic graphs indicate a stalled
// resource at the terminal nodes). Output order is deterministic.
func RenderWaitGraph(edges []WaitEdge) []string {
	if len(edges) == 0 {
		return nil
	}
	var lines []string
	for _, cyc := range findCycles(edges) {
		s := ""
		for _, n := range cyc {
			s += fmt.Sprintf("rank%d -> ", n)
		}
		lines = append(lines, "  cycle: "+s+fmt.Sprintf("rank%d", cyc[0]))
	}
	for _, e := range edges {
		lines = append(lines, fmt.Sprintf("  rank%d waits on rank%d: %s", e.From, e.To, e.Label))
	}
	return lines
}

// findCycles returns the elementary cycles reachable in the edge set,
// each rotated to start at its smallest rank, deduplicated, and
// sorted. A simple DFS suffices at diagnostic scale (edge counts are
// capped by callers).
func findCycles(edges []WaitEdge) [][]int {
	adj := make(map[int][]int)
	nodes := make(map[int]bool)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
		nodes[e.From], nodes[e.To] = true, true
	}
	var starts []int
	for n := range nodes {
		starts = append(starts, n)
	}
	sort.Ints(starts)
	for _, tos := range adj {
		sort.Ints(tos)
	}

	seen := make(map[string]bool)
	var cycles [][]int
	var path []int
	onPath := make(map[int]int) // node -> index in path
	var dfs func(n int)
	dfs = func(n int) {
		if i, ok := onPath[n]; ok {
			cyc := canonicalCycle(path[i:])
			key := fmt.Sprint(cyc)
			if !seen[key] {
				seen[key] = true
				cycles = append(cycles, cyc)
			}
			return
		}
		onPath[n] = len(path)
		path = append(path, n)
		for _, m := range adj[n] {
			dfs(m)
		}
		path = path[:len(path)-1]
		delete(onPath, n)
	}
	for _, n := range starts {
		dfs(n)
	}
	sort.Slice(cycles, func(i, j int) bool {
		return fmt.Sprint(cycles[i]) < fmt.Sprint(cycles[j])
	})
	return cycles
}

// canonicalCycle rotates a cycle so its smallest node comes first.
func canonicalCycle(cyc []int) []int {
	min := 0
	for i, n := range cyc {
		if n < cyc[min] {
			min = i
		}
	}
	out := make([]int, 0, len(cyc))
	out = append(out, cyc[min:]...)
	out = append(out, cyc[:min]...)
	return out
}
