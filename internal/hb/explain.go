package hb

import (
	"fmt"
	"strings"
)

// Explain returns a happens-before derivation from entry i to entry
// j: the trace indexes of the reduced nodes along one shortest path
// (starting at i's forward anchor and ending at j's backward anchor).
// It returns nil when the entries are not ordered.
//
// The BFS is itself the ordering test, bounded by trace order: edges
// point forward and node ids ascend in trace order, so a successor
// with an id above dst can never lead back to dst and is skipped.
// Skipping it changes no prev entry at or before dst, so the path is
// the one an unbounded BFS finds.
func (g *Graph) Explain(i, j int) []int {
	if i >= j {
		// Irreflexive and consistent with trace order (see OrderedAt).
		return nil
	}
	ei := &g.tr.Entries[i]
	ej := &g.tr.Entries[j]
	if ei.Task == ej.Task {
		return []int{i, j}
	}
	src := g.anchorAfter(ei.Task, i)
	dst := g.anchorBefore(ej.Task, j)
	if src < 0 || dst < 0 || src > dst {
		return nil
	}
	// BFS over reduced nodes [src, dst]; prev[w] is the BFS parent of
	// each marked node w.
	s := getSearch()
	defer s.release()
	s.reset(len(g.nodes))
	if len(s.prev) < len(g.nodes) {
		s.prev = make([]int32, len(g.nodes))
	}
	prev := s.prev
	s.runs++
	s.mark(src)
	prev[src] = -1
	queue := append(s.stack[:0], src)
	for k := 0; k < len(queue) && !s.has(dst); k++ {
		for _, w := range g.adj[queue[k]] {
			if w <= dst && !s.has(w) {
				s.mark(w)
				prev[w] = queue[k]
				queue = append(queue, w)
			}
		}
	}
	s.stack = queue
	if !s.has(dst) {
		return nil
	}
	var rev []int
	for v := dst; v >= 0; v = prev[v] {
		rev = append(rev, g.nodes[v].seq)
	}
	path := make([]int, 0, len(rev)+2)
	if rev[len(rev)-1] != i {
		path = append(path, i)
	}
	for k := len(rev) - 1; k >= 0; k-- {
		path = append(path, rev[k])
	}
	if path[len(path)-1] != j {
		path = append(path, j)
	}
	return path
}

// CommonAncestor returns the trace index of the nearest common causal
// ancestor of entries i and j: the latest reduced node (the causal
// skeleton — task boundaries and cross-edge endpoints) that
// happens-before both, or -1 when none exists. It is the fork point a
// race's causality subgraph hangs from: the derivations
// Explain(CommonAncestor(i,j), i) and Explain(CommonAncestor(i,j), j)
// show how the execution reached both racy operations.
func (g *Graph) CommonAncestor(i, j int) int {
	// Happens-before is consistent with trace order, so an ancestor of
	// both entries precedes the earlier one: the answer is the latest
	// node before min(i, j) that precedes both. A node n there precedes
	// entry i exactly when it reaches i's backward anchor: an earlier
	// node of i's own task reaches it by program order, and if i's task
	// has no node at or before i, no node precedes i. So one backward
	// search from each anchor marks the candidates, and the answer is
	// the latest node both searches marked.
	si := g.ancestors(g.anchorBefore(g.tr.Entries[i].Task, i))
	defer si.release()
	sj := g.ancestors(g.anchorBefore(g.tr.Entries[j].Task, j))
	defer sj.release()
	if len(sj.marked) < len(si.marked) {
		si, sj = sj, si
	}
	lim := min(i, j)
	best := int32(-1)
	for _, n := range si.marked {
		if n > best && g.nodes[n].seq < lim && sj.has(n) {
			best = n
		}
	}
	if best < 0 {
		return -1
	}
	return g.nodes[best].seq
}

// ancestors returns a pooled search that has marked every node
// reaching v (reflexive), or no node when v < 0. The caller releases
// it.
func (g *Graph) ancestors(v int32) *search {
	s := getSearch()
	s.reset(len(g.nodes))
	if v >= 0 {
		s.walk(g.reverse(), v, 0, v, -1)
	}
	return s
}

// FormatPath renders an Explain result as a readable derivation.
func (g *Graph) FormatPath(path []int) string {
	if len(path) == 0 {
		return "(not ordered)"
	}
	var sb strings.Builder
	for k, idx := range path {
		e := &g.tr.Entries[idx]
		if k > 0 {
			sb.WriteString("\n  ≺ ")
		} else {
			sb.WriteString("    ")
		}
		fmt.Fprintf(&sb, "[%d] %s in %s", idx, e.String(), g.tr.TaskName(e.Task))
	}
	return sb.String()
}
