package hb

import (
	"sort"

	"cafa/internal/trace"
)

// anchorAfter returns the first reduced node of task t at or after
// entry seq, or -1.
func (g *Graph) anchorAfter(t trace.TaskID, seq int) int32 {
	ns := g.taskNodes[t]
	i := sort.Search(len(ns), func(i int) bool { return g.nodes[ns[i]].seq >= seq })
	if i == len(ns) {
		return -1
	}
	return ns[i]
}

// anchorBefore returns the last reduced node of task t at or before
// entry seq, or -1.
func (g *Graph) anchorBefore(t trace.TaskID, seq int) int32 {
	ns := g.taskNodes[t]
	i := sort.Search(len(ns), func(i int) bool { return g.nodes[ns[i]].seq > seq })
	if i == 0 {
		return -1
	}
	return ns[i-1]
}

// Ordered reports whether entry i happens-before entry j according to
// the model. Within one task it is program order; across tasks it is
// graph reachability through the nearest reduced anchors.
func (g *Graph) Ordered(i, j int) bool {
	return g.OrderedAt(i, g.tr.Entries[i].Task, j, g.tr.Entries[j].Task)
}

// OrderedAt is Ordered with the entries' tasks supplied by the caller
// — the form streaming analyses use, since a streamed trace has no
// materialized Entries to look tasks up in.
func (g *Graph) OrderedAt(i int, ti trace.TaskID, j int, tj trace.TaskID) bool {
	s := getSearch()
	defer s.release()
	return g.orderedAt(s, i, ti, j, tj)
}

func (g *Graph) orderedAt(s *search, i int, ti trace.TaskID, j int, tj trace.TaskID) bool {
	if i == j {
		return false
	}
	if ti == tj {
		return i < j
	}
	if i > j {
		// Happens-before is consistent with trace order.
		return false
	}
	u := g.anchorAfter(ti, i)
	v := g.anchorBefore(tj, j)
	if u < 0 || v < 0 {
		return false
	}
	return g.reachable(s, u, v)
}

// Concurrent reports whether two entries are unordered in both
// directions (and belong to different tasks).
func (g *Graph) Concurrent(i, j int) bool {
	return g.ConcurrentAt(i, g.tr.Entries[i].Task, j, g.tr.Entries[j].Task)
}

// ConcurrentAt is Concurrent with caller-supplied tasks (see
// OrderedAt).
func (g *Graph) ConcurrentAt(i int, ti trace.TaskID, j int, tj trace.TaskID) bool {
	s := getSearch()
	defer s.release()
	return g.concurrentAt(s, i, ti, j, tj)
}

func (g *Graph) concurrentAt(s *search, i int, ti trace.TaskID, j int, tj trace.TaskID) bool {
	if i == j || ti == tj {
		return false
	}
	return !g.orderedAt(s, i, ti, j, tj) && !g.orderedAt(s, j, tj, i, ti)
}

// TaskOrdered reports end(t1) ≺ begin(t2): the whole of task t1
// happens-before the whole of task t2.
func (g *Graph) TaskOrdered(t1, t2 trace.TaskID) bool {
	en, ok1 := g.ends[t1]
	b, ok2 := g.begins[t2]
	if !ok1 || !ok2 {
		return false
	}
	s := getSearch()
	defer s.release()
	return g.reachable(s, en, b)
}

// TasksConcurrent reports that neither task is wholly ordered before
// the other.
func (g *Graph) TasksConcurrent(t1, t2 trace.TaskID) bool {
	if t1 == t2 {
		return false
	}
	return !g.TaskOrdered(t1, t2) && !g.TaskOrdered(t2, t1)
}

// Querier answers ordering queries over one graph for one goroutine.
// It keeps one search scratch for all its queries and tallies their
// searches locally; Close publishes the tallies to obs once. Loops
// that issue a query per candidate (the detector) use one instead of
// the Graph methods, which publish per call.
type Querier struct {
	g *Graph
	s *search
}

// Querier returns a Querier over g. Close it when done.
func (g *Graph) Querier() *Querier { return &Querier{g: g, s: getSearch()} }

// OrderedAt is Graph.OrderedAt.
func (q *Querier) OrderedAt(i int, ti trace.TaskID, j int, tj trace.TaskID) bool {
	return q.g.orderedAt(q.s, i, ti, j, tj)
}

// ConcurrentAt is Graph.ConcurrentAt.
func (q *Querier) ConcurrentAt(i int, ti trace.TaskID, j int, tj trace.TaskID) bool {
	return q.g.concurrentAt(q.s, i, ti, j, tj)
}

// Close publishes the Querier's search tallies and releases its
// scratch. The Querier must not be used afterwards.
func (q *Querier) Close() {
	q.s.release()
	q.s = nil
}

// Trace returns the underlying trace.
func (g *Graph) Trace() *trace.Trace { return g.tr }
