// Package hb implements the paper's causality model for event-driven
// Android executions (§3): it builds the happens-before graph of a
// trace and answers ordering queries between arbitrary operations.
//
// The model's rules:
//
//   - program order within a task (but NOT between events of the same
//     looper thread, and NOT between unlock → lock);
//   - fork-join and signal-and-wait;
//   - event listener: register(t,l) ≺ perform(e,l);
//   - send: send(t,e,d) ≺ begin(e), sendAtFront(t,e) ≺ begin(e);
//   - external input: external events are conservatively chained;
//   - IPC: rpcCall ≺ rpcHandle, rpcReply ≺ rpcRet, msgSend ≺ msgRecv;
//   - atomicity: if begin(e1) ≺ end(e2) for events of one looper,
//     then end(e1) ≺ begin(e2);
//   - event queue rules 1–4 over ordered sends to the same queue.
//
// The last two rule groups depend on already-derived reachability, so
// Build iterates rule application and transitive closure to a
// fixpoint. The closure is computed in full once; subsequent rounds
// propagate only the reachability contributed by edges added since the
// previous round (closure over a DAG is monotone in its edge set, so
// the incremental result is bit-identical to a recompute).
//
// The conventional baseline (Options.Conventional) builds no closure
// and runs no fixpoint: it is the base edges plus a per-looper chain,
// kept as an adjacency list and queried on demand (see reachable).
// The fixpoint would add nothing to it. Assume each looper runs one
// event at a time and every event sent to a queue runs on one looper
// (trace.Validator enforces both; BuildFromScan re-checks them). Then
// the chain end(e_{k-1}) → begin(e_k), with program order inside each
// event, orders every same-looper pair in begin order. An atomicity or
// queue-rule edge end(a) → begin(b) relates two events of one looper,
// so it is either already reachable (a began first) or points
// backwards in the trace (b began first, and therefore ended before
// a began), and addEdge drops backward edges. The conventional model
// therefore gains no rule edges, and its reachability is plain
// reachability over base and chain edges.
//
// Because every rule only ever concludes orderings that actually held
// in the traced execution, the happens-before relation is consistent
// with trace order; the graph is a DAG whose topological order is the
// entry sequence. The closure is computed over "reduced nodes" (task
// begins/ends plus cross-edge endpoints); arbitrary operations resolve
// through their nearest reduced anchors.
//
// The single trace scan (node collection plus model-independent base
// edges) is factored into Scan/Prescan so the event-driven and
// conventional variants of one trace share it; BuildFromScan builds a
// graph over a shared Prescan and is safe to call concurrently.
package hb

import (
	"fmt"
	"slices"
	"sync"

	"cafa/internal/obs"
	"cafa/internal/trace"
)

// Graph-construction observability (internal/obs). Counts accumulate
// once per build (from the already-maintained per-graph tallies), and
// the worklist histogram observes the pending-edge batch consumed by
// each incremental-closure round — the shape of the fixpoint tail.
// hb_closure_bytes observes the matrix size of every build (0 for the
// conventional model), and the hb_conv_* counters measure the
// on-demand searches that replace the conventional closure.
var (
	cBuilds           = obs.NewCounter("hb_builds_total")
	cBaseEdges        = obs.NewCounter("hb_base_edges_total")
	cRuleEdges        = obs.NewCounter("hb_rule_edges_total")
	cFixpointRounds   = obs.NewCounter("hb_fixpoint_rounds_total")
	hWorklistLen      = obs.NewHistogram("hb_closure_worklist_len")
	hClosureRoundsPer = obs.NewHistogram("hb_rounds_per_build")
	hClosureBytes     = obs.NewHistogram("hb_closure_bytes")
	cConvQueries      = obs.NewCounter("hb_conv_queries_total")
	cConvSearchNodes  = obs.NewCounter("hb_conv_search_nodes_total")
)

// Options configures graph construction.
type Options struct {
	// Conventional builds the thread-based baseline model of §6.3
	// instead: a total order over all events of each looper thread
	// (what a conventional race detector assumes). Lock edges are not
	// added in either mode, matching the paper's comparator. The
	// conventional graph keeps no closure (queries search it on
	// demand), and its build fails on a trace that breaks the looper
	// discipline (see the package comment).
	Conventional bool
	// MaxRounds bounds fixpoint iteration (safety; 0 = default 64).
	MaxRounds int
}

// node is one reduced node of the graph.
type node struct {
	seq  int // entry index in the trace
	task trace.TaskID
}

type sendInfo struct {
	node  int32 // reduced node id of the send entry
	event trace.TaskID
	delay int64
	front bool
}

// Graph is the happens-before graph of one trace.
type Graph struct {
	tr    *trace.Trace
	opts  Options
	nodes []node
	// taskNodes holds node ids per task, ascending by seq.
	taskNodes map[trace.TaskID][]int32
	adj       [][]int32
	// reach is the dense closure of the event-driven model. It is nil
	// for the conventional model, which searches adj on demand.
	reach *bitmat

	begins map[trace.TaskID]int32 // node id of begin(t)
	ends   map[trace.TaskID]int32 // node id of end(t)
	// queueSends lists sends per queue in trace order.
	queueSends map[trace.QueueID][]sendInfo
	// looperEvents lists events per looper in begin order.
	looperEvents map[trace.TaskID][]trace.TaskID

	// pending are edges added since the last closure; the next
	// (incremental) closure round consumes them. changed is that
	// round's per-node dirty scratch, reused across rounds.
	pending []edge
	changed []bool

	rounds    int
	baseEdges int
	ruleEdges int
}

// Build constructs the happens-before graph for a trace.
func Build(tr *trace.Trace, opts Options) (*Graph, error) {
	ps, err := Scan(tr)
	if err != nil {
		return nil, err
	}
	return BuildFromScan(ps, opts)
}

// BuildFromScan constructs a graph over a shared Prescan. Multiple
// calls over one Prescan (e.g. the event-driven and conventional
// models, built concurrently) are safe: the Prescan is read-only.
func BuildFromScan(ps *Prescan, opts Options) (*Graph, error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 64
	}
	if opts.Conventional {
		// The on-demand conventional answer is exact only under the
		// looper discipline (package comment); refuse a Prescan that
		// breaks it rather than answer wrongly.
		if err := ps.checkLooperDiscipline(); err != nil {
			return nil, err
		}
	}
	g := &Graph{
		tr:           ps.tr,
		opts:         opts,
		nodes:        ps.nodes,
		taskNodes:    ps.taskNodes,
		begins:       ps.begins,
		ends:         ps.ends,
		queueSends:   ps.queueSends,
		looperEvents: ps.looperEvents,
	}
	g.adj = make([][]int32, len(g.nodes))
	for _, e := range ps.baseEdges {
		g.adj[e.u] = append(g.adj[e.u], e.v)
		g.baseEdges++
	}
	// Conventional baseline: total event order per looper.
	if opts.Conventional {
		for _, evs := range g.looperEvents {
			for i := 1; i < len(evs); i++ {
				en, ok1 := g.ends[evs[i-1]]
				b, ok2 := g.begins[evs[i]]
				if ok1 && ok2 && g.addEdge(en, b) {
					g.baseEdges++
				}
			}
		}
		g.pending = nil
		g.rounds = 1
		g.record()
		return g, nil
	}
	g.reach = newBitmat(len(g.nodes))
	for round := 0; ; round++ {
		if round >= opts.MaxRounds {
			return nil, fmt.Errorf("hb: fixpoint did not converge in %d rounds", opts.MaxRounds)
		}
		g.rounds = round + 1
		if round == 0 {
			g.closure()
			g.pending = g.pending[:0]
		} else {
			g.incrementalClosure()
		}
		if !g.applyDerivedRules() {
			break
		}
	}
	g.record()
	return g, nil
}

// record publishes one finished build's tallies to obs.
func (g *Graph) record() {
	cBuilds.Inc()
	cBaseEdges.Add(int64(g.baseEdges))
	cRuleEdges.Add(int64(g.ruleEdges))
	cFixpointRounds.Add(int64(g.rounds))
	hClosureRoundsPer.Observe(int64(g.rounds))
	hClosureBytes.Observe(g.ClosureBytes())
}

// ClosureBytes returns the size of the graph's dense closure matrix:
// n²/8 bytes over its reduced nodes for the event-driven model, 0 for
// the conventional model, which keeps none.
func (g *Graph) ClosureBytes() int64 {
	if g.reach == nil {
		return 0
	}
	return int64(len(g.reach.bits)) * 8
}

// isReducedOp reports whether an operation is a cross-edge endpoint.
func isReducedOp(op trace.Op) bool {
	switch op {
	case trace.OpBegin, trace.OpEnd, trace.OpFork, trace.OpJoin,
		trace.OpWait, trace.OpNotify, trace.OpSend, trace.OpSendAtFront,
		trace.OpRegister, trace.OpPerform,
		trace.OpRPCCall, trace.OpRPCHandle, trace.OpRPCReply, trace.OpRPCRet,
		trace.OpMsgSend, trace.OpMsgRecv:
		return true
	default:
		return false
	}
}

// addEdge inserts u → v (u, v are node ids). Edges always point
// forward in trace order; violations indicate a malformed trace and
// are dropped.
func (g *Graph) addEdge(u, v int32) bool {
	if u < 0 || v < 0 || u == v {
		return false
	}
	if g.nodes[u].seq >= g.nodes[v].seq {
		return false
	}
	g.adj[u] = append(g.adj[u], v)
	g.pending = append(g.pending, edge{u, v})
	return true
}

// closure computes the transitive-closure matrix in full. Nodes are
// already in topological (trace) order, so one reverse sweep suffices.
func (g *Graph) closure() {
	g.reach.clear()
	for i := len(g.nodes) - 1; i >= 0; i-- {
		g.reach.set(i, i)
		for _, w := range g.adj[i] {
			g.reach.orInto(i, int(w))
		}
	}
}

// incrementalClosure folds the pending edges into the closure matrix
// without recomputing it. For a new edge u → v only u and nodes that
// reach u can gain reachability, so one reverse sweep from the highest
// pending source suffices: a row is re-ORed only when it has a pending
// edge or a successor whose row just changed. Node ids ascend in trace
// (= topological) order, so successors are always finalized first, and
// because closure is monotone in the edge set the result is
// bit-identical to a full recompute.
func (g *Graph) incrementalClosure() {
	if len(g.pending) == 0 {
		return
	}
	hWorklistLen.Observe(int64(len(g.pending)))
	// Bucket the pending edges by descending source so the reverse
	// sweep consumes them in order — no per-node lookup structure.
	slices.SortFunc(g.pending, func(a, b edge) int { return int(b.u) - int(a.u) })
	maxSrc := int(g.pending[0].u)
	if cap(g.changed) < maxSrc+1 {
		g.changed = make([]bool, maxSrc+1)
	}
	changed := g.changed[:maxSrc+1]
	clear(changed)
	k := 0
	for i := maxSrc; i >= 0; i-- {
		ch := false
		for ; k < len(g.pending) && int(g.pending[k].u) == i; k++ {
			if g.reach.orIntoChanged(i, int(g.pending[k].v)) {
				ch = true
			}
		}
		for _, w := range g.adj[i] {
			if int(w) <= maxSrc && changed[w] && g.reach.orIntoChanged(i, int(w)) {
				ch = true
			}
		}
		changed[i] = ch
	}
	g.pending = g.pending[:0]
}

// reachable reports node-level reachability (reflexive). It is the
// one place that chooses how to answer: a bit probe of the dense
// closure when the graph has one, otherwise a search from u bounded by
// trace order. Edges only point forward and node ids ascend in trace
// order, so a path from u to v visits only ids in [u, v].
func (g *Graph) reachable(u, v int32) bool {
	if g.reach != nil {
		return g.reach.get(int(u), int(v))
	}
	if u > v {
		return false
	}
	s := searchPool.Get().(*search)
	found := s.run(g.adj, u, v, v)
	cConvQueries.Inc()
	cConvSearchNodes.Add(s.visited)
	searchPool.Put(s)
	return found
}

// search is the scratch state of one on-demand reachability search.
// It comes from searchPool, never from the Graph, so concurrent
// readers of one graph stay safe.
type search struct {
	lo      int32
	seen    []uint64 // bit k marks node lo+k
	stack   []int32
	visited int64 // nodes marked by the last run
}

var searchPool = sync.Pool{New: func() any { return new(search) }}

// run marks every node reachable from u through nodes with id <= hi
// and reports whether stop was marked, returning as soon as it is
// (stop < 0 marks the whole bounded reachable set).
func (s *search) run(adj [][]int32, u, hi, stop int32) bool {
	words := int(hi-u)/64 + 1
	if cap(s.seen) < words {
		s.seen = make([]uint64, words)
	} else {
		s.seen = s.seen[:words]
		clear(s.seen)
	}
	s.lo = u
	s.mark(u)
	s.visited = 1
	if u == stop {
		return true
	}
	s.stack = append(s.stack[:0], u)
	for len(s.stack) > 0 {
		x := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, w := range adj[x] {
			if w > hi || s.has(w) {
				continue
			}
			s.mark(w)
			s.visited++
			if w == stop {
				return true
			}
			s.stack = append(s.stack, w)
		}
	}
	return false
}

func (s *search) mark(w int32) {
	k := w - s.lo
	s.seen[k/64] |= 1 << (uint(k) % 64)
}

func (s *search) has(w int32) bool {
	k := w - s.lo
	return s.seen[k/64]&(1<<(uint(k)%64)) != 0
}

// applyDerivedRules applies the atomicity rule and the four event
// queue rules, returning whether any new edge was added. The pair
// loops are quadratic in events-per-looper and sends-per-queue, so
// the begin/end node ids are resolved into flat arrays up front —
// each pair test is then one or two bit probes.
func (g *Graph) applyDerivedRules() bool {
	added := false
	// Atomicity rule: events of one looper, in execution order.
	for _, evs := range g.looperEvents {
		type be struct{ b, e int32 }
		nodes := make([]be, len(evs))
		for i, ev := range evs {
			nodes[i] = be{b: -1, e: -1}
			if b, ok := g.begins[ev]; ok {
				nodes[i].b = b
			}
			if e, ok := g.ends[ev]; ok {
				nodes[i].e = e
			}
		}
		for i := 0; i < len(nodes); i++ {
			bi, ei := nodes[i].b, nodes[i].e
			if bi < 0 || ei < 0 {
				continue
			}
			reachRow := g.reach.row(int(bi))
			for j := i + 1; j < len(nodes); j++ {
				ej, bj := nodes[j].e, nodes[j].b
				if ej < 0 || bj < 0 {
					continue
				}
				if reachRow[ej/64]&(1<<(uint(ej)%64)) != 0 && !g.reachable(ei, bj) {
					if g.addEdge(ei, bj) {
						g.ruleEdges++
						added = true
					}
				}
			}
		}
	}
	// Event queue rules over ordered sends to the same queue. The
	// begin/end node ids of each send's event are resolved once per
	// queue; the pair loop runs every round and must stay map-free.
	for _, sends := range g.queueSends {
		begins := make([]int32, len(sends))
		ends := make([]int32, len(sends))
		for i, si := range sends {
			begins[i], ends[i] = -1, -1
			if b, ok := g.begins[si.event]; ok {
				begins[i] = b
			}
			if e, ok := g.ends[si.event]; ok {
				ends[i] = e
			}
		}
		for ai := 0; ai < len(sends); ai++ {
			a := sends[ai]
			reachRow := g.reach.row(int(a.node))
			for bi := ai + 1; bi < len(sends); bi++ {
				b := sends[bi]
				if a.event == b.event {
					continue
				}
				if reachRow[b.node/64]&(1<<(uint(b.node)%64)) == 0 {
					continue
				}
				// a's send happens-before b's send.
				switch {
				case !a.front && !b.front:
					// Rule 1: delays must satisfy d1 <= d2.
					if a.delay <= b.delay {
						g.orderNodes(ends[ai], begins[bi], &added)
					}
				case a.front && !b.front:
					// Rule 3: sendAtFront(e1) ≺ send(e2) ⇒ e1 ≺ e2.
					g.orderNodes(ends[ai], begins[bi], &added)
				case !a.front && b.front:
					// Rule 2: additionally needs sendAtFront(e2) ≺ begin(e1).
					if be := begins[ai]; be >= 0 && g.reachable(b.node, be) {
						g.orderNodes(ends[bi], begins[ai], &added)
					}
				case a.front && b.front:
					// Rule 4: same condition as rule 2.
					if be := begins[ai]; be >= 0 && g.reachable(b.node, be) {
						g.orderNodes(ends[bi], begins[ai], &added)
					}
				}
			}
		}
	}
	return added
}

// orderNodes adds end(e1) → begin(e2) by pre-resolved node ids (-1 =
// the task has no such node) unless already derivable.
func (g *Graph) orderNodes(en, b int32, added *bool) {
	if en < 0 || b < 0 {
		return
	}
	if g.reachable(en, b) {
		return
	}
	if g.addEdge(en, b) {
		g.ruleEdges++
		*added = true
	}
}

// Stats summarizes graph construction.
type Stats struct {
	Entries   int
	Nodes     int
	BaseEdges int
	RuleEdges int
	Rounds    int
}

// Stats returns construction statistics.
func (g *Graph) Stats() Stats {
	return Stats{
		Entries:   g.tr.Len(),
		Nodes:     len(g.nodes),
		BaseEdges: g.baseEdges,
		RuleEdges: g.ruleEdges,
		Rounds:    g.rounds,
	}
}
