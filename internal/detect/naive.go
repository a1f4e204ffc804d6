package detect

import (
	"cafa/internal/hb"
	"cafa/internal/trace"
)

// NaiveRace is one low-level conflicting-access race: a pair of
// accesses to the same memory location, at least one a write,
// unordered under the causality model. This is the conventional
// definition the paper shows drowns in false positives (1,664 in a
// 30-second ConnectBot trace, §4.1).
type NaiveRace struct {
	Var    trace.VarID
	AIdx   int // first access (trace order)
	BIdx   int // second access
	AWrite bool
	BWrite bool
}

type accessSite struct {
	method trace.MethodID
	pc     trace.PC
	write  bool
}

type access struct {
	idx  int
	task trace.TaskID
	site accessSite
}

// Naive runs the low-level detector: it reports one race per (memory
// location, site pair). Both scalar accesses (rd/wr) and pointer
// accesses participate.
func Naive(g *hb.Graph) []NaiveRace {
	tr := g.Trace()
	byVar := make(map[trace.VarID][]access)
	var varOrder []trace.VarID
	for i := range tr.Entries {
		e := &tr.Entries[i]
		var write bool
		switch e.Op {
		case trace.OpRead, trace.OpPtrRead:
			write = false
		case trace.OpWrite, trace.OpPtrWrite:
			write = true
		default:
			continue
		}
		if _, ok := byVar[e.Var]; !ok {
			varOrder = append(varOrder, e.Var)
		}
		byVar[e.Var] = append(byVar[e.Var], access{
			idx: i, task: e.Task, site: accessSite{method: e.Method, pc: e.PC, write: write},
		})
	}

	q := g.Querier()
	defer q.Close()
	var out []NaiveRace
	type sitePair struct{ a, b accessSite }
	for _, v := range varOrder {
		accs := byVar[v]
		reported := make(map[sitePair]bool)
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				a, b := accs[i], accs[j]
				if !a.site.write && !b.site.write {
					continue
				}
				if a.task == b.task {
					continue
				}
				sp := sitePair{a.site, b.site}
				if reported[sp] {
					continue
				}
				if q.ConcurrentAt(a.idx, a.task, b.idx, b.task) {
					reported[sp] = true
					out = append(out, NaiveRace{
						Var: v, AIdx: a.idx, BIdx: b.idx,
						AWrite: a.site.write, BWrite: b.site.write,
					})
				}
			}
		}
	}
	return out
}
