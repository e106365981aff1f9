package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// LockOrder derives the module's global mutex acquisition-order graph
// and machine-checks it. The serving path (snapshot readers, tenant
// router) and the maintenance path (pipeline, shard watchers) run
// concurrently and share half a dozen mutexes; a deadlock between them
// is an availability bug the race detector cannot see unless the
// schedule happens to interleave. The analyzer:
//
//   - computes, for every function, the spans during which each mutex
//     is held (per goroutine context: a `go func(){...}` body pairs
//     its own lock events);
//   - records an edge A -> B whenever B is acquired while A is held —
//     directly, or anywhere down the synchronous call graph (interface
//     dispatch resolved conservatively; `go`-launched work excluded,
//     since it runs on another goroutine);
//   - reports every cycle in the resulting graph (a 2-cycle is exactly
//     an inconsistent pairwise ordering), every re-acquisition of a
//     mutex already held (self-deadlock; two RLocks are exempt), and
//     every edge that contradicts the canonical order table below.
//
// The derived graph is printed by `midas-lint -lockgraph` and embedded
// in the midas-lint/2 JSON report, so the documented order in
// docs/STATIC_ANALYSIS.md stays machine-checked.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "mutex acquisition-order graph must stay acyclic and respect the documented canonical order",
	RunModule: runLockOrder,
}

// canonicalLockOrder is the documented module-wide acquisition order:
// a lock may only be acquired while holding locks that appear EARLIER
// in this list. Locks not listed are unranked — the cycle check still
// covers them, the pairwise-order check does not.
//
// Keep docs/STATIC_ANALYSIS.md ("Canonical lock order") in sync.
var canonicalLockOrder = []string{
	"tenant.Registry.mu",         // registry membership — outermost, serving entry
	"tenant.Shard.metaMu",        // per-shard metadata
	"tenant.Budget.mu",           // shared worker budget (leaf of the tenant layer)
	"snapshot.Pipeline.mu",       // maintenance pipeline state
	"snapshot.Pipeline.poisonMu", // poison bookkeeping, taken inside pipeline sections
	"telemetry.Registry.mu",      // metric registry membership
	"telemetry.CounterVec.mu",    // per-vector sample maps...
	"telemetry.GaugeVec.mu",
	"telemetry.HistogramVec.mu",
	"telemetry.funcVec.mu",
	"catapult.Metrics.mu", // selection metrics cache
	"parallel.Cache.mu",   // memoized kernel results
	"faultinject.mu",      // failpoint arming table
	"vfs.Sim.mu",          // simulated filesystem — innermost (under store I/O)
}

// LockGraph is the derived acquisition-order graph, kept on the Module
// for -lockgraph printing and the JSON report.
type LockGraph struct {
	Locks []LockGraphNode
	Edges []LockGraphEdge
}

// LockGraphNode is one mutex class (one field or variable declaration).
type LockGraphNode struct {
	Display string
	// Pos locates the declaration.
	Pos token.Position
}

// LockGraphEdge records "To acquired while From held", with one
// witness site and, for call-graph edges, the call path that reaches
// the inner acquisition.
type LockGraphEdge struct {
	From, To string
	// Witness is the source location ("file:line") of the inner
	// acquisition or the call that leads to it, inside the function
	// holding From.
	Witness string
	// Via is the module call path for indirect edges, "" when the
	// inner lock is taken directly in the same function.
	Via string
}

func runLockOrder(m *Module, report func(Diagnostic)) {
	g := m.CallGraph()
	lockSums := g.LockSummaries()

	type edgeKey struct{ from, to token.Pos }
	type edgeInfo struct {
		from, to stateClass
		witness  token.Pos
		via      string
	}
	edges := make(map[edgeKey]edgeInfo)
	classes := make(map[token.Pos]stateClass)
	addEdge := func(from, to stateClass, witness token.Pos, via string) {
		classes[from.ID] = from
		classes[to.ID] = to
		k := edgeKey{from.ID, to.ID}
		if _, ok := edges[k]; !ok {
			edges[k] = edgeInfo{from: from, to: to, witness: witness, via: via}
		}
	}

	for _, id := range g.IDs {
		n := g.Nodes[id]
		if n.Test {
			continue
		}
		regions := heldRegions(n)
		if len(regions) == 0 {
			continue
		}
		evs := mutexEvents(n.Pkg, n.Decl.Body)
		for ri := range regions {
			r := &regions[ri]
			classes[r.class.ID] = r.class
			// Direct nested acquisitions inside the region.
			for _, ev := range evs {
				if !ev.lock || ev.pos == r.lo || !r.contains(n, ev.pos) {
					continue
				}
				if ev.class.ID == r.class.ID {
					if ev.rlock && r.rlock {
						continue // two read locks; the writer-starvation case is a -race job
					}
					report(Diagnostic{
						Analyzer: "lockorder",
						Position: m.Fset.Position(ev.pos),
						Message: fmt.Sprintf("%s acquired again while already held in %s; this self-deadlocks",
							ev.expr, n.Name),
					})
					continue
				}
				addEdge(r.class, ev.class, ev.pos, "")
			}
			// Acquisitions reached through synchronous calls made while
			// the region's lock is held.
			for _, cs := range n.Calls {
				if cs.GoCall || !r.contains(n, cs.Pos) {
					continue
				}
				for _, callee := range cs.SyncTargets() {
					for _, lid := range sortedPosKeys(lockSums[callee]) {
						lr := lockSums[callee][lid]
						via := g.Nodes[callee].Name
						if lr.Via != "" {
							via = via + " -> " + lr.Via
						}
						if lr.Class.ID == r.class.ID {
							if r.rlock && lr.Rlock {
								continue
							}
							report(Diagnostic{
								Analyzer: "lockorder",
								Position: m.Fset.Position(cs.Pos),
								Message: fmt.Sprintf("%s may be acquired again via %s while already held in %s; this self-deadlocks",
									r.expr, via, n.Name),
							})
							continue
						}
						addEdge(r.class, lr.Class, cs.Pos, via)
					}
				}
			}
		}
	}

	// Materialize the graph deterministically.
	lg := &LockGraph{}
	classIDs := sortedClassIDs(classes)
	for _, cid := range classIDs {
		c := classes[cid]
		lg.Locks = append(lg.Locks, LockGraphNode{Display: c.Display, Pos: m.Fset.Position(cid)})
	}
	edgeKeys := make([]edgeKey, 0, len(edges))
	for k := range edges {
		edgeKeys = append(edgeKeys, k)
	}
	sort.Slice(edgeKeys, func(i, j int) bool {
		a, b := edgeKeys[i], edgeKeys[j]
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
	for _, k := range edgeKeys {
		e := edges[k]
		lg.Edges = append(lg.Edges, LockGraphEdge{
			From:    e.from.Display,
			To:      e.to.Display,
			Witness: describeFuncPos(m, e.witness),
			Via:     e.via,
		})
	}
	m.lockGraph = lg

	// Cycles: any strongly connected component with more than one lock
	// (a 2-cycle is an inconsistent pairwise order, longer ones a
	// deadlock-capable ring).
	succ := make(map[token.Pos][]token.Pos)
	for _, k := range edgeKeys {
		succ[k.from] = append(succ[k.from], k.to)
	}
	for _, scc := range tarjanSCC(classIDs, succ) {
		if len(scc) < 2 {
			continue
		}
		names := make([]string, len(scc))
		var witness token.Pos
		for i, cid := range scc {
			names[i] = classes[cid].Display
		}
		sort.Strings(names)
		var details []string
		for _, k := range edgeKeys {
			if inPosSet(scc, k.from) && inPosSet(scc, k.to) {
				e := edges[k]
				if witness == token.NoPos || e.witness < witness {
					witness = e.witness
				}
				d := fmt.Sprintf("%s -> %s at %s", e.from.Display, e.to.Display, describeFuncPos(m, e.witness))
				if e.via != "" {
					d += " via " + e.via
				}
				details = append(details, d)
			}
		}
		report(Diagnostic{
			Analyzer: "lockorder",
			Position: m.Fset.Position(witness),
			Message: fmt.Sprintf("lock-order cycle between %s (potential deadlock): %s",
				strings.Join(names, ", "), strings.Join(details, "; ")),
		})
	}

	// Canonical order: every edge whose endpoints are both ranked must
	// point forward in the table.
	rank := make(map[string]int, len(canonicalLockOrder))
	for i, name := range canonicalLockOrder {
		rank[name] = i + 1
	}
	for _, k := range edgeKeys {
		e := edges[k]
		rf, okF := rank[e.from.Display]
		rt, okT := rank[e.to.Display]
		if okF && okT && rf >= rt {
			msg := fmt.Sprintf("%s acquired while %s is held, against the canonical lock order (%s ranks before %s)",
				e.to.Display, e.from.Display, e.to.Display, e.from.Display)
			if e.via != "" {
				msg += " via " + e.via
			}
			report(Diagnostic{
				Analyzer: "lockorder",
				Position: m.Fset.Position(e.witness),
				Message:  msg,
			})
		}
	}
}

// LockGraph returns the acquisition-order graph derived by the last
// lockorder run over this module, or nil.
func (m *Module) LockGraph() *LockGraph { return m.lockGraph }

func sortedPosKeys[V any](m map[token.Pos]V) []token.Pos {
	out := make([]token.Pos, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedClassIDs(m map[token.Pos]stateClass) []token.Pos {
	out := make([]token.Pos, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func inPosSet(s []token.Pos, p token.Pos) bool {
	for _, v := range s {
		if v == p {
			return true
		}
	}
	return false
}

// tarjanSCC computes strongly connected components over the given
// nodes, returned in a deterministic order with each component sorted.
func tarjanSCC(nodes []token.Pos, succ map[token.Pos][]token.Pos) [][]token.Pos {
	index := make(map[token.Pos]int)
	low := make(map[token.Pos]int)
	onStack := make(map[token.Pos]bool)
	var stack []token.Pos
	var sccs [][]token.Pos
	next := 0

	var strongconnect func(v token.Pos)
	strongconnect = func(v token.Pos) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []token.Pos
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return scc[i] < scc[j] })
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}
