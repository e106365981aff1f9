package iso

import (
	"github.com/midas-graph/midas/graph"
)

// mccsReference is the map-based MCCS search that MCCSWithCancel
// replaced, kept verbatim as the oracle for the dense search state: the
// two must visit the same search nodes in the same order, so they agree
// on every result, budget-truncated lower bounds included, and on the
// step count. It returns that count and does not touch the package's
// kernel counters.
func mccsReference(g1, g2 *graph.Graph, budget int, cancel func() bool) (MCCSResult, int) {
	if budget <= 0 {
		budget = 200000
	}
	if g1.Size() == 0 || g2.Size() == 0 {
		return MCCSResult{Exact: true}, 0
	}
	// Search from the smaller graph for a tighter branching factor.
	swapped := false
	if g1.Size() > g2.Size() {
		g1, g2 = g2, g1
		swapped = true
	}
	s := &mccsRefState{
		g1:        g1,
		g2:        g2,
		map12:     make([]int, g1.Order()),
		used2:     make([]bool, g2.Order()),
		edgesUsed: make(map[graph.Edge]bool),
		budget:    budget,
		cancel:    cancel,
	}
	for i := range s.map12 {
		s.map12[i] = -1
	}
	// Seed with every compatible (g1 edge, g2 edge, orientation) triple.
	minSize := g1.Size()
	if g2.Size() < minSize {
		minSize = g2.Size()
	}
outer:
	for _, e1 := range g1.Edges() {
		for _, e2 := range g2.Edges() {
			for _, o := range refOrientations(g1, g2, e1, e2) {
				s.map12[e1.U] = o[0]
				s.map12[e1.V] = o[1]
				s.used2[o[0]] = true
				s.used2[o[1]] = true
				s.edgesUsed[e1] = true
				s.cur = append(s.cur, e1)

				s.extend()

				s.cur = s.cur[:0]
				delete(s.edgesUsed, e1)
				s.used2[o[0]] = false
				s.used2[o[1]] = false
				s.map12[e1.U] = -1
				s.map12[e1.V] = -1
				if len(s.best) == minSize || s.steps >= s.budget {
					break outer
				}
			}
		}
	}
	res := MCCSResult{Edges: s.best, Mapping: s.bestMap, Exact: s.steps < s.budget}
	if res.Mapping == nil {
		res.Mapping = make([]int, 0)
	}
	if swapped {
		res = swapResult(res, g1, g2)
	}
	return res, s.steps
}

type mccsRefState struct {
	g1, g2    *graph.Graph
	map12     []int // g1 vertex -> g2 vertex or -1
	used2     []bool
	edgesUsed map[graph.Edge]bool // g1 edges already in the common subgraph
	cur       []graph.Edge        // g1 edges of the current common subgraph
	best      []graph.Edge
	bestMap   []int
	budget    int
	steps     int
	cancel    func() bool
}

// refOrientations returns the ways e2's endpoints can be assigned to
// e1's endpoints with matching labels: each element is [imageOfU,
// imageOfV].
func refOrientations(g1, g2 *graph.Graph, e1, e2 graph.Edge) [][2]int {
	var out [][2]int
	if g1.Label(e1.U) == g2.Label(e2.U) && g1.Label(e1.V) == g2.Label(e2.V) {
		out = append(out, [2]int{e2.U, e2.V})
	}
	if g1.Label(e1.U) == g2.Label(e2.V) && g1.Label(e1.V) == g2.Label(e2.U) {
		out = append(out, [2]int{e2.V, e2.U})
	}
	return out
}

// extend grows the current common subgraph by one edge and recurses.
func (s *mccsRefState) extend() {
	if s.steps >= s.budget {
		return
	}
	if s.cancel != nil && s.steps&0x3FF == 0 && s.cancel() {
		s.steps = s.budget // drain: every budget check now exits
		return
	}
	s.steps++
	if len(s.cur) > len(s.best) {
		s.best = append(s.best[:0:0], s.cur...)
		s.bestMap = append([]int(nil), s.map12...)
	}
	if len(s.cur)+refRemainingEdges(s.g1, s.edgesUsed) <= len(s.best) {
		return
	}
	// Candidate g1 edges: unused, adjacent to the mapped region.
	for _, e1 := range s.g1.Edges() {
		if s.edgesUsed[e1] {
			continue
		}
		mu, mv := s.map12[e1.U], s.map12[e1.V]
		switch {
		case mu >= 0 && mv >= 0:
			// Both endpoints mapped: the g2 edge must exist.
			if !s.g2.HasEdge(mu, mv) {
				continue
			}
			s.edgesUsed[e1] = true
			s.cur = append(s.cur, e1)
			s.extend()
			s.cur = s.cur[:len(s.cur)-1]
			delete(s.edgesUsed, e1)
		case mu >= 0:
			s.extendFrom(e1, e1.U, e1.V)
		case mv >= 0:
			s.extendFrom(e1, e1.V, e1.U)
		}
		if s.steps >= s.budget {
			return
		}
	}
}

// extendFrom maps the free endpoint `free` of edge e1 (whose other
// endpoint `anchored` is mapped) to each compatible g2 neighbour.
func (s *mccsRefState) extendFrom(e1 graph.Edge, anchored, free int) {
	gAnchor := s.map12[anchored]
	for _, g2v := range s.g2.Neighbors(gAnchor) {
		if s.used2[g2v] || s.g2.Label(g2v) != s.g1.Label(free) {
			continue
		}
		s.map12[free] = g2v
		s.used2[g2v] = true
		s.edgesUsed[e1] = true
		s.cur = append(s.cur, e1)

		s.extend()

		s.cur = s.cur[:len(s.cur)-1]
		delete(s.edgesUsed, e1)
		s.used2[g2v] = false
		s.map12[free] = -1
		if s.steps >= s.budget {
			return
		}
	}
}

func refRemainingEdges(g *graph.Graph, used map[graph.Edge]bool) int {
	return g.Size() - len(used)
}
