package iso

import (
	"github.com/midas-graph/midas/graph"
)

// Maximum connected common subgraph (MCCS), used by CATAPULT's fine
// clustering: ω_MCCS(G1,G2) = |MCCS| / min(|G1|,|G2|) with |G| the edge
// count (paper §2.3, [35]).
//
// The search is a McGregor-style backtracking over edge correspondences
// that grows a connected common subgraph, with an explicit step budget.
// Within budget the result is exact; once the budget is exhausted the
// best subgraph found so far is returned (a lower bound), which is the
// standard engineering compromise for this NP-hard primitive.

// MCCSResult describes the best common connected subgraph found.
type MCCSResult struct {
	// Edges are edges of g1 forming the common subgraph.
	Edges []graph.Edge
	// Mapping maps g1 vertices to g2 vertices (-1 where unmapped).
	Mapping []int
	// Exact reports whether the search completed within budget.
	Exact bool
}

// Size returns the number of edges of the common subgraph.
func (r MCCSResult) Size() int { return len(r.Edges) }

// MCCS computes a maximum connected common subgraph of g1 and g2. budget
// caps explored search nodes (<=0 means a generous default).
func MCCS(g1, g2 *graph.Graph, budget int) MCCSResult {
	return MCCSWithCancel(g1, g2, budget, nil)
}

// MCCSWithCancel is MCCS with an optional cancellation hook polled
// alongside the step budget; when it fires, the search stops and the
// best subgraph found so far is returned (marked inexact), exactly as
// if the budget had run out.
func MCCSWithCancel(g1, g2 *graph.Graph, budget int, cancel func() bool) MCCSResult {
	if budget <= 0 {
		budget = 200000
	}
	if g1.Size() == 0 || g2.Size() == 0 {
		return MCCSResult{Exact: true}
	}
	// Search from the smaller graph for a tighter branching factor.
	swapped := false
	if g1.Size() > g2.Size() {
		g1, g2 = g2, g1
		swapped = true
	}
	s := newMCCSState(g1, g2, budget, cancel)
	// Seed with every compatible (g1 edge, g2 edge, orientation) triple:
	// e2's endpoints in their stored order first, then reversed. g1 is
	// the smaller graph, so a full match of g1 ends the search.
outer:
	for i, e1 := range s.edges1 {
		lu, lv := s.label1[e1.U], s.label1[e1.V]
		for _, e2 := range g2.Edges() {
			la, lb := s.label2[e2.U], s.label2[e2.V]
			if lu == la && lv == lb {
				s.seed(i, e2.U, e2.V)
				if len(s.best) == len(s.edges1) || s.steps >= s.budget {
					break outer
				}
			}
			if lu == lb && lv == la {
				s.seed(i, e2.V, e2.U)
				if len(s.best) == len(s.edges1) || s.steps >= s.budget {
					break outer
				}
			}
		}
	}
	res := MCCSResult{Mapping: s.bestMap, Exact: s.steps < s.budget}
	if len(s.best) > 0 {
		res.Edges = make([]graph.Edge, len(s.best))
		for k, i := range s.best {
			res.Edges[k] = s.edges1[i]
		}
	}
	flushMCCS(s.steps, !res.Exact)
	if swapped {
		res = swapResult(res, g1, g2)
	}
	return res
}

// mccsState is the search state of one MCCS call, laid out densely so
// the inner loop does no hashing: g1 edges are addressed by their
// position in g1.Edges(), g2 adjacency is a bit matrix, and vertex
// labels are interned to small ints shared by both graphs.
type mccsState struct {
	g2      *graph.Graph
	edges1  []graph.Edge // g1.Edges(); positions index used1
	label1  []int32      // g1 vertex -> interned label
	label2  []int32      // g2 vertex -> interned label
	adj2    []uint64     // g2 adjacency bit matrix, stride words per row
	stride  int
	map12   []int   // g1 vertex -> g2 vertex or -1
	used2   []bool  // g2 vertices in the image of map12
	used1   []bool  // g1 edges in the common subgraph, by position
	cur     []int32 // g1 edge positions of the current common subgraph
	best    []int32
	bestMap []int // map12 when best was recorded; empty until then
	budget  int
	steps   int
	cancel  func() bool
}

func newMCCSState(g1, g2 *graph.Graph, budget int, cancel func() bool) *mccsState {
	n1, n2 := g1.Order(), g2.Order()
	s := &mccsState{
		g2:      g2,
		edges1:  g1.Edges(),
		stride:  (n2 + 63) >> 6,
		map12:   make([]int, n1),
		used2:   make([]bool, n2),
		used1:   make([]bool, g1.Size()),
		cur:     make([]int32, 0, g1.Size()),
		best:    make([]int32, 0, g1.Size()),
		bestMap: make([]int, 0, n1),
		budget:  budget,
		cancel:  cancel,
	}
	for i := range s.map12 {
		s.map12[i] = -1
	}
	labels := make([]int32, n1+n2)
	ids := make(map[string]int32)
	for i, l := range g1.Labels() {
		labels[i] = intern(ids, l)
	}
	for i, l := range g2.Labels() {
		labels[n1+i] = intern(ids, l)
	}
	s.label1, s.label2 = labels[:n1], labels[n1:]
	s.adj2 = make([]uint64, n2*s.stride)
	for _, e := range g2.Edges() {
		s.adj2[e.U*s.stride+e.V>>6] |= 1 << (uint(e.V) & 63)
		s.adj2[e.V*s.stride+e.U>>6] |= 1 << (uint(e.U) & 63)
	}
	return s
}

// intern returns the small int standing for label l, numbering labels
// in first-seen order.
func intern(ids map[string]int32, l string) int32 {
	id, ok := ids[l]
	if !ok {
		id = int32(len(ids))
		ids[l] = id
	}
	return id
}

// hasEdge2 reports whether g2 has the edge (u,v).
func (s *mccsState) hasEdge2(u, v int) bool {
	return s.adj2[u*s.stride+v>>6]&(1<<(uint(v)&63)) != 0
}

// seed runs the search from g1 edge i mapped onto the g2 edge (a,b).
func (s *mccsState) seed(i, a, b int) {
	e1 := s.edges1[i]
	s.map12[e1.U] = a
	s.map12[e1.V] = b
	s.used2[a] = true
	s.used2[b] = true
	s.used1[i] = true
	s.cur = append(s.cur, int32(i))

	s.extend()

	s.cur = s.cur[:0]
	s.used1[i] = false
	s.used2[a] = false
	s.used2[b] = false
	s.map12[e1.U] = -1
	s.map12[e1.V] = -1
}

// extend grows the current common subgraph by one edge and recurses.
func (s *mccsState) extend() {
	if s.steps >= s.budget {
		return
	}
	if s.cancel != nil && s.steps&0x3FF == 0 && s.cancel() {
		s.steps = s.budget // drain: every budget check now exits
		return
	}
	s.steps++
	if len(s.cur) > len(s.best) {
		s.best = append(s.best[:0], s.cur...)
		s.bestMap = append(s.bestMap[:0], s.map12...)
	}
	// Not an upper-bound prune: counting every unused g1 edge as still
	// attainable makes current + remaining = |E1|, so this stops only
	// once best is a full-size match of g1.
	if len(s.edges1) <= len(s.best) {
		return
	}
	// Candidate g1 edges: unused, adjacent to the mapped region.
	for i, e1 := range s.edges1 {
		if s.used1[i] {
			continue
		}
		mu, mv := s.map12[e1.U], s.map12[e1.V]
		switch {
		case mu >= 0 && mv >= 0:
			// Both endpoints mapped: the g2 edge must exist.
			if !s.hasEdge2(mu, mv) {
				continue
			}
			s.used1[i] = true
			s.cur = append(s.cur, int32(i))
			s.extend()
			s.cur = s.cur[:len(s.cur)-1]
			s.used1[i] = false
		case mu >= 0:
			s.extendFrom(i, mu, e1.V)
		case mv >= 0:
			s.extendFrom(i, mv, e1.U)
		}
		if s.steps >= s.budget {
			return
		}
	}
}

// extendFrom adds g1 edge i, whose endpoint `free` is unmapped and whose
// other endpoint is mapped to gAnchor, once per compatible g2 neighbour
// of gAnchor.
func (s *mccsState) extendFrom(i, gAnchor, free int) {
	want := s.label1[free]
	for _, g2v := range s.g2.Neighbors(gAnchor) {
		if s.used2[g2v] || s.label2[g2v] != want {
			continue
		}
		s.map12[free] = g2v
		s.used2[g2v] = true
		s.used1[i] = true
		s.cur = append(s.cur, int32(i))

		s.extend()

		s.cur = s.cur[:len(s.cur)-1]
		s.used1[i] = false
		s.used2[g2v] = false
		s.map12[free] = -1
		if s.steps >= s.budget {
			return
		}
	}
}

// swapResult converts a result computed on (small=g1,big=g2) after the
// caller swapped arguments: edges must be reported in the original g1
// (which is `big` here), and the mapping must go big->small.
func swapResult(r MCCSResult, small, big *graph.Graph) MCCSResult {
	inv := make([]int, big.Order())
	for i := range inv {
		inv[i] = -1
	}
	var edges []graph.Edge
	for v1, v2 := range r.Mapping {
		if v2 >= 0 {
			inv[v2] = v1
		}
	}
	for _, e := range r.Edges {
		u2, v2 := r.Mapping[e.U], r.Mapping[e.V]
		edges = append(edges, graph.Edge{U: u2, V: v2}.Canon())
	}
	_ = small
	return MCCSResult{Edges: edges, Mapping: inv, Exact: r.Exact}
}

// MCCSSimilarity returns ω_MCCS(g1,g2) = |MCCS| / min(|G1|,|G2|), in
// [0,1]. Graphs without edges have similarity 0.
func MCCSSimilarity(g1, g2 *graph.Graph, budget int) float64 {
	return MCCSSimilarityCancel(g1, g2, budget, nil)
}

// MCCSSimilarityCancel is MCCSSimilarity with a cancellation hook.
func MCCSSimilarityCancel(g1, g2 *graph.Graph, budget int, cancel func() bool) float64 {
	minSize := g1.Size()
	if g2.Size() < minSize {
		minSize = g2.Size()
	}
	if minSize == 0 {
		return 0
	}
	return float64(MCCSWithCancel(g1, g2, budget, cancel).Size()) / float64(minSize)
}
