package ged

import (
	"container/heap"
	"sort"

	"github.com/midas-graph/midas/graph"
)

// This file keeps the string-and-map A* search that the dense search
// state replaced, verbatim apart from renames, as the oracle for it:
// the two must pop and expand the same nodes in the same order, so they
// agree on every distance, exactness flag, mapping, beam value and
// expansion count. None of it touches the package's kernel counters
// except through Bipartite.

// exactReference is the ExactCancel loop. It also returns the number of
// nodes it expanded.
func exactReference(a, b *graph.Graph, maxNodes int, cancel func() bool) (float64, bool, int) {
	if maxNodes <= 0 {
		maxNodes = 400000
	}
	// Search maps vertices of a (in descending-degree order) to vertices
	// of b or to deletion; insertions are settled at the end.
	orderA := make([]int, a.Order())
	for i := range orderA {
		orderA[i] = i
	}
	sort.Slice(orderA, func(i, j int) bool { return a.Degree(orderA[i]) > a.Degree(orderA[j]) })

	upper := Bipartite(a, b)
	start := &refNode{mapping: make([]int, 0, a.Order())}
	start.f = heuristic(a, b, start.mapping, orderA)
	pq := &refPQ{start}
	heap.Init(pq)
	expanded := 0
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(*refNode)
		if cur.f >= upper {
			// Everything remaining costs at least the known upper bound.
			return upper, true, expanded
		}
		if len(cur.mapping) == a.Order() {
			total := cur.g + insertionCost(a, b, cur.mapping, orderA)
			if total < upper {
				upper = total
			}
			continue
		}
		expanded++
		if expanded > maxNodes {
			return upper, false, expanded
		}
		if cancel != nil && expanded&0xFF == 0 && cancel() {
			return upper, false, expanded
		}
		av := orderA[len(cur.mapping)]
		// Substitute with each unused b vertex.
		for bv := 0; bv < b.Order(); bv++ {
			if cur.uses(bv) {
				continue
			}
			child := cur.extend(bv)
			child.g = cur.g + substitutionCost(a, b, av, bv, cur.mapping, orderA)
			child.f = child.g + heuristic(a, b, child.mapping, orderA)
			if child.f < upper {
				heap.Push(pq, child)
			}
		}
		// Delete av.
		child := cur.extend(-1)
		child.g = cur.g + 1 + float64(mappedDegree(a, av, cur.mapping, orderA))
		child.f = child.g + heuristic(a, b, child.mapping, orderA)
		if child.f < upper {
			heap.Push(pq, child)
		}
	}
	return upper, true, expanded
}

// substitutionCost is the incremental cost of mapping av->bv given the
// existing partial mapping: label mismatch plus edge edits between av and
// previously mapped vertices.
func substitutionCost(a, b *graph.Graph, av, bv int, mapping []int, orderA []int) float64 {
	c := 0.0
	if a.Label(av) != b.Label(bv) {
		c = 1
	}
	for i, m := range mapping {
		au := orderA[i]
		aEdge := a.HasEdge(av, au)
		if m == -1 {
			if aEdge {
				c++ // edge to deleted vertex must be deleted
			}
			continue
		}
		bEdge := b.HasEdge(bv, m)
		if aEdge != bEdge {
			c++
		}
	}
	return c
}

// mappedDegree counts edges from av to already-mapped (or deleted)
// a-vertices; deleting av deletes those edges.
func mappedDegree(a *graph.Graph, av int, mapping []int, orderA []int) int {
	n := 0
	for i := range mapping {
		if a.HasEdge(av, orderA[i]) {
			n++
		}
	}
	return n
}

// insertionCost closes a complete mapping: unmatched b vertices are
// inserted along with every b edge not matched by an a edge; edges of b
// between two substituted vertices were already accounted.
func insertionCost(a, b *graph.Graph, mapping []int, orderA []int) float64 {
	used := make([]bool, b.Order())
	aimg := make([]int, a.Order())
	for i := range aimg {
		aimg[i] = -1
	}
	for i, m := range mapping {
		if m >= 0 {
			used[m] = true
			aimg[orderA[i]] = m
		}
	}
	cost := 0.0
	for v := 0; v < b.Order(); v++ {
		if !used[v] {
			cost++
		}
	}
	// b edges with at least one un-mapped endpoint are insertions; those
	// between mapped endpoints were charged during substitution.
	for _, e := range b.Edges() {
		if !used[e.U] || !used[e.V] {
			cost++
		}
	}
	return cost
}

// heuristic is an admissible estimate of the remaining cost: label
// multiset mismatch between unmapped a vertices and unused b vertices,
// plus the difference between remaining edge counts.
func heuristic(a, b *graph.Graph, mapping []int, orderA []int) float64 {
	usedB := make([]bool, b.Order())
	for _, m := range mapping {
		if m >= 0 {
			usedB[m] = true
		}
	}
	var remA, remB []string
	for i := len(mapping); i < a.Order(); i++ {
		remA = append(remA, a.Label(orderA[i]))
	}
	for v := 0; v < b.Order(); v++ {
		if !usedB[v] {
			remB = append(remB, b.Label(v))
		}
	}
	sort.Strings(remA)
	sort.Strings(remB)
	common := multisetIntersection(remA, remB)
	maxR := len(remA)
	if len(remB) > maxR {
		maxR = len(remB)
	}
	hv := float64(maxR - common)

	// Remaining-edge counts: a edges with an unmapped endpoint vs b edges
	// with an unused endpoint.
	inMapping := make([]bool, a.Order())
	for i := range mapping {
		inMapping[orderA[i]] = true
	}
	ea, eb := 0, 0
	for _, e := range a.Edges() {
		if !inMapping[e.U] || !inMapping[e.V] {
			ea++
		}
	}
	for _, e := range b.Edges() {
		if !usedB[e.U] || !usedB[e.V] {
			eb++
		}
	}
	he := float64(intAbs(ea - eb))
	return hv + he
}

type refNode struct {
	mapping []int // orderA[i] -> b vertex or -1 (deleted)
	g, f    float64
}

func (n *refNode) uses(bv int) bool {
	for _, m := range n.mapping {
		if m == bv {
			return true
		}
	}
	return false
}

func (n *refNode) extend(bv int) *refNode {
	m := make([]int, len(n.mapping)+1)
	copy(m, n.mapping)
	m[len(n.mapping)] = bv
	return &refNode{mapping: m}
}

type refPQ []*refNode

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].f < q[j].f }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(*refNode)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

func heapInit(pq *refPQ)             { heap.Init(pq) }
func heapPush(pq *refPQ, n *refNode) { heap.Push(pq, n) }
func heapPop(pq *refPQ) *refNode     { return heap.Pop(pq).(*refNode) }

func sortByDegreeDesc(g *graph.Graph, order []int) {
	sort.Slice(order, func(i, j int) bool {
		return g.Degree(order[i]) > g.Degree(order[j])
	})
}

// exactWithMappingReference is the ExactWithMapping loop.
func exactWithMappingReference(a, b *graph.Graph, maxNodes int) (float64, []int, bool) {
	// Re-run the A* tracking the incumbent mapping. Mirrors Exact; kept
	// separate so the hot distance-only path stays allocation-light.
	if maxNodes <= 0 {
		maxNodes = 400000
	}
	orderA := make([]int, a.Order())
	for i := range orderA {
		orderA[i] = i
	}
	sortByDegreeDesc(a, orderA)

	bestMapping := bipartiteMapping(a, b)
	upper := editCostOfMappingDirect(a, b, bestMapping)

	start := &refNode{mapping: make([]int, 0, a.Order())}
	start.f = heuristic(a, b, start.mapping, orderA)
	pq := &refPQ{start}
	heapInit(pq)
	expanded := 0
	for pq.Len() > 0 {
		cur := heapPop(pq)
		if cur.f >= upper {
			return upper, bestMapping, true
		}
		if len(cur.mapping) == a.Order() {
			total := cur.g + insertionCost(a, b, cur.mapping, orderA)
			if total < upper {
				upper = total
				bestMapping = mappingInVertexOrder(cur.mapping, orderA, a.Order())
			}
			continue
		}
		expanded++
		if expanded > maxNodes {
			return upper, bestMapping, false
		}
		av := orderA[len(cur.mapping)]
		for bv := 0; bv < b.Order(); bv++ {
			if cur.uses(bv) {
				continue
			}
			child := cur.extend(bv)
			child.g = cur.g + substitutionCost(a, b, av, bv, cur.mapping, orderA)
			child.f = child.g + heuristic(a, b, child.mapping, orderA)
			if child.f < upper {
				heapPush(pq, child)
			}
		}
		child := cur.extend(-1)
		child.g = cur.g + 1 + float64(mappedDegree(a, av, cur.mapping, orderA))
		child.f = child.g + heuristic(a, b, child.mapping, orderA)
		if child.f < upper {
			heapPush(pq, child)
		}
	}
	return upper, bestMapping, true
}

// mappingInVertexOrder converts an order-indexed mapping back to vertex
// indexing.
func mappingInVertexOrder(orderMapping, orderA []int, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	for i, bv := range orderMapping {
		out[orderA[i]] = bv
	}
	return out
}

// beamReference is Beam without its BeamCalls count.
func beamReference(a, b *graph.Graph, width int) float64 {
	if width < 1 {
		width = 1
	}
	orderA := make([]int, a.Order())
	for i := range orderA {
		orderA[i] = i
	}
	sort.Slice(orderA, func(i, j int) bool { return a.Degree(orderA[i]) > a.Degree(orderA[j]) })

	type partial struct {
		mapping []int
		g       float64
	}
	level := []partial{{mapping: []int{}}}
	for depth := 0; depth < a.Order(); depth++ {
		av := orderA[depth]
		var next []partial
		for _, p := range level {
			used := make(map[int]bool, len(p.mapping))
			for _, m := range p.mapping {
				if m >= 0 {
					used[m] = true
				}
			}
			for bv := 0; bv < b.Order(); bv++ {
				if used[bv] {
					continue
				}
				child := append(append([]int{}, p.mapping...), bv)
				next = append(next, partial{
					mapping: child,
					g:       p.g + substitutionCost(a, b, av, bv, p.mapping, orderA),
				})
			}
			del := append(append([]int{}, p.mapping...), -1)
			next = append(next, partial{
				mapping: del,
				g:       p.g + 1 + float64(mappedDegree(a, av, p.mapping, orderA)),
			})
		}
		// Keep the best `width` by g + admissible heuristic.
		sort.SliceStable(next, func(i, j int) bool {
			fi := next[i].g + heuristic(a, b, next[i].mapping, orderA)
			fj := next[j].g + heuristic(a, b, next[j].mapping, orderA)
			return fi < fj
		})
		if len(next) > width {
			next = next[:width]
		}
		level = next
	}
	best := -1.0
	for _, p := range level {
		total := p.g + insertionCost(a, b, p.mapping, orderA)
		if best < 0 || total < best {
			best = total
		}
	}
	if best < 0 {
		// a has no vertices: cost is building b outright.
		return float64(b.Order() + b.Size())
	}
	return best
}
