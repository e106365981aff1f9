package ged

import (
	"container/heap"
	"sort"

	"github.com/midas-graph/midas/graph"
)

// search is the vertex-assignment search tree shared by Exact,
// ExactWithMapping and Beam: the vertices of a, in descending-degree
// order, are each mapped to an unused vertex of b or deleted, and the b
// vertices left unused at the end are inserted. Costs are uniform.
//
// The state is dense and built once per call. Labels are interned to
// small ints, both graphs' adjacency goes into bool matrices (a's
// already permuted into search order), and per-depth tables hold what
// depends only on how many a vertices are assigned. The cost terms and
// the heuristic are then array reads and count arithmetic: no edge map
// is probed, no label string sorted, and no node allocates beyond its
// slot in a chunked arena.
type search struct {
	na, nb  int
	nLabels int
	orderA  []int // the a vertex at each search position

	labA   []int  // interned label of orderA[k]
	adjA   []bool // adjA[k*na+i]: orderA[k] and orderA[i] are adjacent
	labB   []int  // interned label of b vertex v
	adjB   []bool // adjB[v*nb+u]: b vertices v and u are adjacent
	edgesB int

	// Per-depth tables, indexed by the number k of assigned positions.
	deleteCost []float64 // deleting orderA[k]: the vertex and its edges into orderA[:k]
	openEdgesA []int     // a edges with an endpoint outside orderA[:k]
	labelsA    []int     // labelsA[k*nLabels+l]: vertices labelled l in orderA[k:]

	// The loaded node: its mapping by position (a b vertex or -1 for
	// deletion), the b vertices it uses and how many, the label counts
	// of the unused ones, and the b edges with both endpoints used.
	mapping []int
	used    []bool
	nUsed   int
	freeB   []int
	innerB  int

	kids  []child
	arena []gedNode
}

// gedNode is a search node: the mapping of orderA[:depth], stored as
// the last assignment plus the parent's node.
type gedNode struct {
	parent *gedNode
	g, f   float64 // cost so far; g plus the heuristic
	depth  int32
	b      int32 // image of orderA[depth-1]: a b vertex, or -1 (deleted)
}

// child is a candidate successor of a node.
type child struct {
	b    int
	g, f float64
}

func newSearch(a, b *graph.Graph) *search {
	na, nb := a.Order(), b.Order()
	s := &search{na: na, nb: nb, orderA: make([]int, na), edgesB: b.Size()}
	for i := range s.orderA {
		s.orderA[i] = i
	}
	sort.Slice(s.orderA, func(i, j int) bool { return a.Degree(s.orderA[i]) > a.Degree(s.orderA[j]) })

	var names []string
	intern := func(label string) int {
		for l, name := range names {
			if name == label {
				return l
			}
		}
		names = append(names, label)
		return len(names) - 1
	}
	pos := make([]int, na)
	s.labA = make([]int, na)
	for k, v := range s.orderA {
		pos[v] = k
		s.labA[k] = intern(a.Label(v))
	}
	s.labB = make([]int, nb)
	for v := range s.labB {
		s.labB[v] = intern(b.Label(v))
	}
	s.nLabels = len(names)

	// closedAt[k]: a edges whose later endpoint is position k, so both
	// endpoints are assigned once k+1 positions are.
	closedAt := make([]int, na)
	s.adjA = make([]bool, na*na)
	for _, e := range a.Edges() {
		u, v := pos[e.U], pos[e.V]
		s.adjA[u*na+v], s.adjA[v*na+u] = true, true
		closedAt[max(u, v)]++
	}
	s.adjB = make([]bool, nb*nb)
	for _, e := range b.Edges() {
		s.adjB[e.U*nb+e.V], s.adjB[e.V*nb+e.U] = true, true
	}

	s.deleteCost = make([]float64, na)
	s.openEdgesA = make([]int, na+1)
	s.openEdgesA[0] = a.Size()
	for k := 0; k < na; k++ {
		back := 0
		for _, adj := range s.adjA[k*na : k*na+k] {
			if adj {
				back++
			}
		}
		s.deleteCost[k] = float64(1 + back)
		s.openEdgesA[k+1] = s.openEdgesA[k] - closedAt[k]
	}
	s.labelsA = make([]int, (na+1)*s.nLabels)
	for k := na - 1; k >= 0; k-- {
		copy(s.labelsA[k*s.nLabels:], s.labelsA[(k+1)*s.nLabels:(k+2)*s.nLabels])
		s.labelsA[k*s.nLabels+s.labA[k]]++
	}

	s.mapping = make([]int, 0, na)
	s.used = make([]bool, nb)
	s.freeB = make([]int, s.nLabels)
	for _, l := range s.labB {
		s.freeB[l]++
	}
	s.kids = make([]child, 0, nb+1)
	return s
}

// root returns the empty mapping's node.
func (s *search) root() *gedNode {
	n := s.alloc()
	*n = gedNode{f: s.h(0, 0, s.commonLabels(0), 0)}
	return n
}

// alloc returns a fresh node slot. Chunks are never reallocated, so
// node pointers stay valid for the whole search.
func (s *search) alloc() *gedNode {
	if len(s.arena) == cap(s.arena) {
		s.arena = make([]gedNode, 0, min(max(2*cap(s.arena), 64), 4096))
	}
	s.arena = s.arena[:len(s.arena)+1]
	return &s.arena[len(s.arena)-1]
}

// extend returns the node for child c of n.
func (s *search) extend(n *gedNode, c child) *gedNode {
	x := s.alloc()
	*x = gedNode{parent: n, g: c.g, f: c.f, depth: n.depth + 1, b: int32(c.b)}
	return x
}

// load makes n the loaded node, the one expand and total read.
func (s *search) load(n *gedNode) {
	for _, m := range s.mapping {
		if m >= 0 {
			s.used[m] = false
			s.freeB[s.labB[m]]++
		}
	}
	s.mapping = s.mapping[:n.depth]
	for p := n; p.depth > 0; p = p.parent {
		s.mapping[p.depth-1] = int(p.b)
	}
	s.nUsed, s.innerB = 0, 0
	for i, m := range s.mapping {
		if m < 0 {
			continue
		}
		for _, u := range s.mapping[:i] {
			if u >= 0 && s.adjB[m*s.nb+u] {
				s.innerB++
			}
		}
		s.used[m] = true
		s.freeB[s.labB[m]]--
		s.nUsed++
	}
}

// commonLabels is the size of the label-multiset intersection between
// orderA[k:] and the loaded node's unused b vertices.
func (s *search) commonLabels(k int) int {
	common := 0
	for l, n := range s.labelsA[k*s.nLabels : (k+1)*s.nLabels] {
		common += min(n, s.freeB[l])
	}
	return common
}

// h is the admissible heuristic for a node with k positions assigned
// and nUsed b vertices used, common labels shared between the rest of
// each side, and innerB b edges between used vertices: the label
// multiset mismatch of the unassigned a vertices against the unused b
// vertices, plus the difference between the a edges with an unassigned
// endpoint and the b edges with an unused one.
func (s *search) h(k, nUsed, common, innerB int) float64 {
	hv := max(s.na-k, s.nb-nUsed) - common
	he := intAbs(s.openEdgesA[k] - (s.edgesB - innerB))
	return float64(hv) + float64(he)
}

// total returns the cost of the complete mapping n: its g plus the
// insertions that close it, the unused b vertices with every b edge
// that has an unused endpoint. Edges between used b vertices were
// charged at substitution.
func (s *search) total(n *gedNode) float64 {
	s.load(n)
	return n.g + float64(s.nb-s.nUsed+s.edgesB-s.innerB)
}

// expand returns the children of n in push order: orderA[k]
// substituted by each unused b vertex in ascending order, then deleted.
// A substitution costs the label mismatch plus one per edge
// disagreement with the assigned positions (an edge to a deleted vertex
// is deleted); a deletion costs the vertex and its edges to the
// assigned positions.
func (s *search) expand(n *gedNode) []child {
	s.load(n)
	k := len(s.mapping)
	label := s.labA[k]
	rowA := s.adjA[k*s.na : k*s.na+k]
	next := s.labelsA[(k+1)*s.nLabels : (k+2)*s.nLabels]
	common := s.commonLabels(k + 1)
	s.kids = s.kids[:0]
	for bv, used := range s.used {
		if used {
			continue
		}
		c := 0
		if s.labB[bv] != label {
			c = 1
		}
		rowB := s.adjB[bv*s.nb : (bv+1)*s.nb]
		inner := s.innerB
		for i, m := range s.mapping {
			if m < 0 {
				if rowA[i] {
					c++
				}
				continue
			}
			if rowB[m] {
				inner++
			}
			if rowA[i] != rowB[m] {
				c++
			}
		}
		// Using bv takes one of its label off the unused side, which
		// shrinks the intersection when that label was not in surplus.
		cm := common
		if lb := s.labB[bv]; s.freeB[lb] <= next[lb] {
			cm--
		}
		g := n.g + float64(c)
		s.kids = append(s.kids, child{b: bv, g: g, f: g + s.h(k+1, s.nUsed+1, cm, inner)})
	}
	g := n.g + s.deleteCost[k]
	s.kids = append(s.kids, child{b: -1, g: g, f: g + s.h(k+1, s.nUsed, common, s.innerB)})
	return s.kids
}

// astar runs A* from upper, the cost of a known complete mapping. It
// returns the best cost found, whether it is proven optimal, the number
// of nodes expanded, and the goal node that realises the cost (nil when
// no goal beat upper). The search stops, inexact, after maxNodes
// expansions (<= 0 means 400000) or when cancel, polled every 256
// expansions, fires.
func (s *search) astar(upper float64, maxNodes int, cancel func() bool) (float64, bool, int, *gedNode) {
	if maxNodes <= 0 {
		maxNodes = 400000
	}
	var goal *gedNode
	pq := &gedPQ{s.root()}
	heap.Init(pq)
	expanded := 0
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(*gedNode)
		if cur.f >= upper {
			// Everything remaining costs at least the known upper bound.
			return upper, true, expanded, goal
		}
		if int(cur.depth) == s.na {
			// Insertions are settled at goal time, so a popped goal is
			// not necessarily optimal; the check above ends the search
			// once the frontier cannot improve on it.
			if total := s.total(cur); total < upper {
				upper, goal = total, cur
			}
			continue
		}
		expanded++
		if expanded > maxNodes {
			return upper, false, expanded, goal
		}
		if cancel != nil && expanded&0xFF == 0 && cancel() {
			return upper, false, expanded, goal
		}
		for _, c := range s.expand(cur) {
			if c.f < upper {
				heap.Push(pq, s.extend(cur, c))
			}
		}
	}
	return upper, true, expanded, goal
}

// vertexMapping returns n's mapping indexed by a vertex: a b vertex, or
// -1 for deletion.
func (s *search) vertexMapping(n *gedNode) []int {
	out := make([]int, s.na)
	for i := range out {
		out[i] = -1
	}
	for p := n; p.depth > 0; p = p.parent {
		out[s.orderA[p.depth-1]] = int(p.b)
	}
	return out
}

type gedPQ []*gedNode

func (q gedPQ) Len() int            { return len(q) }
func (q gedPQ) Less(i, j int) bool  { return q[i].f < q[j].f }
func (q gedPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *gedPQ) Push(x interface{}) { *q = append(*q, x.(*gedNode)) }
func (q *gedPQ) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
