package ged

import "github.com/midas-graph/midas/graph"

// LowerBoundLabel returns the label-count lower bound GED_l of Lemma 6.1
// with zero relaxed edges:
//
//	|V| = ||V_A|-|V_B|| + Min(|V_A|,|V_B|) - |L(V_A) ∩ L(V_B)|
//	|E| = ||E_A|-|E_B||
//
// where the label intersection is over multisets.
func LowerBoundLabel(a, b *graph.Graph) float64 {
	return float64(vertexTerm(a, b) + intAbs(a.Size()-b.Size()))
}

// TighterLowerBound returns GED'_l = GED_l + n where n is the number of
// relaxed edges determined externally (e.g. from the PF-matrix feature
// containment test of §6.1).
func TighterLowerBound(a, b *graph.Graph, relaxedEdges int) float64 {
	if relaxedEdges < 0 {
		relaxedEdges = 0
	}
	return float64(vertexTerm(a,
		b) + intAbs(a.Size()-b.Size()) + relaxedEdges)
}

func vertexTerm(a, b *graph.Graph) int {
	la := graph.SortedVertexLabels(a)
	lb := graph.SortedVertexLabels(b)
	common := multisetIntersection(la, lb)
	minV := a.Order()
	if b.Order() < minV {
		minV = b.Order()
	}
	return intAbs(a.Order()-b.Order()) + minV - common
}

// multisetIntersection returns |A ∩ B| for two sorted string multisets.
func multisetIntersection(a, b []string) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

func intAbs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Bipartite returns the assignment-based GED approximation of [32]: each
// vertex of a is assigned to a vertex of b (substitution), to deletion,
// or left for insertion, with local costs that include the incident-edge
// mismatch; the induced edit path cost is returned. It is an upper bound
// on the exact GED.
func Bipartite(a, b *graph.Graph) float64 {
	kernelStats.bipartiteCalls.Add(1)
	na, nb := a.Order(), b.Order()
	n := na + nb
	if n == 0 {
		return 0
	}
	const big = 1e18
	// All rows are carved from one backing slice.
	cells := make([]float64, n*n)
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			c := 0.0
			if a.Label(i) != b.Label(j) {
				c = 1
			}
			// Local edge structure: degree difference approximates the
			// edge edits caused by this substitution.
			c += 0.5 * float64(intAbs(a.Degree(i)-b.Degree(j)))
			cost[i][j] = c
		}
		for j := nb; j < n; j++ {
			if j-nb == i {
				cost[i][j] = 1 + 0.5*float64(a.Degree(i)) // delete vertex i
			} else {
				cost[i][j] = big
			}
		}
	}
	for i := na; i < n; i++ {
		for j := 0; j < nb; j++ {
			if i-na == j {
				cost[i][j] = 1 + 0.5*float64(b.Degree(j)) // insert vertex j
			} else {
				cost[i][j] = big
			}
		}
		for j := nb; j < n; j++ {
			cost[i][j] = 0
		}
	}
	assign, _ := Hungarian(cost)
	// Derive the true edit cost of the induced vertex mapping.
	return editCostOfMapping(a, b, assign[:na])
}

// editCostOfMapping computes the exact cost of the edit path induced by
// a vertex mapping: mapping[i] in [0,nb) substitutes, >= nb deletes.
func editCostOfMapping(a, b *graph.Graph, mapping []int) float64 {
	nb := b.Order()
	cost := 0.0
	mapped := make([]int, a.Order())
	usedB := make([]bool, nb)
	for i, j := range mapping {
		if j < nb {
			mapped[i] = j
			usedB[j] = true
			if a.Label(i) != b.Label(j) {
				cost++ // relabel
			}
		} else {
			mapped[i] = -1
			cost++ // delete vertex
		}
	}
	for j := 0; j < nb; j++ {
		if !usedB[j] {
			cost++ // insert vertex
		}
	}
	// Edges of a: preserved if both endpoints map to adjacent b vertices.
	preserved := 0
	for _, e := range a.Edges() {
		u, v := mapped[e.U], mapped[e.V]
		if u >= 0 && v >= 0 && b.HasEdge(u, v) {
			preserved++
		} else {
			cost++ // delete edge
		}
	}
	cost += float64(b.Size() - preserved) // insert remaining b edges
	return cost
}

// Exact computes the exact uniform-cost GED between a and b via A*,
// exploring at most maxNodes search states (<=0 means a generous
// default). The second result reports whether the value is exact; when
// false, the returned value is the best upper bound found (never below
// the true distance... it is the bipartite bound if the search yielded
// nothing better).
func Exact(a, b *graph.Graph, maxNodes int) (float64, bool) {
	return ExactCancel(a, b, maxNodes, nil)
}

// ExactCancel is Exact with an optional cancellation hook polled in the
// A* expansion loop alongside the node budget; when it fires, the best
// upper bound found so far is returned (marked inexact). The search is
// seeded with the bipartite upper bound so the frontier prunes
// immediately.
func ExactCancel(a, b *graph.Graph, maxNodes int, cancel func() bool) (float64, bool) {
	d, exact, expanded, _ := newSearch(a, b).astar(Bipartite(a, b), maxNodes, cancel)
	flushExact(expanded, !exact)
	return d, exact
}

// Distance returns a practical GED estimate: exact for small graphs
// (within a default node budget), otherwise the bipartite upper bound.
func Distance(a, b *graph.Graph) float64 {
	return DistanceCancel(a, b, nil)
}

// DistanceCancel is Distance with an optional cancellation hook; on
// cancellation the (cheap) bipartite upper bound is returned.
func DistanceCancel(a, b *graph.Graph, cancel func() bool) float64 {
	if a.Order()+b.Order() <= 16 {
		if d, exact := ExactCancel(a, b, 200000, cancel); exact {
			return d
		}
	}
	return Bipartite(a, b)
}
