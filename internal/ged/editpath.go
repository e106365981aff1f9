package ged

import (
	"fmt"

	"github.com/midas-graph/midas/graph"
)

// Edit paths. Beyond the distance value, interfaces want the concrete
// edit script: when a user drops a canned pattern, the GUI can show the
// operations that turn it into (part of) the query. An edit path is
// derived from a vertex mapping; its cost equals the mapping's edit
// cost, and applying it to the source graph yields a graph isomorphic
// to the target (tested property).

// OpKind enumerates edit operations.
type OpKind int

const (
	// RelabelVertex changes the label of source vertex V to Label.
	RelabelVertex OpKind = iota
	// DeleteVertex removes source vertex V (its incident edges are
	// deleted by explicit DeleteEdge ops first).
	DeleteVertex
	// InsertVertex adds a new vertex with the given Label; Temp names
	// it for later InsertEdge references.
	InsertVertex
	// DeleteEdge removes the source edge (U, V).
	DeleteEdge
	// InsertEdge adds an edge between two endpoints, each either a kept
	// source vertex or an inserted Temp vertex.
	InsertEdge
)

// EndpointRef references an edit-path endpoint: a source-graph vertex
// (Source=true) or an inserted vertex's Temp index.
type EndpointRef struct {
	Source bool
	V      int
}

// EditOp is one operation of an edit path.
type EditOp struct {
	Kind  OpKind
	V     int    // vertex for Relabel/DeleteVertex; Temp for InsertVertex
	U     int    // first endpoint for DeleteEdge
	W     int    // second endpoint for DeleteEdge
	Label string // for RelabelVertex / InsertVertex
	A, B  EndpointRef
}

// Cost returns the uniform cost of the operation (always 1; relabels to
// the same label are never emitted).
func (EditOp) Cost() float64 { return 1 }

// PathFromMapping derives the edit path induced by a vertex mapping:
// mapping[av] = bv >= 0 substitutes, -1 deletes; b vertices not in the
// image are inserted. The path's total cost equals
// editCostOfMappingDirect(a, b, mapping).
func PathFromMapping(a, b *graph.Graph, mapping []int) []EditOp {
	var ops []EditOp
	usedB := make([]bool, b.Order())
	for _, bv := range mapping {
		if bv >= 0 {
			usedB[bv] = true
		}
	}
	// 1. Delete a-edges that are not preserved.
	for _, e := range a.Edges() {
		u, v := mapping[e.U], mapping[e.V]
		if u < 0 || v < 0 || !b.HasEdge(u, v) {
			ops = append(ops, EditOp{Kind: DeleteEdge, U: e.U, W: e.V})
		}
	}
	// 2. Delete unmapped a-vertices.
	for av, bv := range mapping {
		if bv < 0 {
			ops = append(ops, EditOp{Kind: DeleteVertex, V: av})
		}
	}
	// 3. Relabel substituted vertices with differing labels.
	for av, bv := range mapping {
		if bv >= 0 && a.Label(av) != b.Label(bv) {
			ops = append(ops, EditOp{Kind: RelabelVertex, V: av, Label: b.Label(bv)})
		}
	}
	// 4. Insert missing b-vertices; temp index = b vertex ID.
	for bv := 0; bv < b.Order(); bv++ {
		if !usedB[bv] {
			ops = append(ops, EditOp{Kind: InsertVertex, V: bv, Label: b.Label(bv)})
		}
	}
	// 5. Insert b-edges not covered by preserved a-edges.
	inv := make([]int, b.Order())
	for i := range inv {
		inv[i] = -1
	}
	for av, bv := range mapping {
		if bv >= 0 {
			inv[bv] = av
		}
	}
	ref := func(bv int) EndpointRef {
		if inv[bv] >= 0 {
			return EndpointRef{Source: true, V: inv[bv]}
		}
		return EndpointRef{Source: false, V: bv}
	}
	for _, e := range b.Edges() {
		au, av := inv[e.U], inv[e.V]
		if au >= 0 && av >= 0 && a.HasEdge(au, av) {
			continue // preserved
		}
		ops = append(ops, EditOp{Kind: InsertEdge, A: ref(e.U), B: ref(e.V)})
	}
	return ops
}

// EditPath returns an edit script from a to b and its cost: the exact
// optimum for small instances (within the default search budget),
// otherwise the bipartite approximation's script.
func EditPath(a, b *graph.Graph) ([]EditOp, float64) {
	if a.Order()+b.Order() <= 16 {
		if d, mapping, ok := ExactWithMapping(a, b, 200000); ok {
			return PathFromMapping(a, b, mapping), d
		}
	}
	mapping := bipartiteMapping(a, b)
	ops := PathFromMapping(a, b, mapping)
	return ops, float64(len(ops))
}

// Apply executes an edit path on a copy of a, producing the edited
// graph (vertices renumbered densely: kept a-vertices in ID order, then
// inserted vertices in op order). It fails on references to missing
// vertices or edges.
func Apply(a *graph.Graph, ops []EditOp) (*graph.Graph, error) {
	deletedV := make(map[int]bool)
	relabel := make(map[int]string)
	deletedE := make(map[graph.Edge]bool)
	var inserts []EditOp
	var insertEdges []EditOp
	for _, op := range ops {
		switch op.Kind {
		case DeleteVertex:
			if op.V < 0 || op.V >= a.Order() {
				return nil, fmt.Errorf("ged: DeleteVertex %d out of range", op.V)
			}
			deletedV[op.V] = true
		case RelabelVertex:
			if op.V < 0 || op.V >= a.Order() {
				return nil, fmt.Errorf("ged: RelabelVertex %d out of range", op.V)
			}
			relabel[op.V] = op.Label
		case DeleteEdge:
			e := graph.Edge{U: op.U, V: op.W}.Canon()
			if !a.HasEdge(e.U, e.V) {
				return nil, fmt.Errorf("ged: DeleteEdge (%d,%d) not in source", op.U, op.W)
			}
			deletedE[e] = true
		case InsertVertex:
			inserts = append(inserts, op)
		case InsertEdge:
			insertEdges = append(insertEdges, op)
		}
	}
	// Deleted vertices must not retain live edges.
	for _, e := range a.Edges() {
		if (deletedV[e.U] || deletedV[e.V]) && !deletedE[e] {
			return nil, fmt.Errorf("ged: vertex deletion leaves live edge (%d,%d)", e.U, e.V)
		}
	}
	out := graph.New(a.ID)
	idx := make(map[int]int) // source vertex -> out vertex
	for v := 0; v < a.Order(); v++ {
		if deletedV[v] {
			continue
		}
		label := a.Label(v)
		if l, ok := relabel[v]; ok {
			label = l
		}
		idx[v] = out.AddVertex(label)
	}
	tempIdx := make(map[int]int) // temp id -> out vertex
	for _, op := range inserts {
		tempIdx[op.V] = out.AddVertex(op.Label)
	}
	for _, e := range a.Edges() {
		if deletedE[e] || deletedV[e.U] || deletedV[e.V] {
			continue
		}
		out.AddEdge(idx[e.U], idx[e.V])
	}
	resolve := func(r EndpointRef) (int, error) {
		if r.Source {
			i, ok := idx[r.V]
			if !ok {
				return 0, fmt.Errorf("ged: InsertEdge references deleted vertex %d", r.V)
			}
			return i, nil
		}
		i, ok := tempIdx[r.V]
		if !ok {
			return 0, fmt.Errorf("ged: InsertEdge references unknown temp %d", r.V)
		}
		return i, nil
	}
	for _, op := range insertEdges {
		u, err := resolve(op.A)
		if err != nil {
			return nil, err
		}
		v, err := resolve(op.B)
		if err != nil {
			return nil, err
		}
		if !out.AddEdge(u, v) {
			return nil, fmt.Errorf("ged: InsertEdge (%v,%v) invalid or duplicate", op.A, op.B)
		}
	}
	out.SortAdjacency()
	return out, nil
}

// ExactWithMapping is Exact but also returns the optimal vertex mapping
// (a vertex -> b vertex or -1). The boolean reports exactness; on
// budget exhaustion the best-known mapping (possibly from the bipartite
// seed) is returned. It runs the same search as Exact, seeded with the
// bipartite mapping's cost, and counts nothing.
func ExactWithMapping(a, b *graph.Graph, maxNodes int) (float64, []int, bool) {
	s := newSearch(a, b)
	mapping := bipartiteMapping(a, b)
	d, exact, _, goal := s.astar(editCostOfMappingDirect(a, b, mapping), maxNodes, nil)
	if goal != nil {
		mapping = s.vertexMapping(goal)
	}
	return d, mapping, exact
}

// bipartiteMapping returns the assignment-based vertex mapping
// (a vertex -> b vertex or -1).
func bipartiteMapping(a, b *graph.Graph) []int {
	na, nb := a.Order(), b.Order()
	if na == 0 {
		return nil
	}
	if nb == 0 {
		out := make([]int, na)
		for i := range out {
			out[i] = -1
		}
		return out
	}
	n := na + nb
	const big = 1e18
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			c := 0.0
			if a.Label(i) != b.Label(j) {
				c = 1
			}
			c += 0.5 * float64(intAbs(a.Degree(i)-b.Degree(j)))
			cost[i][j] = c
		}
		for j := nb; j < n; j++ {
			if j-nb == i {
				cost[i][j] = 1 + 0.5*float64(a.Degree(i))
			} else {
				cost[i][j] = big
			}
		}
	}
	for i := na; i < n; i++ {
		for j := 0; j < nb; j++ {
			if i-na == j {
				cost[i][j] = 1 + 0.5*float64(b.Degree(j))
			} else {
				cost[i][j] = big
			}
		}
	}
	assign, _ := Hungarian(cost)
	out := make([]int, na)
	for i := 0; i < na; i++ {
		if assign[i] < nb {
			out[i] = assign[i]
		} else {
			out[i] = -1
		}
	}
	return out
}

// editCostOfMappingDirect is editCostOfMapping for a vertex-indexed
// mapping.
func editCostOfMappingDirect(a, b *graph.Graph, mapping []int) float64 {
	cost := 0.0
	usedB := make([]bool, b.Order())
	for av, bv := range mapping {
		if bv >= 0 {
			usedB[bv] = true
			if a.Label(av) != b.Label(bv) {
				cost++
			}
		} else {
			cost++
		}
	}
	for bv := 0; bv < b.Order(); bv++ {
		if !usedB[bv] {
			cost++
		}
	}
	preserved := 0
	for _, e := range a.Edges() {
		u, v := mapping[e.U], mapping[e.V]
		if u >= 0 && v >= 0 && b.HasEdge(u, v) {
			preserved++
		} else {
			cost++
		}
	}
	cost += float64(b.Size() - preserved)
	return cost
}
