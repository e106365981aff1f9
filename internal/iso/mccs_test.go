package iso

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
)

func TestMCCSIdentical(t *testing.T) {
	g := graph.Cycle(0, "C", "O", "C", "N")
	res := MCCS(g, g.Clone(), 0)
	if res.Size() != g.Size() {
		t.Fatalf("MCCS of identical graphs = %d, want %d", res.Size(), g.Size())
	}
	if !res.Exact {
		t.Fatal("small instance should be exact")
	}
	if sim := MCCSSimilarity(g, g, 0); sim != 1 {
		t.Fatalf("self-similarity = %v, want 1", sim)
	}
}

func TestMCCSDisjointLabels(t *testing.T) {
	g1 := graph.Path(0, "C", "O")
	g2 := graph.Path(1, "N", "S")
	if got := MCCS(g1, g2, 0).Size(); got != 0 {
		t.Fatalf("MCCS of label-disjoint graphs = %d, want 0", got)
	}
	if MCCSSimilarity(g1, g2, 0) != 0 {
		t.Fatal("similarity should be 0")
	}
}

func TestMCCSPartialOverlap(t *testing.T) {
	// g1: C-O-N path; g2: C-O-S path. Common connected: C-O (1 edge).
	g1 := graph.Path(0, "C", "O", "N")
	g2 := graph.Path(1, "C", "O", "S")
	res := MCCS(g1, g2, 0)
	if res.Size() != 1 {
		t.Fatalf("MCCS = %d, want 1", res.Size())
	}
	sim := MCCSSimilarity(g1, g2, 0)
	if math.Abs(sim-0.5) > 1e-9 {
		t.Fatalf("similarity = %v, want 0.5", sim)
	}
}

func TestMCCSConnected(t *testing.T) {
	// g1 has two C-O edges far apart; g2 has them adjacent. A connected
	// common subgraph can use only one of g1's C-O edges plus its
	// surroundings.
	g1 := graph.FromEdges(0, []string{"C", "O", "X", "C", "O"},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	g2 := graph.FromEdges(1, []string{"O", "C", "O"}, [][2]int{{0, 1}, {1, 2}})
	res := MCCS(g1, g2, 0)
	// Best connected common subgraph is a single C-O edge: g2's O-C-O
	// star cannot appear in g1 (g1's Cs have one O neighbour each).
	if res.Size() != 1 {
		t.Fatalf("MCCS = %d, want 1", res.Size())
	}
	// Result must induce a connected subgraph of g1.
	sub := g1.EdgeSubgraph(res.Edges)
	if !sub.IsConnected() {
		t.Fatal("MCCS result is not connected")
	}
}

func TestMCCSEmptyGraphs(t *testing.T) {
	if MCCS(graph.New(0), graph.New(1), 0).Size() != 0 {
		t.Fatal("MCCS with empty graph should be 0")
	}
}

func TestMCCSSwappedArguments(t *testing.T) {
	big := graph.Cycle(0, "C", "O", "C", "O", "C", "N")
	small := graph.Path(1, "C", "O", "C")
	r1 := MCCS(big, small, 0)
	r2 := MCCS(small, big, 0)
	if r1.Size() != r2.Size() {
		t.Fatalf("MCCS not symmetric: %d vs %d", r1.Size(), r2.Size())
	}
	if r1.Size() != 2 {
		t.Fatalf("MCCS = %d, want 2", r1.Size())
	}
	// Edges are reported within the first argument.
	for _, e := range r1.Edges {
		if !big.HasEdge(e.U, e.V) {
			t.Fatal("reported edge not in first argument graph")
		}
	}
	for _, e := range r2.Edges {
		if !small.HasEdge(e.U, e.V) {
			t.Fatal("reported edge not in first argument graph")
		}
	}
}

func TestMCCSMappingValid(t *testing.T) {
	g1 := graph.Cycle(0, "C", "O", "N", "C")
	g2 := graph.FromEdges(1, []string{"C", "O", "N", "S"}, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	res := MCCS(g1, g2, 0)
	for _, e := range res.Edges {
		u2, v2 := res.Mapping[e.U], res.Mapping[e.V]
		if u2 < 0 || v2 < 0 {
			t.Fatal("edge endpoint unmapped")
		}
		if !g2.HasEdge(u2, v2) {
			t.Fatal("mapped edge missing in g2")
		}
		if g1.Label(e.U) != g2.Label(u2) || g1.Label(e.V) != g2.Label(v2) {
			t.Fatal("labels not preserved")
		}
	}
}

func TestPropertyMCCSBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := randomGraph(r, 7, []string{"C", "O"})
		g2 := randomGraph(r, 7, []string{"C", "O"})
		res := MCCS(g1, g2, 50000)
		minSize := g1.Size()
		if g2.Size() < minSize {
			minSize = g2.Size()
		}
		if res.Size() > minSize {
			return false
		}
		sim := MCCSSimilarity(g1, g2, 50000)
		return sim >= 0 && sim <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMCCSSubgraphOfBoth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := randomGraph(r, 6, []string{"C", "O", "N"})
		g2 := randomGraph(r, 6, []string{"C", "O", "N"})
		res := MCCS(g1, g2, 50000)
		if res.Size() == 0 {
			return true
		}
		sub := g1.EdgeSubgraph(res.Edges)
		return sub.IsConnected() &&
			HasSubgraph(sub, g1, Options{}) &&
			HasSubgraph(sub, g2, Options{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMCCSBudgetExhaustion(t *testing.T) {
	labels := make([]string, 8)
	for i := range labels {
		labels[i] = "A"
	}
	g1 := graph.Clique(0, labels...)
	g2 := graph.Clique(1, labels...)
	res := MCCS(g1, g2, 50)
	if res.Exact {
		t.Fatal("tiny budget on K8xK8 should not be exact")
	}
	if res.Size() == 0 {
		t.Fatal("should still return a non-trivial lower bound")
	}
}

// profilePairs draws n pairs of molecules from each internal/dataset
// profile, plus n pairs across consecutive profiles.
func profilePairs(n int, seed int64) [][2]*graph.Graph {
	names := []string{"aids", "pubchem", "emol", "boronic-esters"}
	mols := make([][]*graph.Graph, len(names))
	for i, name := range names {
		p, _ := dataset.Profiles(name)
		mols[i] = p.Generate(2*n, 0, seed+int64(i))
	}
	var out [][2]*graph.Graph
	for i := range names {
		next := mols[(i+1)%len(names)]
		for k := 0; k < n; k++ {
			out = append(out,
				[2]*graph.Graph{mols[i][2*k], mols[i][2*k+1]},
				[2]*graph.Graph{mols[i][k], next[n+k]})
		}
	}
	return out
}

// summaryOf builds a CSG-shaped closure graph over members: each member
// is aligned onto the summary so far (an embedding when one exists,
// else the reference MCCS mapping), its unmatched vertices become new
// summary vertices, and its edges are added under the alignment.
func summaryOf(members []*graph.Graph) *graph.Graph {
	s := members[0].Clone()
	for _, g := range members[1:] {
		m := FindEmbedding(g, s, Options{MaxSteps: 20000})
		if m == nil {
			res, _ := mccsReference(g, s, 20000, nil)
			m = res.Mapping
			if len(m) == 0 {
				m = make([]int, g.Order())
				for v := range m {
					m[v] = -1
				}
			}
		}
		for v, sv := range m {
			if sv < 0 {
				m[v] = s.AddVertex(g.Label(v))
			}
		}
		for _, e := range g.Edges() {
			s.AddEdge(m[e.U], m[e.V])
		}
	}
	return s
}

// summaryPairs returns n (member, summary) pairs: the summary closes
// over size AIDS-like molecules, the member is one of them or a fresh
// molecule of the same profile — the two shapes of a CSG integration.
func summaryPairs(n, size int, seed int64) [][2]*graph.Graph {
	mols := dataset.AIDSLike().Generate(n*(size+1), 0, seed)
	var out [][2]*graph.Graph
	for k := 0; k < n; k++ {
		group := mols[k*(size+1) : (k+1)*(size+1)]
		sum := summaryOf(group[:size])
		member := group[size]
		if k%2 == 1 {
			member = group[k%size]
		}
		out = append(out, [2]*graph.Graph{member, sum})
	}
	return out
}

// checkAgainstReference runs MCCSWithCancel and the reference on the
// same arguments and fails on any difference in the result or in the
// number of search nodes visited. It reports whether the search was
// truncated. newCancel, when set, builds a fresh hook for each side.
func checkAgainstReference(t testing.TB, g1, g2 *graph.Graph, budget int, newCancel func() func() bool) bool {
	t.Helper()
	var refCancel, cancel func() bool
	if newCancel != nil {
		refCancel, cancel = newCancel(), newCancel()
	}
	want, wantSteps := mccsReference(g1, g2, budget, refCancel)
	before := Snapshot().MCCSSteps
	got := MCCSWithCancel(g1, g2, budget, cancel)
	gotSteps := int(Snapshot().MCCSSteps - before)
	if !reflect.DeepEqual(got.Edges, want.Edges) || !reflect.DeepEqual(got.Mapping, want.Mapping) ||
		got.Exact != want.Exact || gotSteps != wantSteps {
		t.Fatalf("MCCS(%d/%d vertices, %d/%d edges, budget %d) differs from the reference:\n"+
			" edges %v\n  want %v\n mapping %v\n    want %v\n exact %v want %v, steps %d want %d",
			g1.Order(), g2.Order(), g1.Size(), g2.Size(), budget,
			got.Edges, want.Edges, got.Mapping, want.Mapping, got.Exact, want.Exact, gotSteps, wantSteps)
	}
	return !want.Exact
}

// TestMCCSMatchesReference holds the dense search to the map-based one
// it replaced, node for node: same result, budget-truncated lower
// bounds included, and the same step count.
func TestMCCSMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var pairs [][2]*graph.Graph
	for k := 0; k < 24; k++ {
		labels := []string{"C", "O", "N"}
		if k%3 == 0 {
			labels = []string{"C", "C", "C", "O"}
		}
		pairs = append(pairs, [2]*graph.Graph{randomGraph(r, 12, labels), randomGraph(r, 12, labels)})
	}
	pairs = append(pairs, profilePairs(2, 11)...)
	pairs = append(pairs, summaryPairs(6, 4, 13)...)

	cases, truncated := 0, 0
	for _, p := range pairs {
		for _, budget := range []int{50, 500, 20000} {
			for _, args := range [][2]*graph.Graph{p, {p[1], p[0]}} {
				if checkAgainstReference(t, args[0], args[1], budget, nil) {
					truncated++
				}
				cases++
			}
		}
	}
	if truncated*3 < cases {
		t.Fatalf("only %d of %d cases were truncated by the budget; want at least a third", truncated, cases)
	}

	// A cancel hook that fires after k polls: both searches must poll it
	// at the same steps and stop at the same node. The pairs are ones
	// whose search outlasts the budget, so every hook fires mid-search.
	fired, long := 0, 0
	for _, p := range pairs {
		if _, steps := mccsReference(p[0], p[1], 0, nil); steps < 20000 {
			continue
		}
		for _, k := range []int{1, 3, 10} {
			newCancel := func() func() bool {
				n := 0
				return func() bool {
					n++
					if n > k {
						fired++
						return true
					}
					return false
				}
			}
			checkAgainstReference(t, p[0], p[1], 0, newCancel)
		}
		if long++; long == 4 {
			break
		}
	}
	if fired != 2*3*long || long == 0 {
		t.Fatalf("%d of %d cancel hooks fired mid-search over %d long pairs", fired, 2*3*long, long)
	}
	t.Logf("%d budget cases (%d truncated), %d cancelled", cases, truncated, fired/2)
}

// FuzzMCCS checks the dense search against the reference on small
// graphs decoded from the input: a budget byte, then per graph a vertex
// count, its labels and its edges.
func FuzzMCCS(f *testing.F) {
	f.Add([]byte{2, 4, 0, 1, 2, 0, 0, 1, 1, 2, 2, 3, 4, 0, 1, 2, 0, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{0, 6, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 4, 5, 5, 6})
	f.Add([]byte{1, 8, 0, 1, 0, 1, 2, 1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 6, 7, 5, 6, 8, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0})
	f.Add([]byte{2, 3, 0, 1, 2, 0, 1, 1, 2, 3, 2, 1, 0, 0, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		budget := []int{50, 500, 5000}[int(data[0])%3]
		data = data[1:]
		g1, data := decodeFuzzGraph(data)
		g2, _ := decodeFuzzGraph(data)
		checkAgainstReference(t, g1, g2, budget, nil)
		checkAgainstReference(t, g2, g1, budget, nil)
	})
}

// decodeFuzzGraph reads a vertex count (1–12), that many labels from
// {C, O, N}, then edge endpoint pairs up to twice the vertex count, and
// returns the graph and the unread input.
func decodeFuzzGraph(data []byte) (*graph.Graph, []byte) {
	g := graph.New(0)
	if len(data) == 0 {
		return g, data
	}
	n := 1 + int(data[0])%12
	data = data[1:]
	for v := 0; v < n; v++ {
		label := "C"
		if v < len(data) {
			label = []string{"C", "O", "N"}[int(data[v])%3]
		}
		g.AddVertex(label)
	}
	if len(data) < n {
		return g, nil
	}
	data = data[n:]
	for k := 0; k < 2*n && len(data) >= 2; k++ {
		g.AddEdge(int(data[0])%n, int(data[1])%n)
		data = data[2:]
	}
	return g, data
}
