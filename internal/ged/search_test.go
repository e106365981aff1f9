package ged

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
)

// profilePatterns returns n pattern-sized pairs per internal/dataset
// profile: 3–6-edge connected subgraphs of generated molecules, the
// shape Metrics.Div compares.
func profilePatterns(n int, seed int64) [][2]*graph.Graph {
	var out [][2]*graph.Graph
	for i, name := range []string{"aids", "pubchem", "emol", "boronic-esters"} {
		p, _ := dataset.Profiles(name)
		mols := p.Generate(20, 0, seed+int64(i))
		qs := dataset.Queries(mols, 2*n, 3, 6, seed+int64(i))
		for k := 0; k < n; k++ {
			out = append(out, [2]*graph.Graph{qs[2*k], qs[2*k+1]})
		}
	}
	return out
}

// referencePairs is the input set of the reference tests: random graphs
// of up to 8 vertices — connected ones over {C, O, N}, and ones of 5 to
// 8 vertices, any density, over one to three labels, whose symmetry
// makes long searches — and dataset pattern pairs.
func referencePairs() [][2]*graph.Graph {
	r := rand.New(rand.NewSource(11))
	var pairs [][2]*graph.Graph
	for k := 0; k < 24; k++ {
		pairs = append(pairs, [2]*graph.Graph{randomGraph(r, 8), randomGraph(r, 8)})
	}
	for k := 0; k < 48; k++ {
		labels := 1 + k%3
		pairs = append(pairs, [2]*graph.Graph{denseRandomGraph(r, 5, 8, labels), denseRandomGraph(r, 5, 8, labels)})
	}
	return append(pairs, profilePatterns(6, 3)...)
}

// checkExact runs ExactCancel and exactReference on the same arguments
// and fails on any difference in the distance, the exactness flag, or
// the kernel counters: one call, the reference's expansion count, and a
// cap hit exactly when the result is inexact. It reports whether the
// search was truncated. newCancel, when set, builds a fresh hook for
// each side.
func checkExact(t testing.TB, a, b *graph.Graph, budget int, newCancel func() func() bool) bool {
	t.Helper()
	var refCancel, cancel func() bool
	if newCancel != nil {
		refCancel, cancel = newCancel(), newCancel()
	}
	want, wantExact, wantExpanded := exactReference(a, b, budget, refCancel)
	wantCapHits := uint64(0)
	if !wantExact {
		wantCapHits = 1
	}
	before := Snapshot()
	got, gotExact := ExactCancel(a, b, budget, cancel)
	after := Snapshot()
	calls := after.ExactCalls - before.ExactCalls
	expanded := after.ExactExpanded - before.ExactExpanded
	capHits := after.ExactCapHits - before.ExactCapHits
	if got != want || gotExact != wantExact || calls != 1 || expanded != uint64(wantExpanded) || capHits != wantCapHits {
		t.Fatalf("Exact(%v, %v, budget %d) differs from the reference:\n"+
			" distance %v want %v, exact %v want %v, calls %d want 1, expanded %d want %d, cap hits %d want %d",
			a, b, budget, got, want, gotExact, wantExact, calls, expanded, wantExpanded, capHits, wantCapHits)
	}
	return !wantExact
}

// TestExactMatchesReference holds the dense search to the string-based
// one it replaced, node for node: same distance and exactness,
// budget-truncated upper bounds included, and the same counter deltas.
func TestExactMatchesReference(t *testing.T) {
	pairs := referencePairs()
	cases, truncated := 0, 0
	for _, p := range pairs {
		for _, budget := range []int{10, 1000, 200000} {
			for _, args := range [][2]*graph.Graph{p, {p[1], p[0]}} {
				if checkExact(t, args[0], args[1], budget, nil) {
					truncated++
				}
				cases++
			}
		}
	}
	if truncated*4 < cases {
		t.Fatalf("only %d of %d cases were truncated by the budget; want at least a quarter", truncated, cases)
	}

	// A cancel hook that fires after k polls: both searches must poll it
	// at the same expansions and stop at the same node. The pairs are
	// ones whose search outlasts four polls, so every hook fires
	// mid-search.
	r := rand.New(rand.NewSource(5))
	fired, long := 0, 0
	for tries := 0; long < 4 && tries < 2000; tries++ {
		a, b := randomGraph(r, 9), randomGraph(r, 9)
		if _, _, expanded := exactReference(a, b, 0, nil); expanded < 4*256 {
			continue
		}
		long++
		for _, k := range []int{1, 3} {
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
			if !checkExact(t, a, b, 0, newCancel) {
				t.Fatalf("a hook firing after %d polls did not stop a %d/%d-vertex search", k, a.Order(), b.Order())
			}
		}
	}
	if long < 4 || fired != 2*2*long {
		t.Fatalf("%d of %d cancel hooks fired mid-search over %d long pairs", fired, 2*2*long, long)
	}
	t.Logf("%d budget cases (%d truncated), %d cancelled", cases, truncated, fired/2)
}

// TestExactWithMappingMatchesReference checks the edit-path search,
// which shares Exact's loop, against the reference's separate copy:
// same distance, mapping and exactness.
func TestExactWithMappingMatchesReference(t *testing.T) {
	for _, p := range referencePairs() {
		for _, budget := range []int{10, 1000, 200000} {
			for _, args := range [][2]*graph.Graph{p, {p[1], p[0]}} {
				checkExactWithMapping(t, args[0], args[1], budget)
			}
		}
	}
}

func checkExactWithMapping(t testing.TB, a, b *graph.Graph, budget int) {
	t.Helper()
	want, wantMapping, wantExact := exactWithMappingReference(a, b, budget)
	got, mapping, exact := ExactWithMapping(a, b, budget)
	if got != want || exact != wantExact || !reflect.DeepEqual(mapping, wantMapping) {
		t.Fatalf("ExactWithMapping(%v, %v, budget %d) differs from the reference:\n"+
			" distance %v want %v, exact %v want %v, mapping %v want %v",
			a, b, budget, got, want, exact, wantExact, mapping, wantMapping)
	}
}

// TestBeamMatchesReference checks Beam on the dense cost terms against
// the string-based beam, and that each call counts one BeamCalls.
func TestBeamMatchesReference(t *testing.T) {
	for _, p := range referencePairs() {
		for _, width := range []int{1, 3, 10} {
			for _, args := range [][2]*graph.Graph{p, {p[1], p[0]}} {
				checkBeam(t, args[0], args[1], width)
			}
		}
	}
}

func checkBeam(t testing.TB, a, b *graph.Graph, width int) {
	t.Helper()
	want := beamReference(a, b, width)
	before := Snapshot().BeamCalls
	got := Beam(a, b, width)
	if calls := Snapshot().BeamCalls - before; got != want || calls != 1 {
		t.Fatalf("Beam(%v, %v, width %d) = %v with %d calls, want %v with 1", a, b, width, got, calls, want)
	}
}

// FuzzExactGED checks Exact, ExactWithMapping and Beam against the
// reference on small graphs decoded from the input: a budget byte, a
// beam-width byte, then per graph a vertex count, its labels and its
// edges.
func FuzzExactGED(f *testing.F) {
	f.Add([]byte{1, 2, 4, 0, 1, 2, 0, 0, 1, 1, 2, 2, 3, 4, 0, 1, 2, 0, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 4, 5, 5, 6})
	f.Add([]byte{2, 9, 7, 0, 1, 0, 1, 2, 1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0, 7, 1, 0, 1, 0, 2, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0})
	f.Add([]byte{3, 1, 3, 0, 1, 2, 0, 1, 1, 2, 0})
	f.Add([]byte{2, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		budget := []int{10, 100, 1000, 20000}[int(data[0])%4]
		width := 1 + int(data[1])%10
		a, rest := decodeFuzzGraph(data[2:])
		b, _ := decodeFuzzGraph(rest)
		for _, args := range [][2]*graph.Graph{{a, b}, {b, a}} {
			checkExact(t, args[0], args[1], budget, nil)
			checkExactWithMapping(t, args[0], args[1], budget)
			checkBeam(t, args[0], args[1], width)
		}
	})
}

// decodeFuzzGraph reads a vertex count (0–7), that many labels from
// {C, O, N}, then edge endpoint pairs up to twice the vertex count, and
// returns the graph and the unread input.
func decodeFuzzGraph(data []byte) (*graph.Graph, []byte) {
	g := graph.New(0)
	if len(data) == 0 {
		return g, data
	}
	n := int(data[0]) % 8
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

// TestExactMatchesBruteForce checks Exact against the definition of
// uniform-cost GED: the minimum, over every injective map of a's
// vertices into b's vertices or deletion, of the induced edit path's
// cost. It also checks the bounds around it: LowerBoundLabel ≤ Exact ≤
// Bipartite.
func TestExactMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for k := 0; k < 3000; k++ {
		labels := 3 + r.Intn(3)
		a, b := denseRandomGraph(r, 0, 6, labels), denseRandomGraph(r, 0, 6, labels)
		want := bruteForceGED(a, b)
		got, exact := Exact(a, b, 0)
		if !exact || got != want {
			t.Fatalf("Exact(%v, %v) = %v (exact %v), want %v", a, b, got, exact, want)
		}
		if lb, ub := LowerBoundLabel(a, b), Bipartite(a, b); lb > got || got > ub {
			t.Fatalf("bounds around GED %v of (%v, %v): GED_l %v, bipartite %v", got, a, b, lb, ub)
		}
	}
}

// denseRandomGraph returns a graph of minN..maxN vertices over the
// first `labels` element labels, each vertex pair joined with one
// probability drawn per graph, so sizes, densities and components all
// vary.
func denseRandomGraph(r *rand.Rand, minN, maxN, labels int) *graph.Graph {
	names := []string{"C", "O", "N", "S", "P"}[:labels]
	g := graph.New(0)
	n := minN + r.Intn(maxN-minN+1)
	for v := 0; v < n; v++ {
		g.AddVertex(names[r.Intn(labels)])
	}
	p := 0.15 + 0.6*r.Float64()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// bruteForceGED enumerates every map from a's vertices to distinct b
// vertices or to deletion and returns the least editCostOfMapping.
func bruteForceGED(a, b *graph.Graph) float64 {
	na, nb := a.Order(), b.Order()
	mapping := make([]int, na)
	used := make([]bool, nb)
	best := math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == na {
			best = math.Min(best, editCostOfMapping(a, b, mapping))
			return
		}
		mapping[i] = nb // deletion
		rec(i + 1)
		for bv := 0; bv < nb; bv++ {
			if !used[bv] {
				used[bv] = true
				mapping[i] = bv
				rec(i + 1)
				used[bv] = false
			}
		}
	}
	rec(0)
	return best
}
