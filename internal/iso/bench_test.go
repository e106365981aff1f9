package iso

import (
	"math/rand"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
)

func benchGraphs(n, size int) []*graph.Graph {
	r := rand.New(rand.NewSource(1))
	out := make([]*graph.Graph, n)
	for i := range out {
		out[i] = randomGraph(r, size, []string{"C", "O", "N"})
	}
	return out
}

func BenchmarkHasSubgraph(b *testing.B) {
	targets := benchGraphs(64, 20)
	pattern := graph.Path(0, "C", "O", "C")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HasSubgraph(pattern, targets[i%len(targets)], Options{})
	}
}

func BenchmarkCountEmbeddings(b *testing.B) {
	targets := benchGraphs(64, 20)
	pattern := graph.Path(0, "C", "O")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CountEmbeddings(pattern, targets[i%len(targets)], Options{Limit: 64})
	}
}

func BenchmarkMCCS(b *testing.B) {
	gs := benchGraphs(32, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MCCS(gs[i%len(gs)], gs[(i+1)%len(gs)], 20000)
	}
}

// mccsSink keeps the compiler from dropping the timed MCCS calls.
var mccsSink MCCSResult

// BenchmarkMCCSAIDS times the fine-clustering shape: ω_MCCS between two
// AIDS-like molecules at the clustering budget.
func BenchmarkMCCSAIDS(b *testing.B) {
	mols := dataset.AIDSLike().Generate(32, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mccsSink = MCCS(mols[i%len(mols)], mols[(i+1)%len(mols)], 20000)
	}
}

// BenchmarkMCCSSummary times the CSG-integration shape: a member
// aligned against a summary that closes over four AIDS-like molecules,
// at the summary budget.
func BenchmarkMCCSSummary(b *testing.B) {
	pairs := summaryPairs(8, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		mccsSink = MCCS(p[0], p[1], 20000)
	}
}
