package ged

import (
	"math/rand"
	"testing"

	"github.com/midas-graph/midas/internal/dataset"
)

func BenchmarkExactSmall(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomGraph(r, 7)
	c := randomGraph(r, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Exact(a, c, 0)
	}
}

func BenchmarkBipartite(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomGraph(r, 14)
	c := randomGraph(r, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Bipartite(a, c)
	}
}

func BenchmarkBeam(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomGraph(r, 14)
	c := randomGraph(r, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Beam(a, c, 8)
	}
}

// BenchmarkExactAIDS times exact GED on the pairs Metrics.Div scores:
// 3–6-edge connected subgraphs of AIDS-like molecules, one pair per op.
func BenchmarkExactAIDS(b *testing.B) {
	mols := dataset.AIDSLike().Generate(40, 0, 1)
	qs := dataset.Queries(mols, 64, 3, 6, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 2 * (i % (len(qs) / 2))
		sinkGED, _ = Exact(qs[k], qs[k+1], 200000)
	}
}

var sinkGED float64
