package catapult

import (
	"math"
	"math/rand"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/index"
	"github.com/midas-graph/midas/internal/tree"
)

func fixture() (*graph.Database, *tree.Set) {
	d := graph.DatabaseOf(
		graph.Path(1, "C", "O", "C"),
		graph.Path(2, "C", "O", "C"),
		graph.Path(3, "C", "O", "C", "O"),
		graph.Path(4, "C", "N"),
	)
	return d, tree.Mine(d, 0.5, 3)
}

func TestBudgetPerSizeCap(t *testing.T) {
	b := Budget{MinSize: 3, MaxSize: 12, Count: 30}
	if b.PerSizeCap() != 3 {
		t.Fatalf("cap = %d, want 3", b.PerSizeCap())
	}
	b2 := Budget{MinSize: 3, MaxSize: 4, Count: 5}
	if b2.PerSizeCap() != 3 { // ceil(5/2)
		t.Fatalf("cap = %d, want 3", b2.PerSizeCap())
	}
}

func TestScovWithAndWithoutIndex(t *testing.T) {
	d, set := fixture()
	p := graph.Path(100, "C", "O", "C")
	plain := NewMetrics(d, set, nil, 0, 1)
	ix := index.Build(set, d, nil)
	fast := NewMetrics(d, set, ix, 0, 1)
	if got, want := plain.Scov(p), 0.75; got != want {
		t.Fatalf("plain scov = %v, want %v", got, want)
	}
	if plain.Scov(p) != fast.Scov(p) {
		t.Fatal("indexed and plain scov disagree")
	}
}

func TestSetScovUnion(t *testing.T) {
	d, set := fixture()
	m := NewMetrics(d, set, nil, 0, 1)
	p1 := graph.Path(100, "C", "O", "C")
	p2 := graph.Path(101, "C", "N")
	if got := m.SetScov([]*graph.Graph{p1, p2}); got != 1.0 {
		t.Fatalf("f_scov = %v, want 1.0", got)
	}
	if got := m.SetScov(nil); got != 0 {
		t.Fatalf("f_scov(empty) = %v, want 0", got)
	}
}

func TestLcov(t *testing.T) {
	d, set := fixture()
	m := NewMetrics(d, set, nil, 0, 1)
	p := graph.Path(100, "C", "O")
	if got := m.LcovOne(p); got != 0.75 {
		t.Fatalf("lcov = %v, want 0.75 (3 of 4 graphs have a C-O edge)", got)
	}
	pn := graph.Path(101, "C", "N")
	if got := m.SetLcov([]*graph.Graph{p, pn}); got != 1.0 {
		t.Fatalf("f_lcov = %v, want 1.0", got)
	}
}

func TestCog(t *testing.T) {
	k3 := graph.Clique(0, "A", "B", "C")
	if Cog(k3) != 3 {
		t.Fatalf("cog(K3) = %v, want 3", Cog(k3))
	}
	ps := []*graph.Graph{graph.Path(0, "A", "B", "C"), k3}
	if SetCog(ps) != 3 {
		t.Fatalf("f_cog = %v, want 3 (max)", SetCog(ps))
	}
}

func TestDiv(t *testing.T) {
	d, set := fixture()
	m := NewMetrics(d, set, nil, 0, 1)
	p := graph.Path(0, "C", "O", "N")
	if m.Div(p, nil) != 1 {
		t.Fatal("div with no others should be neutral 1")
	}
	identical := graph.Path(1, "C", "O", "N")
	if m.Div(p, []*graph.Graph{identical}) != 0 {
		t.Fatal("div against an identical pattern should be 0")
	}
	far := graph.Star(2, "S", "P", "P", "P")
	if m.Div(p, []*graph.Graph{far}) <= 0 {
		t.Fatal("div against a distant pattern should be positive")
	}
}

func TestSetDiv(t *testing.T) {
	d, set := fixture()
	m := NewMetrics(d, set, nil, 0, 1)
	if m.SetDiv(nil) != 0 {
		t.Fatal("empty set div should be 0")
	}
	single := []*graph.Graph{graph.Path(0, "C", "O")}
	if m.SetDiv(single) != 1 {
		t.Fatal("singleton set div should be 1")
	}
	ps := []*graph.Graph{
		graph.Path(0, "C", "O", "C"),
		graph.Path(1, "C", "O", "C"),
		graph.Star(2, "S", "P", "P", "P"),
	}
	if m.SetDiv(ps) != 0 {
		t.Fatal("set with duplicate patterns should have div 0")
	}
}

// TestDivIndependentOfCache pins that the distance cache only saves
// recomputation: Div with the GED'ₗ prune returns the same minimum with
// a cold cache, a partly warm one, a fully warm one and one warmed by a
// Div over the others in shuffled order. The patterns are random
// connected 3–6-edge subgraphs of every dataset profile, in sets of six.
func TestDivIndependentOfCache(t *testing.T) {
	profiles := []dataset.Profile{dataset.AIDSLike(), dataset.PubChemLike(), dataset.EMolLike(), dataset.BoronicEsters()}
	for pi, prof := range profiles {
		seed := int64(101 + pi)
		db := prof.GenerateDB(60, seed)
		set := tree.Mine(db, 0.4, 3)
		ix := index.Build(set, db, nil)
		qs := dataset.Queries(db.Graphs(), 60, 3, 6, seed)
		rng := rand.New(rand.NewSource(seed))
		for s := 0; s+6 <= len(qs); s += 6 {
			ps := qs[s : s+6]
			for i, p := range ps {
				others := make([]*graph.Graph, 0, len(ps)-1)
				for j, o := range ps {
					if j != i {
						others = append(others, o)
					}
				}
				want := NewMetrics(db, set, ix, 0, 1).Div(p, others)
				warm := func(name string, fill func(m *Metrics)) {
					m := NewMetrics(db, set, ix, 0, 1)
					fill(m)
					if got := m.Div(p, others); got != want {
						t.Errorf("%s set %d pattern %d: %s cache gives div %v, cold %v",
							prof.Name, s/6, i, name, got, want)
					}
				}
				warm("fully warm", func(m *Metrics) {
					for _, o := range others {
						m.Div(p, []*graph.Graph{o})
					}
				})
				warm("partly warm", func(m *Metrics) {
					for k := 1; k < len(others); k += 2 {
						m.Div(p, []*graph.Graph{others[k]})
					}
				})
				warm("shuffled", func(m *Metrics) {
					shuffled := append([]*graph.Graph(nil), others...)
					rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
					m.Div(p, shuffled)
				})
			}
		}
	}
}

func TestQualityScore(t *testing.T) {
	q := Quality{Scov: 0.8, Lcov: 0.5, Div: 2, Cog: 4}
	if got := q.Score(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("score = %v, want 0.2", got)
	}
	if (Quality{}).Score() != 0 {
		t.Fatal("zero-cog quality score should be 0")
	}
}

func TestScoreMIDAS(t *testing.T) {
	d, set := fixture()
	m := NewMetrics(d, set, nil, 0, 1)
	p := graph.Path(100, "C", "O", "C")
	got := m.ScoreMIDAS(p, nil)
	// scov=0.75, lcov=0.75, div=1, cog = 2 * (2*2)/(3*2) = 4/3.
	want := 0.75 * 0.75 * 1 / (4.0 / 3.0)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("s'_p = %v, want %v", got, want)
	}
}

func TestLazySampling(t *testing.T) {
	d := graph.NewDatabase()
	for i := 0; i < 50; i++ {
		d.Add(graph.Path(i, "C", "O", "C"))
	}
	set := tree.Mine(d, 0.5, 3)
	m := NewMetrics(d, set, nil, 10, 7)
	p := graph.Path(100, "C", "O", "C")
	// Every graph contains p: sampled scov is still exactly 1.
	if got := m.Scov(p); got != 1 {
		t.Fatalf("sampled scov = %v, want 1", got)
	}
	// Deterministic resampling.
	m2 := NewMetrics(d, set, nil, 10, 7)
	if m.Scov(p) != m2.Scov(p) {
		t.Fatal("same seed should sample identically")
	}
	m.InvalidateSample()
	if got := m.Scov(p); got != 1 {
		t.Fatalf("scov after invalidate = %v, want 1", got)
	}
}
