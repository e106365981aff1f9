package search

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/iso"
)

func fixtureEngine() *Engine {
	db := graph.DatabaseOf(
		graph.Path(1, "C", "O", "C"),
		graph.Path(2, "C", "O", "N"),
		graph.Cycle(3, "C", "O", "C", "O"),
		graph.Star(4, "C", "N", "N", "N"),
	)
	return NewFromDB(db, 0.4, 3)
}

func TestQueryBasic(t *testing.T) {
	e := fixtureEngine()
	q := graph.Path(0, "C", "O")
	rs, stats := e.Query(q, Options{})
	ids := idsOf(rs)
	if !reflect.DeepEqual(ids, []int{1, 2, 3}) {
		t.Fatalf("results = %v, want [1 2 3]", ids)
	}
	if stats.Verified != 3 {
		t.Fatalf("verified = %d", stats.Verified)
	}
	if stats.Candidates+stats.Pruned != e.DB().Len() {
		t.Fatal("funnel does not add up")
	}
}

func TestQueryEmbeddingsValid(t *testing.T) {
	e := fixtureEngine()
	q := graph.Path(0, "C", "O", "C")
	rs, _ := e.Query(q, Options{})
	for _, r := range rs {
		g := e.DB().Get(r.GraphID)
		for _, qe := range q.Edges() {
			if !g.HasEdge(r.Embedding[qe.U], r.Embedding[qe.V]) {
				t.Fatalf("embedding into %d invalid", r.GraphID)
			}
		}
		for qv, gv := range r.Embedding {
			if q.Label(qv) != g.Label(gv) {
				t.Fatal("label mismatch in embedding")
			}
		}
	}
}

func TestQueryNoMatch(t *testing.T) {
	e := fixtureEngine()
	rs, stats := e.Query(graph.Path(0, "S", "P"), Options{})
	if len(rs) != 0 {
		t.Fatalf("results = %v, want none", rs)
	}
	if stats.Candidates != 0 {
		t.Fatalf("candidates = %d, want 0 (label filter)", stats.Candidates)
	}
}

func TestQueryLimit(t *testing.T) {
	e := fixtureEngine()
	rs, _ := e.Query(graph.Path(0, "C", "O"), Options{Limit: 2})
	if len(rs) != 2 {
		t.Fatalf("results = %d, want 2", len(rs))
	}
	if rs[0].GraphID != 1 || rs[1].GraphID != 2 {
		t.Fatalf("limited results = %v, want lowest IDs", idsOf(rs))
	}
}

func TestCountAndExists(t *testing.T) {
	e := fixtureEngine()
	n, _ := e.Count(graph.Path(0, "C", "N"), Options{})
	if n != 1 { // only graph 4: graph 2's N bonds to O, not C
		t.Fatalf("count = %d, want 1", n)
	}
	if !e.Exists(graph.Path(0, "C", "N")) {
		t.Fatal("Exists = false, want true")
	}
	if e.Exists(graph.Path(0, "S", "S")) {
		t.Fatal("Exists = true for absent structure")
	}
}

func TestScanModeMatchesIndexed(t *testing.T) {
	db := dataset.PubChemLike().GenerateDB(30, 5)
	indexed := NewFromDB(db, 0.4, 3)
	scan := New(db, indexed.set, nil)
	queries := dataset.Queries(db.Graphs(), 15, 3, 8, 7)
	for _, q := range queries {
		a, _ := indexed.Query(q, Options{})
		b, _ := scan.Query(q, Options{})
		if !reflect.DeepEqual(idsOf(a), idsOf(b)) {
			t.Fatalf("indexed and scan disagree on %v: %v vs %v", q, idsOf(a), idsOf(b))
		}
	}
}

func TestPropertyAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		db := dataset.EMolLike().GenerateDB(12, seed)
		e := NewFromDB(db, 0.4, 3)
		r := rand.New(rand.NewSource(seed + 1))
		qs := dataset.Queries(db.Graphs(), 4, 2, 6, r.Int63())
		for _, q := range qs {
			got := map[int]bool{}
			rs, _ := e.Query(q, Options{})
			for _, res := range rs {
				got[res.GraphID] = true
			}
			for _, g := range db.Graphs() {
				want := iso.HasSubgraph(q, g, iso.Options{})
				if got[g.ID] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryEmptyDatabase(t *testing.T) {
	e := NewFromDB(graph.NewDatabase(), 0.5, 3)
	rs, stats := e.Query(graph.Path(0, "C", "O"), Options{})
	if len(rs) != 0 || stats.Candidates != 0 {
		t.Fatal("empty database should return nothing")
	}
}

func idsOf(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.GraphID
	}
	return out
}
