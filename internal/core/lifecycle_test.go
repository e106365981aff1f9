package core

import (
	"math/rand"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/graphlet"
)

// TestLifecycleInvariants drives an engine through many mixed
// maintenance rounds and asserts the cross-module invariants after each
// one: clusters partition the database, summaries only reference live
// members, tree postings are exact, index columns match the database,
// and the pattern set respects the budget. This is the closest thing to
// a deployment soak test the suite has.
func TestLifecycleInvariants(t *testing.T) {
	db := dataset.PubChemLike().GenerateDB(40, 21)
	cfg := testConfig()
	cfg.Epsilon = 0.01
	e := NewEngine(db, cfg)
	rng := rand.New(rand.NewSource(99))
	nextID := db.NextID()

	for round := 0; round < 6; round++ {
		var u graph.Update
		// Mixed updates: some rounds insert the new family, some insert
		// same-family, some delete, some both.
		switch round % 3 {
		case 0:
			u.Insert = dataset.BoronicEsters().Generate(8, nextID, int64(round+1))
			nextID += 8
		case 1:
			ids := e.DB().IDs()
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			u.Delete = ids[:4]
		default:
			u.Insert = dataset.PubChemLike().Generate(6, nextID, int64(round+7))
			nextID += 6
			ids := e.DB().IDs()
			u.Delete = ids[:2]
		}
		if _, err := e.Maintain(u); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkInvariants(t, e, round)
	}
}

func checkInvariants(t *testing.T, e *Engine, round int) {
	t.Helper()
	db := e.DB()

	// 1. Clusters partition the database.
	if e.cl.Size() != db.Len() {
		t.Fatalf("round %d: clustered %d != db %d", round, e.cl.Size(), db.Len())
	}
	seen := map[int]bool{}
	for _, c := range e.cl.Clusters() {
		for _, id := range c.MemberIDs() {
			if seen[id] {
				t.Fatalf("round %d: graph %d in two clusters", round, id)
			}
			seen[id] = true
			if !db.Has(id) {
				t.Fatalf("round %d: cluster references deleted graph %d", round, id)
			}
		}
	}

	// 2. Summaries reference only live members, one per live cluster.
	for _, cid := range e.csgs.ClusterIDs() {
		if e.cl.Cluster(cid) == nil {
			t.Fatalf("round %d: summary for dead cluster %d", round, cid)
		}
		for _, id := range e.csgs.Get(cid).MemberIDs() {
			if !db.Has(id) {
				t.Fatalf("round %d: summary %d references deleted graph %d", round, cid, id)
			}
		}
	}

	// 3. Tree postings reference live graphs and are exact.
	for _, tr := range e.set.Trees() {
		for id := range tr.Post {
			if !db.Has(id) {
				t.Fatalf("round %d: posting of %s references deleted graph %d", round, tr.Key, id)
			}
		}
	}
	if e.set.DBSize() != db.Len() {
		t.Fatalf("round %d: tree set dbSize %d != %d", round, e.set.DBSize(), db.Len())
	}

	// 4. Index columns only cover live graphs and live patterns.
	if e.ix != nil {
		for _, col := range e.ix.TG.Cols() {
			if !db.Has(col) {
				t.Fatalf("round %d: TG column for deleted graph %d", round, col)
			}
		}
		livePattern := map[int]bool{}
		for _, p := range e.patterns {
			livePattern[p.ID] = true
		}
		for _, col := range e.ix.TP.Cols() {
			if !livePattern[col] {
				t.Fatalf("round %d: TP column for dead pattern %d", round, col)
			}
		}
	}

	// 5. The pattern set is a canned pattern set of Definition 3.1: at
	// most γ connected patterns with η_min ≤ |E| ≤ η_max, at most the
	// per-size cap of each size, and no duplicate structures.
	b := e.cfg.Budget
	if len(e.patterns) > b.Count {
		t.Fatalf("round %d: %d patterns > γ", round, len(e.patterns))
	}
	sigs := map[string]bool{}
	perSize := map[int]int{}
	for _, p := range e.patterns {
		if p.Size() > b.MaxSize || p.Size() < b.MinSize {
			t.Fatalf("round %d: pattern size %d outside [η_min %d, η_max %d]", round, p.Size(), b.MinSize, b.MaxSize)
		}
		if !p.IsConnected() {
			t.Fatalf("round %d: pattern %d is disconnected", round, p.ID)
		}
		if perSize[p.Size()]++; perSize[p.Size()] > b.PerSizeCap() {
			t.Fatalf("round %d: %d patterns of size %d > per-size cap %d", round, perSize[p.Size()], p.Size(), b.PerSizeCap())
		}
		s := graph.Signature(p)
		if sigs[s] {
			t.Fatalf("round %d: duplicate pattern structure", round)
		}
		sigs[s] = true
	}

	// 6. The maintained graphlet counts agree with a fresh census.
	if got, fresh := e.counter.Total(), graphlet.NewCounter(db).Total(); got != fresh {
		t.Fatalf("round %d: graphlet totals %v, fresh %v", round, got, fresh)
	}
}
