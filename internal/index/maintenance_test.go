package index

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/iso"
	"github.com/midas-graph/midas/internal/tree"
)

// harness drives an index through in-place maintenance exactly the way
// the engine's index stage does: database and tree set first, then
// per-graph column updates, then feature sync. It is shared by the
// property tests below and FuzzIndexMaintenance.
type harness struct {
	db       *graph.Database
	set      *tree.Set
	ix       *Indices
	patterns []*graph.Graph
	nextID   int
	nextPat  int
}

func newHarness() *harness {
	db := graph.DatabaseOf(
		graph.Path(0, "C", "O", "C"),
		graph.Path(1, "C", "O", "C"),
		graph.Path(2, "C", "O", "C", "O"),
		graph.Star(3, "C", "N", "N", "N"),
		graph.Star(4, "C", "N", "N", "N"),
		graph.Path(5, "C", "N"),
	)
	set := tree.Mine(db, 0.4, 3)
	h := &harness{db: db, set: set, ix: Build(set, db, nil), nextID: 6, nextPat: 1000}
	h.register(graph.Path(h.allocPat(), "C", "O", "C"))
	h.register(graph.Star(h.allocPat(), "C", "N", "N"))
	return h
}

func (h *harness) allocPat() int {
	id := h.nextPat
	h.nextPat++
	return id
}

// applyBatch runs one maintenance batch: db/tree-set update, graph
// column updates, then feature sync — the engine's index-stage order.
func (h *harness) applyBatch(t testing.TB, ins []*graph.Graph, del []int) {
	t.Helper()
	u := graph.Update{Insert: ins, Delete: del}
	if err := h.db.Apply(u); err != nil {
		t.Fatalf("apply: %v", err)
	}
	h.set.Update(h.db, u)
	for _, id := range del {
		h.ix.RemoveGraph(id)
	}
	for _, g := range ins {
		h.ix.AddGraph(g)
	}
	h.ix.SyncFeatures(h.set, h.db, h.patterns)
}

func (h *harness) register(p *graph.Graph) {
	h.ix.RegisterPattern(p)
	h.patterns = append(h.patterns, p)
}

func (h *harness) unregister(id int) {
	h.ix.UnregisterPattern(id)
	kept := h.patterns[:0]
	for _, p := range h.patterns {
		if p.ID != id {
			kept = append(kept, p)
		}
	}
	h.patterns = kept
}

// checkOracle compares the maintained index against a from-scratch
// Build over the harness's current state.
func (h *harness) checkOracle(t testing.TB, tag string) {
	t.Helper()
	oracle := Build(h.set, h.db, nil)
	for _, p := range h.patterns {
		oracle.RegisterPattern(p)
	}
	if got, want := h.ix.Fingerprint(), oracle.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("%s: index diverged from from-scratch Build\ngot:\n%s\nwant:\n%s", tag, got, want)
	}
}

// evolve drives the harness through a fixed churn-heavy history: it
// promotes C.N to frequent (feature churn both ways), removes early
// graphs and swaps a pattern — leaving genuinely maintained state for
// the property tests below.
func (h *harness) evolve(t testing.TB) {
	t.Helper()
	h.checkOracle(t, "bootstrap")
	h.applyBatch(t, []*graph.Graph{
		graph.Path(h.nextID, "C", "N"),
		graph.Path(h.nextID+1, "C", "N", "C"),
		graph.Path(h.nextID+2, "C", "N", "C"),
	}, []int{0})
	h.nextID += 3
	h.checkOracle(t, "evolve batch 1")
	h.unregister(h.patterns[0].ID)
	h.register(graph.Path(h.allocPat(), "C", "N", "C"))
	h.checkOracle(t, "evolve swap")
	h.applyBatch(t, []*graph.Graph{graph.Star(h.nextID, "B", "O", "O", "O")}, []int{1, 2})
	h.nextID++
	h.checkOracle(t, "evolve batch 2")
}

// TestCandidateGraphsSupersetUnderMaintenance pins the candidacy
// soundness invariant — CandidateGraphs never dismisses a true match —
// against an incrementally maintained index rather than a freshly
// built one.
func TestCandidateGraphsSupersetUnderMaintenance(t *testing.T) {
	h := newHarness()
	h.evolve(t)
	universe := h.db.IDs()
	f := func(seed int64) bool {
		p := randomPattern(rand.New(rand.NewSource(seed)))
		cand := map[int]struct{}{}
		for _, id := range h.ix.CandidateGraphs(p, universe) {
			cand[id] = struct{}{}
		}
		for _, g := range h.db.Graphs() {
			if iso.HasSubgraph(p, g, iso.Options{}) {
				if _, ok := cand[g.ID]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCoverSetMatchesBruteForceUnderMaintenance pins the
// exactness invariant — index-pruned cover sets equal brute-force
// subgraph checks — against an incrementally maintained index.
func TestCoverSetMatchesBruteForceUnderMaintenance(t *testing.T) {
	h := newHarness()
	h.evolve(t)
	f := func(seed int64) bool {
		p := randomPattern(rand.New(rand.NewSource(seed)))
		cover := h.ix.CoverSet(p, h.db)
		for _, g := range h.db.Graphs() {
			truth := iso.HasSubgraph(p, g, iso.Options{})
			_, got := cover[g.ID]
			if truth != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzIndexMaintenance interprets the input as a sequence of (op, arg)
// byte pairs driving random interleavings of the five maintenance
// events — graph batch insert, batch delete, mixed batch, pattern
// register and unregister (feature sync rides along with every batch)
// — and after every event compares the maintained index byte-for-byte
// against a from-scratch Build over the same state.
//
// Ops are batch-level on purpose: the oracle's Build reads the tree
// set's current posting lists, so database, tree set and index must
// move together, exactly as the engine's index stage moves them.
func FuzzIndexMaintenance(f *testing.F) {
	// One seed per op plus mixed histories; the committed corpus under
	// testdata/fuzz/FuzzIndexMaintenance mirrors these.
	f.Add([]byte{0, 3})                                     // single insert batch
	f.Add([]byte{0, 7, 1, 2})                               // insert then delete
	f.Add([]byte{2, 5, 3, 0, 2, 9})                         // register/unregister churn
	f.Add([]byte{4, 11, 4, 6, 4, 1})                        // mixed batches
	f.Add([]byte{0, 250, 2, 13, 4, 9, 1, 4, 3, 1, 0, 17})   // long interleaving
	f.Add([]byte{2, 1, 2, 2, 2, 3, 1, 0, 1, 1, 1, 2, 1, 3}) // pattern-heavy, delete-heavy

	f.Fuzz(func(t *testing.T, data []byte) {
		h := newHarness()
		ops := 0
		for i := 0; i+1 < len(data) && ops < 24; i += 2 {
			op, arg := int(data[i])%5, int(data[i+1])
			switch op {
			case 0: // insert batch
				h.applyBatch(t, h.fuzzInserts(1+arg%3, arg), nil)
			case 1: // delete batch
				if del := h.fuzzDeletes(1+arg%2, arg); len(del) > 0 {
					h.applyBatch(t, nil, del)
				}
			case 2: // register a fresh pattern
				h.register(fuzzGraph(h.allocPat(), arg))
			case 3: // unregister one registered pattern
				if len(h.patterns) > 0 {
					h.unregister(h.patterns[arg%len(h.patterns)].ID)
				}
			case 4: // mixed batch
				h.applyBatch(t, h.fuzzInserts(1+arg%2, arg+1), h.fuzzDeletes(arg%2, arg))
			}
			ops++
			h.checkOracle(t, "fuzz op")
		}
	})
}

// fuzzInserts builds n fresh graphs whose shape and labels derive from
// arg.
func (h *harness) fuzzInserts(n, arg int) []*graph.Graph {
	out := make([]*graph.Graph, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fuzzGraph(h.nextID, arg+i))
		h.nextID++
	}
	return out
}

// fuzzDeletes picks up to n live graph IDs deterministically from arg,
// keeping the database non-empty.
func (h *harness) fuzzDeletes(n, arg int) []int {
	ids := append([]int(nil), h.db.IDs()...)
	sort.Ints(ids)
	var out []int
	for i := 0; i < n && len(ids) > 1; i++ {
		k := (arg + i) % len(ids)
		out = append(out, ids[k])
		ids = append(ids[:k], ids[k+1:]...)
	}
	return out
}

// fuzzGraph derives a small path or star from arg over a fixed label
// alphabet, so features overlap across ops and churn actually happens.
func fuzzGraph(id, arg int) *graph.Graph {
	labels := []string{"C", "O", "N", "B", "H"}
	l := func(k int) string { return labels[k%len(labels)] }
	if arg%2 == 0 {
		return graph.Path(id, l(arg), l(arg/2), l(arg/4))
	}
	return graph.Star(id, l(arg), l(arg/2), l(arg/4), l(arg/8))
}
