package index

import (
	"sort"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/iso"
	"github.com/midas-graph/midas/internal/sparse"
	"github.com/midas-graph/midas/internal/tree"
)

// Embedding counts stored in the matrices are capped: the containment
// filter only needs "count(f,p) <= count(f,G)", which capping preserves
// (min(x,L) <= min(y,L) whenever x <= y), and exact large counts are
// expensive to enumerate.
const (
	countCap    = 64
	countBudget = 100000
)

// Indices bundles the FCT-Index and IFE-Index of §5.1.
type Indices struct {
	// Trie over canonical strings of FCTs and frequent edges.
	Trie *Trie
	// TG / TP: feature row -> graph / pattern column -> embedding count.
	TG *sparse.Matrix
	TP *sparse.Matrix
	// EG / EP: infrequent-edge row -> graph / pattern column.
	EG *sparse.Matrix
	EP *sparse.Matrix

	// features maps a row key to the feature tree it indexes.
	features map[string]*tree.Tree
	// ife maps an infrequent-edge row key (edge label) to its tree.
	ife map[string]*tree.Tree
}

// CountFeature returns the (capped) number of embeddings of feature f in
// g. Single-edge features count label-matching edges directly.
func CountFeature(f *tree.Tree, g *graph.Graph) int {
	if f.G.Size() == 1 {
		e := f.G.Edges()[0]
		label := f.G.EdgeLabel(e.U, e.V)
		n := 0
		for _, ge := range g.Edges() {
			if g.EdgeLabel(ge.U, ge.V) == label {
				n++
				if n >= countCap {
					break
				}
			}
		}
		return n
	}
	return iso.CountEmbeddings(f.G, g, iso.Options{Limit: countCap, MaxSteps: countBudget})
}

// Build constructs both indices from the mined tree set over database
// db and the current canned patterns (columns keyed by pattern graph
// ID).
func Build(set *tree.Set, db *graph.Database, patterns []*graph.Graph) *Indices {
	ix := &Indices{
		Trie:     NewTrie(),
		TG:       sparse.New(),
		TP:       sparse.New(),
		EG:       sparse.New(),
		EP:       sparse.New(),
		features: make(map[string]*tree.Tree),
		ife:      make(map[string]*tree.Tree),
	}
	for _, f := range fctFeatures(set) {
		ix.addFeature(f, db, patterns)
	}
	for _, f := range set.InfrequentEdges() {
		ix.addIFE(f, patterns)
	}
	return ix
}

// fctFeatures returns the FCT-Index rows: frequent closed trees plus
// frequent edges, deduplicated by canonical key.
func fctFeatures(set *tree.Set) []*tree.Tree {
	seen := make(map[string]struct{})
	var out []*tree.Tree
	for _, f := range set.FrequentClosed() {
		if _, dup := seen[f.Key]; !dup {
			seen[f.Key] = struct{}{}
			out = append(out, f)
		}
	}
	for _, f := range set.FrequentEdges() {
		if _, dup := seen[f.Key]; !dup {
			seen[f.Key] = struct{}{}
			out = append(out, f)
		}
	}
	return out
}

func (ix *Indices) addFeature(f *tree.Tree, db *graph.Database, patterns []*graph.Graph) {
	ix.features[f.Key] = f
	ix.Trie.Insert(tree.CanonicalTokens(f.G), f.Key)
	for id := range f.Post {
		if g := db.Get(id); g != nil {
			ix.TG.Set(f.Key, id, CountFeature(f, g))
		}
	}
	for _, p := range patterns {
		if c := CountFeature(f, p); c > 0 {
			ix.TP.Set(f.Key, p.ID, c)
		}
	}
}

func (ix *Indices) addIFE(f *tree.Tree, patterns []*graph.Graph) {
	fe := f.G.Edges()[0]
	label := f.G.EdgeLabel(fe.U, fe.V)
	ix.ife[label] = f
	for id := range f.Post {
		// For edges the posting list is exact; store the occurrence
		// count lazily as 1 (presence) — EG consumers need candidacy,
		// not multiplicity, and recounting requires the graph itself.
		ix.EG.Set(label, id, 1)
	}
	for _, p := range patterns {
		if c := CountFeature(f, p); c > 0 {
			ix.EP.Set(label, p.ID, c)
		}
	}
}

// FeatureKeys returns the sorted FCT-Index row keys.
func (ix *Indices) FeatureKeys() []string {
	out := make([]string, 0, len(ix.features))
	for k := range ix.features {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Feature returns the indexed feature with the given key, or nil.
func (ix *Indices) Feature(key string) *tree.Tree { return ix.features[key] }

// IFELabels returns the sorted infrequent-edge row keys.
func (ix *Indices) IFELabels() []string {
	out := make([]string, 0, len(ix.ife))
	for k := range ix.ife {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PatternProfile computes the feature-count column of an arbitrary
// pattern graph (not necessarily registered): FCT-Index feature counts
// and infrequent-edge counts.
func (ix *Indices) PatternProfile(p *graph.Graph) (fct map[string]int, ife map[string]int) {
	fct = make(map[string]int)
	for key, f := range ix.features {
		if c := CountFeature(f, p); c > 0 {
			fct[key] = c
		}
	}
	ife = make(map[string]int)
	for label, f := range ix.ife {
		if c := CountFeature(f, p); c > 0 {
			ife[label] = c
		}
	}
	return fct, ife
}

// CandidateGraphs returns the IDs of data graphs that may contain p
// according to the indices: every graph whose TG/EG column dominates p's
// feature profile. Graphs lacking any of p's features are excluded; the
// result is a superset of the true cover set (§6.1's (p,G) candidate
// pairs).
//
// universe is the full set of graph IDs (used when p exhibits no indexed
// feature, in which case nothing can be pruned).
func (ix *Indices) CandidateGraphs(p *graph.Graph, universe []int) []int {
	fct, ife := ix.PatternProfile(p)
	if len(fct) == 0 && len(ife) == 0 {
		return append([]int(nil), universe...)
	}
	var cand map[int]struct{}
	intersect := func(row map[int]int, need int, presenceOnly bool) {
		keep := make(map[int]struct{})
		for id, c := range row {
			if presenceOnly || c >= need {
				if cand == nil {
					keep[id] = struct{}{}
				} else if _, ok := cand[id]; ok {
					keep[id] = struct{}{}
				}
			}
		}
		cand = keep
	}
	// Deterministic iteration order for reproducibility.
	keys := make([]string, 0, len(fct))
	for k := range fct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		intersect(ix.TG.Row(k), fct[k], false)
	}
	labels := make([]string, 0, len(ife))
	for l := range ife {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		// EG stores presence; an infrequent edge in p requires presence
		// in G.
		intersect(ix.EG.Row(l), 1, true)
	}
	out := make([]int, 0, len(cand))
	for id := range cand {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Contains is the exact verification step applied to every candidate
// of CoverSet: subgraph isomorphism under the index verification
// budget. Exposed so oracles can check CoverSet against the same
// verdict over every graph, with no index filtering.
func Contains(p, g *graph.Graph) bool {
	return iso.HasSubgraph(p, g, iso.Options{MaxSteps: countBudget})
}

// CoverSet returns G_scov(p): the IDs of graphs in db containing p,
// computed with index filtering followed by exact verification.
func (ix *Indices) CoverSet(p *graph.Graph, db *graph.Database) map[int]struct{} {
	universe := make([]int, 0, db.Len())
	for _, g := range db.Graphs() {
		universe = append(universe, g.ID)
	}
	out := make(map[int]struct{})
	for _, id := range ix.CandidateGraphs(p, universe) {
		g := db.Get(id)
		if g != nil && Contains(p, g) {
			out[id] = struct{}{}
		}
	}
	return out
}

// Scov returns scov(p, db) = |G_p| / |db|.
func (ix *Indices) Scov(p *graph.Graph, db *graph.Database) float64 {
	if db.Len() == 0 {
		return 0
	}
	return float64(len(ix.CoverSet(p, db))) / float64(db.Len())
}

// RegisterPattern adds pattern columns to TP and EP (index maintenance
// step 3 for patterns).
func (ix *Indices) RegisterPattern(p *graph.Graph) {
	for key, f := range ix.features {
		if c := CountFeature(f, p); c > 0 {
			ix.TP.Set(key, p.ID, c)
		}
	}
	for label, f := range ix.ife {
		if c := CountFeature(f, p); c > 0 {
			ix.EP.Set(label, p.ID, c)
		}
	}
}

// UnregisterPattern removes a pattern column (maintenance step 4).
func (ix *Indices) UnregisterPattern(patternID int) {
	ix.TP.DeleteCol(patternID)
	ix.EP.DeleteCol(patternID)
}

// AddGraph adds a data-graph column (maintenance step 3) by counting the
// indexed features it contains.
func (ix *Indices) AddGraph(g *graph.Graph) {
	for key, f := range ix.features {
		if c := CountFeature(f, g); c > 0 {
			ix.TG.Set(key, g.ID, c)
		}
	}
	for label, f := range ix.ife {
		if c := CountFeature(f, g); c > 0 {
			ix.EG.Set(label, g.ID, 1)
		}
	}
}

// RemoveGraph removes a data-graph column (maintenance step 4).
func (ix *Indices) RemoveGraph(id int) {
	ix.TG.DeleteCol(id)
	ix.EG.DeleteCol(id)
}

// SyncFeatures reconciles rows after FCT maintenance (maintenance steps
// 1–2): features that stopped being frequent/closed lose their rows and
// trie entries; new features gain rows computed over db and patterns.
func (ix *Indices) SyncFeatures(set *tree.Set, db *graph.Database, patterns []*graph.Graph) {
	want := make(map[string]*tree.Tree)
	for _, f := range fctFeatures(set) {
		want[f.Key] = f
	}
	for key, f := range ix.features {
		if _, keep := want[key]; !keep {
			ix.Trie.Remove(tree.CanonicalTokens(f.G))
			ix.TG.DeleteRow(key)
			ix.TP.DeleteRow(key)
			delete(ix.features, key)
		}
	}
	for key, f := range want {
		if _, have := ix.features[key]; !have {
			ix.addFeature(f, db, patterns)
		} else {
			// Refresh the posting-derived TG row: supports may have
			// shifted under the batch update.
			ix.features[key] = f
		}
	}
	wantIFE := make(map[string]*tree.Tree)
	for _, f := range set.InfrequentEdges() {
		fe := f.G.Edges()[0]
		wantIFE[f.G.EdgeLabel(fe.U, fe.V)] = f
	}
	for label := range ix.ife {
		if _, keep := wantIFE[label]; !keep {
			ix.EG.DeleteRow(label)
			ix.EP.DeleteRow(label)
			delete(ix.ife, label)
		}
	}
	for label, f := range wantIFE {
		if _, have := ix.ife[label]; !have {
			ix.addIFE(f, patterns)
		} else {
			ix.ife[label] = f
		}
	}
}
