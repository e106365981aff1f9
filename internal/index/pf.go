package index

import (
	"sort"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/ged"
	"github.com/midas-graph/midas/internal/iso"
	"github.com/midas-graph/midas/internal/tree"
)

// PF is the pattern–feature matrix of §6.1: one row per pattern edge,
// one column per feature *embedding* (a feature may contribute several
// embedding columns, unlike the per-graph columns of TG/EG). Entry (i,j)
// is 1 when edge i participates in embedding j.
type PF struct {
	// EdgeRows indexes pattern edges.
	EdgeRows []graph.Edge
	// Cols[j] describes embedding j: the feature key and the set of row
	// indices (pattern edges) the embedding uses.
	Cols []PFColumn
}

// PFColumn is one feature-embedding column.
type PFColumn struct {
	FeatureKey string
	EdgeRows   []int
}

// BuildPF enumerates embeddings of each feature into pattern p. The
// number of embeddings per feature is capped (countCap); features whose
// enumeration hits the cap are skipped, keeping downstream bounds sound.
func BuildPF(p *graph.Graph, features []*tree.Tree) *PF {
	pf := &PF{EdgeRows: append([]graph.Edge(nil), p.Edges()...)}
	rowOf := make(map[graph.Edge]int, len(pf.EdgeRows))
	for i, e := range pf.EdgeRows {
		rowOf[e] = i
	}
	for _, f := range features {
		embs := iso.AllEmbeddings(f.G, p, iso.Options{Limit: countCap, MaxSteps: countBudget})
		if len(embs) >= countCap {
			continue // truncated enumeration: excess counts untrustworthy
		}
		for _, m := range embs {
			var rows []int
			for _, fe := range f.G.Edges() {
				pe := graph.Edge{U: m[fe.U], V: m[fe.V]}.Canon()
				if r, ok := rowOf[pe]; ok {
					rows = append(rows, r)
				}
			}
			sort.Ints(rows)
			pf.Cols = append(pf.Cols, PFColumn{FeatureKey: f.Key, EdgeRows: rows})
		}
	}
	return pf
}

// embeddingStats summarises a PF matrix per feature: total embeddings
// and the maximum number of embeddings sharing one pattern edge.
func (pf *PF) embeddingStats() map[string]struct{ total, maxPerEdge int } {
	perEdge := make(map[string]map[int]int)
	total := make(map[string]int)
	for _, col := range pf.Cols {
		total[col.FeatureKey]++
		pe := perEdge[col.FeatureKey]
		if pe == nil {
			pe = make(map[int]int)
			perEdge[col.FeatureKey] = pe
		}
		for _, r := range col.EdgeRows {
			pe[r]++
		}
	}
	out := make(map[string]struct{ total, maxPerEdge int }, len(total))
	for k, t := range total {
		maxPE := 0
		for _, c := range perEdge[k] {
			if c > maxPE {
				maxPE = c
			}
		}
		if maxPE == 0 {
			maxPE = 1
		}
		out[k] = struct{ total, maxPerEdge int }{t, maxPE}
	}
	return out
}

// RelaxedEdges returns a sound lower bound n on the number of edges of a
// that must be "relaxed" before a's feature-embedding multiset fits
// inside b's (§6.1): destroying the excess embeddings of feature f
// requires at least ceil(excess_f / maxEmbeddingsPerEdge_f) relaxed
// edges, and a relaxed edge may serve every feature at once, so the
// bound is the maximum over features.
func RelaxedEdges(a, b *graph.Graph, features []*tree.Tree) int {
	pfa := BuildPF(a, features)
	statsA := pfa.embeddingStats()
	if len(statsA) == 0 {
		return 0
	}
	// Count embeddings in b only for features a exhibits.
	n := 0
	for key, sa := range statsA {
		f := featureByKey(features, key)
		if f == nil {
			continue
		}
		cb := iso.CountEmbeddings(f.G, b, iso.Options{Limit: countCap, MaxSteps: countBudget})
		if cb >= countCap {
			continue // truncated: cannot certify an excess
		}
		excess := sa.total - cb
		if excess <= 0 {
			continue
		}
		need := (excess + sa.maxPerEdge - 1) / sa.maxPerEdge
		if need > n {
			n = need
		}
	}
	return n
}

func featureByKey(features []*tree.Tree, key string) *tree.Tree {
	for _, f := range features {
		if f.Key == key {
			return f
		}
	}
	return nil
}

// TighterGED returns GED'_l(a,b) = GED_l(a,b) + n with n from
// RelaxedEdges, Lemma 6.1's bound that Metrics.Div prunes with. It is
// not a lower bound on GED: the relaxed edges can already be paid for
// by GED_l's relabel and edge-count terms. Between a = C–C–O–P with an
// H on the first C and on the O, and a path of four carbons, GED_l = 6
// = GED and n = 1 under the features mined from 200 AIDS-like graphs
// at supmin 0.4, so GED'_l = 7.
func (ix *Indices) TighterGED(a, b *graph.Graph) float64 {
	feats := make([]*tree.Tree, 0, len(ix.features)+len(ix.ife))
	for _, k := range ix.FeatureKeys() {
		feats = append(feats, ix.features[k])
	}
	for _, l := range ix.IFELabels() {
		feats = append(feats, ix.ife[l])
	}
	return ged.TighterLowerBound(a, b, RelaxedEdges(a, b, feats))
}
