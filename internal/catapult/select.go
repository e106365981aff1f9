package catapult

import (
	"math/rand"
	"sort"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/cluster"
	"github.com/midas-graph/midas/internal/csg"
	"github.com/midas-graph/midas/internal/iso"
	"github.com/midas-graph/midas/internal/parallel"
)

// Pruner lets MIDAS inject the coverage-based early-termination test of
// Equation 2 into FCP growth: it is consulted before each edge is added
// to a partially constructed candidate and returns true when the edge's
// marginal subgraph coverage is too low to continue (§5.2). A nil
// pruner never terminates early (plain CATAPULT behaviour).
type Pruner func(edgeLabel string) bool

// SelectConfig controls pattern selection.
type SelectConfig struct {
	Budget Budget
	// Walks is the number of random walks per summary graph per
	// selection round (the paper uses 100).
	Walks int
	// Seed drives all randomness; equal seeds reproduce selections.
	Seed int64
	// Pruner, when set, enables MIDAS's coverage-based pruning.
	Pruner Pruner
	// MWUBeta is the multiplicative-weights down-weighting applied to
	// summary edges used by a selected pattern (default 0.5).
	MWUBeta float64
	// Parallel sets the candidate-scoring fan-out (default 1,
	// sequential). Scores are pure functions, so results are identical
	// at any setting; only wall-clock changes.
	Parallel int
	// Cancel, when set, is polled in the walk and growth loops (and
	// passed to the matching kernels) so a cancelled maintenance call
	// abandons candidate generation promptly with partial results; the
	// caller then surfaces the cancellation error.
	Cancel func() bool
}

func (c SelectConfig) withDefaults() SelectConfig {
	if c.Walks <= 0 {
		c.Walks = 100
	}
	if c.MWUBeta <= 0 || c.MWUBeta >= 1 {
		c.MWUBeta = 0.5
	}
	return c
}

// Selector runs CATAPULT's greedy iterative selection over a set of
// weighted summary graphs.
type Selector struct {
	cfg     SelectConfig
	metrics *Metrics
	cl      *cluster.Clustering
	csgs    *csg.Manager
	weights map[int]map[graph.Edge]float64 // cluster ID -> edge weights
	rng     *rand.Rand
}

// NewSelector prepares selection state; edge weights are initialised to
// w_e = lcov(e,D) × lcov(e,C) (§2.3).
func NewSelector(m *Metrics, cl *cluster.Clustering, csgs *csg.Manager, cfg SelectConfig) *Selector {
	cfg = cfg.withDefaults()
	s := &Selector{
		cfg:     cfg,
		metrics: m,
		cl:      cl,
		csgs:    csgs,
		weights: make(map[int]map[graph.Edge]float64),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	lcovD := func(label string) float64 {
		if et := m.Set.EdgeTree(label); et != nil {
			return et.Support(m.DB.Len())
		}
		return 0
	}
	for _, cid := range csgs.ClusterIDs() {
		c := cl.Cluster(cid)
		size := 0
		if c != nil {
			size = c.Len()
		}
		s.weights[cid] = csgs.Get(cid).Weights(lcovD, size)
	}
	return s
}

// Weights exposes the current edge weights of a summary (for tests and
// the MIDAS core).
func (s *Selector) Weights(clusterID int) map[graph.Edge]float64 {
	return s.weights[clusterID]
}

// Select runs the full greedy loop and returns up to γ patterns, IDs
// assigned from nextID upward.
func (s *Selector) Select(nextID int) []*graph.Graph {
	defer func(t0 time.Time) { flushSelect(time.Since(t0)) }(time.Now())
	var selected []*graph.Graph
	perSize := make(map[int]int)
	cap := s.cfg.Budget.PerSizeCap()
	for len(selected) < s.cfg.Budget.Count {
		cands := s.GenerateFCPs(s.csgs.ClusterIDs())
		best := s.pickBest(cands, selected, perSize, cap)
		if best == nil {
			break
		}
		best.p.ID = nextID
		nextID++
		selected = append(selected, best.p)
		perSize[best.p.Size()]++
		s.DownWeight(best.clusterID, best.p)
	}
	return selected
}

// Candidate is one final candidate pattern (FCP) with its provenance.
type Candidate struct {
	p         *graph.Graph
	clusterID int
}

// Pattern returns the candidate pattern graph.
func (c *Candidate) Pattern() *graph.Graph { return c.p }

// ClusterID returns the summary the candidate was grown from.
func (c *Candidate) ClusterID() int { return c.clusterID }

// GenerateFCPs proposes candidate patterns from the given summaries:
// weighted random walks gather edge-traversal statistics, and for every
// size in [η_min, η_max] a candidate is grown from each of the top
// starting edges by repeatedly attaching the most-traversed adjacent
// edge (§2.3), subject to the pruner (§5.2). Duplicate structures are
// removed.
func (s *Selector) GenerateFCPs(clusterIDs []int) []*Candidate {
	t0 := time.Now()
	walks := 0
	var out []*Candidate
	defer func() { flushGenerate(time.Since(t0), len(out), walks) }()
	seen := make(map[string]struct{})
	for _, cid := range clusterIDs {
		if s.cfg.Cancel != nil && s.cfg.Cancel() {
			return out
		}
		sg := s.csgs.Get(cid)
		if sg == nil || sg.Size() == 0 {
			continue
		}
		traversal, taken := s.walk(sg, s.weights[cid])
		walks += taken
		starts := startEdges(sg, traversal, startEdgeCount)
		for size := s.cfg.Budget.MinSize; size <= s.cfg.Budget.MaxSize; size++ {
			for _, start := range starts {
				p := s.growFCP(sg, traversal, start, size)
				if p == nil {
					continue
				}
				sig := graph.Signature(p)
				if _, dup := seen[sig]; dup {
					continue
				}
				seen[sig] = struct{}{}
				out = append(out, &Candidate{p: p, clusterID: cid})
			}
		}
	}
	return out
}

// walk performs the weighted random walks and returns per-edge
// traversal counts plus the number of walks actually taken (the count
// feeds the selection telemetry).
func (s *Selector) walk(sg *csg.CSG, weights map[graph.Edge]float64) (map[graph.Edge]float64, int) {
	counts := make(map[graph.Edge]float64, sg.Size())
	taken := 0
	edges := sg.Edges()
	if len(edges) == 0 {
		return counts, taken
	}
	for it := 0; it < s.cfg.Walks; it++ {
		if s.cfg.Cancel != nil && s.cfg.Cancel() {
			break
		}
		cur, ok := s.sampleEdge(edges, weights)
		if !ok {
			break
		}
		taken++
		counts[cur]++
		for step := 0; step < s.cfg.Budget.MaxSize; step++ {
			adj := adjacentEdges(sg.G, cur)
			next, ok := s.sampleEdge(adj, weights)
			if !ok {
				break
			}
			counts[next]++
			cur = next
		}
	}
	return counts, taken
}

// sampleEdge draws an edge proportionally to its weight; uniform when
// all weights vanish. It fails only on an empty candidate list.
func (s *Selector) sampleEdge(edges []graph.Edge, weights map[graph.Edge]float64) (graph.Edge, bool) {
	if len(edges) == 0 {
		return graph.Edge{}, false
	}
	total := 0.0
	for _, e := range edges {
		total += weights[e]
	}
	if total <= 0 {
		return edges[s.rng.Intn(len(edges))], true
	}
	x := s.rng.Float64() * total
	for _, e := range edges {
		x -= weights[e]
		if x <= 0 {
			return e, true
		}
	}
	return edges[len(edges)-1], true
}

// adjacentEdges returns summary edges sharing an endpoint with e, in
// deterministic order.
func adjacentEdges(g *graph.Graph, e graph.Edge) []graph.Edge {
	var out []graph.Edge
	add := func(u int) {
		for _, w := range g.Neighbors(u) {
			ne := graph.Edge{U: u, V: w}.Canon()
			if ne != e {
				out = append(out, ne)
			}
		}
	}
	add(e.U)
	add(e.V)
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// startEdgeCount is how many distinct top-traversed starting edges
// propose candidates per summary and size (the PCP variety).
const startEdgeCount = 3

// startEdges proposes candidate growth seeds: the k most-traversed
// edges overall, plus the most-traversed edge of every distinct edge
// label. The per-label seeds realise the PCP "variety" of §2.3 — a
// summary dominated by high-coverage labels still proposes candidates
// anchored on rarer structures (e.g. a new compound family's functional
// group).
func startEdges(sg *csg.CSG, traversal map[graph.Edge]float64, k int) []graph.Edge {
	starts := topEdges(traversal, k)
	seen := make(map[graph.Edge]struct{}, len(starts))
	for _, e := range starts {
		seen[e] = struct{}{}
	}
	bestPerLabel := make(map[string]graph.Edge)
	for _, e := range sg.Edges() {
		label := sg.G.EdgeLabel(e.U, e.V)
		cur, ok := bestPerLabel[label]
		if !ok || traversal[e] > traversal[cur] ||
			(traversal[e] == traversal[cur] && lessEdge(e, cur)) {
			bestPerLabel[label] = e
		}
	}
	labels := make([]string, 0, len(bestPerLabel))
	for l := range bestPerLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		e := bestPerLabel[l]
		if _, dup := seen[e]; !dup {
			seen[e] = struct{}{}
			starts = append(starts, e)
		}
	}
	return starts
}

// topEdges returns up to k edges with the highest traversal counts.
func topEdges(traversal map[graph.Edge]float64, k int) []graph.Edge {
	edges := make([]graph.Edge, 0, len(traversal))
	for e := range traversal {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if traversal[edges[i]] != traversal[edges[j]] {
			return traversal[edges[i]] > traversal[edges[j]]
		}
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	if len(edges) > k {
		edges = edges[:k]
	}
	return edges
}

// growFCP grows a connected candidate of exactly `size` edges starting
// from `start`, attaching the most-traversed adjacent summary edge at
// each step. It returns nil if growth stalls or the pruner fires before
// the candidate is complete.
func (s *Selector) growFCP(sg *csg.CSG, traversal map[graph.Edge]float64, start graph.Edge, size int) *graph.Graph {
	if size < 1 {
		return nil
	}
	chosen := map[graph.Edge]struct{}{start: {}}
	vertices := map[int]struct{}{start.U: {}, start.V: {}}
	for len(chosen) < size {
		var best graph.Edge
		bestScore := -1.0
		found := false
		for v := range vertices {
			for _, w := range sg.G.Neighbors(v) {
				e := graph.Edge{U: v, V: w}.Canon()
				if _, dup := chosen[e]; dup {
					continue
				}
				score := traversal[e]
				if !found || score > bestScore ||
					(score == bestScore && lessEdge(e, best)) {
					best, bestScore, found = e, score, true
				}
			}
		}
		if !found {
			return nil // summary region exhausted before target size
		}
		if s.cfg.Pruner != nil && s.cfg.Pruner(sg.G.EdgeLabel(best.U, best.V)) {
			return nil // early termination (Equation 2)
		}
		chosen[best] = struct{}{}
		vertices[best.U] = struct{}{}
		vertices[best.V] = struct{}{}
	}
	edges := make([]graph.Edge, 0, len(chosen))
	for e := range chosen {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return lessEdge(edges[i], edges[j]) })
	p := sg.G.EdgeSubgraph(edges)
	p.SortAdjacency()
	return p
}

func lessEdge(a, b graph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// pickBest scores candidates (Definition 2.1) and returns the best one
// admissible under the per-size cap and not isomorphic to an existing
// pattern, or nil. Scoring fans out over cfg.Parallel workers; the
// argmax is taken sequentially in candidate order, so the result is
// independent of the fan-out.
func (s *Selector) pickBest(cands []*Candidate, selected []*graph.Graph, perSize map[int]int, sizeCap int) *Candidate {
	admissible := make([]bool, len(cands))
	for i, c := range cands {
		admissible[i] = perSize[c.p.Size()] < sizeCap && !isDuplicate(c.p, selected)
	}
	scores := make([]float64, len(cands))
	parallel.Do(s.cfg.Parallel, len(cands), s.cfg.Cancel, func(i int) {
		if admissible[i] {
			scores[i] = s.metrics.ScoreCATAPULT(cands[i].p, selected, s.ccov(cands[i].p))
		}
	})
	var best *Candidate
	bestScore := -1.0
	for i, c := range cands {
		if admissible[i] && scores[i] > bestScore {
			best, bestScore = c, scores[i]
		}
	}
	return best
}

// ccov computes cluster coverage Σ cw_i × I(csg_i ⊇ p) (Definition 2.1).
func (s *Selector) ccov(p *graph.Graph) float64 {
	total := 0.0
	for _, cid := range s.csgs.ClusterIDs() {
		c := s.cl.Cluster(cid)
		if c == nil {
			continue
		}
		sg := s.csgs.Get(cid)
		if sg != nil && iso.HasSubgraph(p, sg.G, iso.Options{MaxSteps: 100000, Cancel: s.cfg.Cancel}) {
			total += c.Weight(s.metrics.DB.Len())
		}
	}
	return total
}

// CCov exposes cluster coverage for external scoring.
func (s *Selector) CCov(p *graph.Graph) float64 { return s.ccov(p) }

// DownWeight applies the multiplicative-weights update after selecting
// pattern p from the given summary: every summary edge matched by p is
// down-weighted by β so later rounds explore elsewhere (§2.3, [7]).
func (s *Selector) DownWeight(clusterID int, p *graph.Graph) {
	sg := s.csgs.Get(clusterID)
	w := s.weights[clusterID]
	if sg == nil || w == nil {
		return
	}
	m := iso.FindEmbedding(p, sg.G, iso.Options{MaxSteps: 100000})
	if m == nil {
		return
	}
	for _, pe := range p.Edges() {
		se := graph.Edge{U: m[pe.U], V: m[pe.V]}.Canon()
		if _, ok := w[se]; ok {
			w[se] *= s.cfg.MWUBeta
		}
	}
}

func isDuplicate(p *graph.Graph, selected []*graph.Graph) bool {
	for _, q := range selected {
		if iso.Isomorphic(p, q) {
			return true
		}
	}
	return false
}

// Select is the package-level convenience running a full CATAPULT
// selection: metrics, selector and greedy loop in one call.
func Select(m *Metrics, cl *cluster.Clustering, csgs *csg.Manager, cfg SelectConfig) []*graph.Graph {
	return NewSelector(m, cl, csgs, cfg).Select(0)
}
