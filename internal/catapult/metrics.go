// Package catapult implements the CATAPULT canned-pattern selection
// framework (paper §2.3) that MIDAS builds on: pattern-set quality
// metrics (subgraph coverage, label coverage, diversity, cognitive
// load), the pattern score of Definition 2.1 and its MIDAS variant s'_p
// (§6.1), and the greedy weighted-random-walk selection of canned
// patterns from cluster summary graphs, with the multiplicative-weights
// update between iterations.
package catapult

import (
	"math/rand"
	"sort"
	"sync"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/ged"
	"github.com/midas-graph/midas/internal/index"
	"github.com/midas-graph/midas/internal/iso"
	"github.com/midas-graph/midas/internal/parallel"
	"github.com/midas-graph/midas/internal/tree"
)

// Budget is the pattern budget b = (η_min, η_max, γ) of Definition 3.1.
type Budget struct {
	MinSize int // η_min, minimum pattern size (edges), > 2 in the paper
	MaxSize int // η_max, maximum pattern size (edges)
	Count   int // γ, number of patterns displayed on the GUI
}

// PerSizeCap returns ⌈γ / (η_max − η_min + 1)⌉, the maximum number of
// patterns of any one size (Definition 3.1).
func (b Budget) PerSizeCap() int {
	span := b.MaxSize - b.MinSize + 1
	if span < 1 {
		span = 1
	}
	return (b.Count + span - 1) / span
}

// Quality aggregates the four objective values of a pattern set.
type Quality struct {
	Scov float64 // f_scov: fraction of data graphs covered by >=1 pattern
	Lcov float64 // f_lcov: fraction covered by >=1 pattern edge label
	Div  float64 // f_div: minimum pairwise pattern diversity (GED)
	Cog  float64 // f_cog: maximum pattern cognitive load
}

// Score returns the multiplicative set score s'_P = scov × lcov × div /
// cog used to compare pattern sets (§6.1, [37]).
func (q Quality) Score() float64 {
	if q.Cog == 0 {
		return 0
	}
	return q.Scov * q.Lcov * q.Div / q.Cog
}

// Metrics evaluates patterns against a database. The optional index
// accelerates cover-set computation; SampleSize > 0 enables the lazy
// sampling of [23] for scov on large databases.
type Metrics struct {
	DB         *graph.Database
	Set        *tree.Set
	Ix         *index.Indices
	SampleSize int
	Seed       int64

	// mu guards the caches and the lazy sample so scoring can fan out
	// across goroutines (scores are pure, so concurrency cannot change
	// results — only which values end up memoised).
	mu         sync.Mutex
	sample     *graph.Database
	coverCache map[string]map[int]struct{}
	distCache  map[string]float64

	// cancel, when set, is polled inside cover-set and diversity loops
	// and handed down to the VF2/GED kernels so an in-flight
	// maintenance call can be abandoned promptly. Values computed after
	// cancellation fires are not cached.
	cancel func() bool
}

// NewMetrics builds a metrics evaluator.
func NewMetrics(db *graph.Database, set *tree.Set, ix *index.Indices, sampleSize int, seed int64) *Metrics {
	return &Metrics{DB: db, Set: set, Ix: ix, SampleSize: sampleSize, Seed: seed,
		coverCache: make(map[string]map[int]struct{}),
		distCache:  make(map[string]float64)}
}

// scovDB returns the database scov is computed against: the full DB or
// a deterministic sample of SampleSize graphs.
func (m *Metrics) scovDB() *graph.Database {
	if m.SampleSize <= 0 || m.DB.Len() <= m.SampleSize {
		return m.DB
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sample != nil {
		return m.sample
	}
	rng := rand.New(rand.NewSource(m.Seed))
	graphs := m.DB.Graphs()
	perm := rng.Perm(len(graphs))
	s := graph.NewDatabase()
	for i := 0; i < m.SampleSize; i++ {
		if err := s.Add(graphs[perm[i]]); err != nil {
			panic(err) // unreachable: IDs unique in source
		}
	}
	m.sample = s
	return s
}

// SetCancel installs (or, with nil, removes) the cancellation hook.
func (m *Metrics) SetCancel(fn func() bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cancel = fn
}

// cancelled reports whether the installed hook requests abandonment.
func (m *Metrics) cancelled() bool {
	m.mu.Lock()
	fn := m.cancel
	m.mu.Unlock()
	return fn != nil && fn()
}

// cancelHook returns the installed hook (possibly nil) for handing to
// kernels.
func (m *Metrics) cancelHook() func() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cancel
}

// InvalidateSample drops the cached sample and cover cache (call after
// the database changes).
func (m *Metrics) InvalidateSample() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sample = nil
	m.coverCache = make(map[string]map[int]struct{})
}

// CoverSet returns G_scov(p) over the scov database. The cache is keyed
// by the exact graph instance (parallel.GraphKey), not the isomorphism
// signature: the step-capped VF2 searches underneath depend on concrete
// vertex numbering, so only instance-exact reuse is guaranteed to be
// result-neutral when calls fan out across goroutines.
func (m *Metrics) CoverSet(p *graph.Graph) map[int]struct{} {
	sig := parallel.GraphKey(p)
	m.mu.Lock()
	c, ok := m.coverCache[sig]
	m.mu.Unlock()
	if ok {
		return c
	}
	db := m.scovDB()
	cancel := m.cancelHook()
	var out map[int]struct{}
	if m.Ix != nil {
		full := m.Ix.CoverSet(p, db)
		out = full
	} else {
		out = make(map[int]struct{})
		for _, g := range db.Graphs() {
			if cancel != nil && cancel() {
				return out // partial; not cached
			}
			if hasAllEdgeLabels(p, g) && iso.HasSubgraph(p, g, iso.Options{MaxSteps: 200000, Cancel: cancel}) {
				out[g.ID] = struct{}{}
			}
		}
	}
	if cancel != nil && cancel() {
		return out // possibly truncated by kernel cancellation
	}
	m.mu.Lock()
	m.coverCache[sig] = out
	m.mu.Unlock()
	return out
}

// Scov returns scov(p, D) = |G_p| / |D| over the scov database.
func (m *Metrics) Scov(p *graph.Graph) float64 {
	db := m.scovDB()
	if db.Len() == 0 {
		return 0
	}
	return float64(len(m.CoverSet(p))) / float64(db.Len())
}

// SetScov returns f_scov(P): the fraction of graphs containing at least
// one pattern.
func (m *Metrics) SetScov(ps []*graph.Graph) float64 {
	db := m.scovDB()
	if db.Len() == 0 {
		return 0
	}
	union := make(map[int]struct{})
	for _, p := range ps {
		for id := range m.CoverSet(p) {
			union[id] = struct{}{}
		}
	}
	return float64(len(union)) / float64(db.Len())
}

// LcovOne returns lcov(p, D): the fraction of data graphs containing at
// least one edge whose label occurs in p.
func (m *Metrics) LcovOne(p *graph.Graph) float64 {
	return m.lcovLabels(p.EdgeLabels())
}

// SetLcov returns f_lcov(P) over the union of all pattern edge labels.
func (m *Metrics) SetLcov(ps []*graph.Graph) float64 {
	labels := make(map[string]struct{})
	for _, p := range ps {
		for l := range p.EdgeLabels() {
			labels[l] = struct{}{}
		}
	}
	return m.lcovLabels(labels)
}

func (m *Metrics) lcovLabels(labels map[string]struct{}) float64 {
	if m.DB.Len() == 0 {
		return 0
	}
	union := make(map[int]struct{})
	for l := range labels {
		if et := m.Set.EdgeTree(l); et != nil {
			for id := range et.Post {
				union[id] = struct{}{}
			}
		}
	}
	return float64(len(union)) / float64(m.DB.Len())
}

// Cog returns cog(p) = |E_p| × ρ_p (§2.2).
func Cog(p *graph.Graph) float64 { return p.CognitiveLoad() }

// SetCog returns f_cog(P) = max_p cog(p).
func SetCog(ps []*graph.Graph) float64 {
	best := 0.0
	for _, p := range ps {
		if c := Cog(p); c > best {
			best = c
		}
	}
	return best
}

// distLookup reads the per-Metrics distance cache. The cache only saves
// recomputation: Div consults the GED'ₗ prune for every pair that could
// lower its running minimum, cached or not, so which pairs the cache
// holds never changes a result. The cache is per engine: a restart or a
// rollback starts it empty.
func (m *Metrics) distLookup(key string) (float64, bool) {
	m.mu.Lock()
	d, ok := m.distCache[key]
	m.mu.Unlock()
	return d, ok
}

// Div returns div(p, others) = min GED(p, p_i). With no others it is the
// neutral 1 so that multiplicative scores stay meaningful.
func (m *Metrics) Div(p *graph.Graph, others []*graph.Graph) float64 {
	if len(others) == 0 {
		return 1
	}
	best := -1.0
	cancel := m.cancelHook()
	for _, o := range others {
		if cancel != nil && cancel() {
			break
		}
		// Distances between pattern pairs repeat heavily across scoring
		// rounds; cache by the exact ordered instance pair. (The
		// bipartite upper bound used for larger pairs is neither
		// symmetric nor isomorphism-invariant, so directional
		// instance-exact keys are the only reuse that provably preserves
		// the computed values.)
		key := parallel.PairKey(p, o)
		d, ok := m.distLookup(key)
		// The tighter bound GED'_l skips a pair whose bound reaches the
		// current minimum. It is consulted for every pair that could
		// lower the minimum — uncached, or cached below it — so the
		// minimum is the one a cold cache computes. A cached distance at
		// or above the minimum cannot lower it and needs no bound. With
		// no minimum yet there is nothing to prune against.
		if m.Ix != nil && best >= 0 && (!ok || d < best) && m.Ix.TighterGED(p, o) >= best {
			continue
		}
		if !ok {
			d = ged.DistanceCancel(p, o, cancel)
			if cancel == nil || !cancel() {
				m.mu.Lock()
				m.distCache[key] = d
				m.mu.Unlock()
			}
		}
		if best < 0 || d < best {
			best = d
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// SetDiv returns f_div(P) = min_p div(p, P \ p).
func (m *Metrics) SetDiv(ps []*graph.Graph) float64 {
	if len(ps) < 2 {
		return float64(len(ps)) // 0 for empty, 1 (neutral) for singleton
	}
	best := -1.0
	for i, p := range ps {
		others := make([]*graph.Graph, 0, len(ps)-1)
		for j, o := range ps {
			if i != j {
				others = append(others, o)
			}
		}
		if d := m.Div(p, others); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// Evaluate computes the full quality vector of a pattern set.
func (m *Metrics) Evaluate(ps []*graph.Graph) Quality {
	return Quality{
		Scov: m.SetScov(ps),
		Lcov: m.SetLcov(ps),
		Div:  m.SetDiv(ps),
		Cog:  SetCog(ps),
	}
}

// ScoreMIDAS returns s'_p = scov(p,D) × lcov(p,D) × div(p,P\p) / cog(p),
// the MIDAS pattern score (§6.1).
func (m *Metrics) ScoreMIDAS(p *graph.Graph, others []*graph.Graph) float64 {
	c := Cog(p)
	if c == 0 {
		return 0
	}
	return m.Scov(p) * m.LcovOne(p) * m.Div(p, others) / c
}

// ScoreCATAPULT returns s_p = ccov(p,cw,C) × lcov(p,D) × div(p,P\p) /
// cog(p) (Definition 2.1); ccov must be supplied by the caller, which
// owns clusters and summaries.
func (m *Metrics) ScoreCATAPULT(p *graph.Graph, others []*graph.Graph, ccov float64) float64 {
	c := Cog(p)
	if c == 0 {
		return 0
	}
	return ccov * m.LcovOne(p) * m.Div(p, others) / c
}

func hasAllEdgeLabels(p, g *graph.Graph) bool {
	gl := g.EdgeLabels()
	for l := range p.EdgeLabels() {
		if _, ok := gl[l]; !ok {
			return false
		}
	}
	return true
}

// SortPatterns orders patterns deterministically by ID.
func SortPatterns(ps []*graph.Graph) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].ID < ps[j].ID })
}
