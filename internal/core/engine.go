// Package core implements the MIDAS engine: the end-to-end maintenance
// framework of Algorithm 1 (paper §3.5) on top of the CATAPULT++ stack —
// graphlet-distance modification typing (§3.4), FCT / cluster / CSG
// maintenance (§4), index-assisted pruned candidate generation (§5), and
// the multi-scan swap-based pattern maintenance with criteria sw1–sw5
// and the SWAP_α κ-schedule of Lemma 6.3 (§6).
package core

import (
	"math/rand"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/cluster"
	"github.com/midas-graph/midas/internal/csg"
	"github.com/midas-graph/midas/internal/graphlet"
	"github.com/midas-graph/midas/internal/index"
	"github.com/midas-graph/midas/internal/tree"
)

// SwapStrategy selects how stale patterns are replaced under a major
// modification.
type SwapStrategy int

const (
	// MultiScan is MIDAS's swap strategy (§6.2).
	MultiScan SwapStrategy = iota
	// RandomSwap is the paper's "Random" baseline: candidates replace
	// random patterns without the sw1–sw5 guards.
	RandomSwap
)

// Config parameterises the engine. Zero values select the paper's
// defaults (§7.1) where meaningful.
type Config struct {
	Budget catapult.Budget

	// SupMin is the FCT support threshold (paper default 0.5).
	SupMin float64
	// MaxTreeEdges bounds mined tree size (default 3).
	MaxTreeEdges int
	// Epsilon is the evolution ratio threshold ε (default 0.1).
	Epsilon float64
	// Kappa and Lambda are the swapping thresholds (default 0.1).
	Kappa  float64
	Lambda float64
	// KSAlpha is the significance level of the pattern-size
	// Kolmogorov–Smirnov guard (default 0.05).
	KSAlpha float64
	// MaxScans bounds the multi-scan loop (default 5).
	MaxScans int

	Cluster cluster.Config

	// Walks and StartEdges configure candidate generation.
	Walks      int
	StartEdges int
	// Parallel fans candidate scoring out over this many goroutines
	// (default 1; results are identical at any setting). Superseded by
	// Workers when that is set.
	Parallel int
	// Workers selects the execution mode of every parallelised
	// maintenance kernel (fine-clustering ω_MCCS columns, batch feature
	// vectors, cover-set fan-outs, candidate and swap scoring): 0 is the
	// sequential reference path with no process-wide memoization; >= 1
	// routes fan-outs through the internal/parallel pool (1 degenerates
	// to an inline loop) and enables the instance-keyed MCCS/GED/VF2
	// memo caches. The strict invariant — enforced by the differential
	// test suite — is that Maintain and Query produce byte-identical
	// state bundles and reports at every Workers setting; only
	// wall-clock time may differ.
	Workers int
	// SampleSize enables lazy-sampled scov (0 = exact).
	SampleSize int
	// Seed drives all randomness.
	Seed int64
	// Strategy selects the swap strategy.
	Strategy SwapStrategy
	// UseClosedFeatures selects FCT features (CATAPULT++/MIDAS, true is
	// the default via NewEngine) versus plain frequent-subtree features
	// (CATAPULT baseline).
	UseClosedFeatures bool
	// UseIndices enables the FCT-Index/IFE-Index (CATAPULT++/MIDAS).
	UseIndices bool
	// NoPruning disables the coverage-based candidate pruning of §5.2
	// (Equation 2) — an ablation knob; MIDAS proper keeps it on.
	NoPruning bool
	// Distance selects the graphlet-distribution distance used to
	// classify modifications (§3.4). The default L2 is the paper's
	// choice; L1 and Hellinger exist to check the paper's claim that
	// the measure barely matters. ε must be calibrated per measure.
	Distance graphlet.Measure

	// AlphaDiv, AlphaCog and AlphaLcov tighten the swap guards sw3–sw5
	// per the "additional requirements by users" of §6.2: a swap must
	// then achieve f_div(P') >= (1+AlphaDiv)·f_div(P), tolerate
	// f_cog(P') <= (1+AlphaCog)·f_cog(P), and achieve f_lcov(P') >=
	// (1+AlphaLcov)·f_lcov(P). Zero values reproduce plain sw3–sw5.
	AlphaDiv, AlphaCog, AlphaLcov float64
}

func (c Config) withDefaults() Config {
	if c.Budget.MinSize == 0 && c.Budget.MaxSize == 0 {
		c.Budget = catapult.Budget{MinSize: 3, MaxSize: 12, Count: 30}
	}
	if c.SupMin == 0 {
		c.SupMin = 0.5
	}
	if c.MaxTreeEdges == 0 {
		c.MaxTreeEdges = 3
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.Kappa == 0 {
		c.Kappa = 0.1
	}
	if c.Lambda == 0 {
		c.Lambda = 0.1
	}
	if c.KSAlpha == 0 {
		c.KSAlpha = 0.05
	}
	if c.MaxScans == 0 {
		c.MaxScans = 5
	}
	if c.Walks == 0 {
		c.Walks = 60
	}
	if c.StartEdges == 0 {
		c.StartEdges = 3
	}
	return c
}

// Report describes one maintenance invocation (PMT and its breakdown,
// plus what happened).
type Report struct {
	// GraphletDistance is dist(ψ_D, ψ_{D⊕ΔD}).
	GraphletDistance float64
	// Major reports a Type-1 modification (distance >= ε).
	Major bool
	// Swaps counts patterns replaced.
	Swaps int
	// Candidates counts FCPs generated.
	Candidates int
	// Scans counts multi-scan passes executed.
	Scans int

	// Durations (wall clock).
	ClusterTime   time.Duration // assignment/removal + fine clustering
	FCTTime       time.Duration // tree-set maintenance
	CSGTime       time.Duration // summary maintenance/rebuilds
	IndexTime     time.Duration // index maintenance
	CandidateTime time.Duration // candidate generation (part of PGT)
	SwapTime      time.Duration // swap loop (part of PGT)
	SmallTime     time.Duration // small-pattern (η ≤ 2) refresh
	Total         time.Duration // PMT

	// Kernel work burned by this call, measured as deltas of the
	// process-wide iso/ged counters around the pipeline. Under
	// concurrent engines in one process the deltas include the other
	// engines' work; within the usual one-engine deployment they are
	// exact.
	VF2Steps  uint64 // VF2 search-tree nodes explored
	MCCSSteps uint64 // MCCS search nodes explored
	GEDNodes  uint64 // A* GED nodes expanded
}

// PGT returns the pattern generation time: candidate generation plus
// swapping (§7.3 Exp 1).
func (r Report) PGT() time.Duration { return r.CandidateTime + r.SwapTime }

// Engine owns the maintained state: database, mined trees, clusters,
// summaries, indices, graphlet counter and the canned pattern set.
type Engine struct {
	cfg     Config
	db      *graph.Database
	set     *tree.Set
	cl      *cluster.Clustering
	csgs    *csg.Manager
	ix      *index.Indices
	counter *graphlet.Counter
	metrics *catapult.Metrics

	patterns      []*graph.Graph
	nextPatternID int

	// sigma is the approximation-ratio lower bound of Lemma 6.3. It
	// starts at the SWAP_α base of 0.25 in a fresh or restored engine
	// and is carried across scans and across Maintain calls, so later
	// scans use κ = 1/(k+2) after k updates (multiScanSwap).
	sigma float64

	// logWeight, when set, scales pattern scores during swapping by a
	// query-log-derived usage weight — the extension sketched in §3.5
	// for repositories that do expose query logs. It must return a
	// positive multiplier (1 = neutral).
	logWeight func(p *graph.Graph) float64

	// cancel reports whether the in-flight MaintainContext call has
	// been cancelled; it is installed for the duration of the pipeline
	// and handed to the candidate selector.
	cancel func() bool

	// tel, when set via SetTelemetry, receives per-stage timings and
	// outcomes of every Maintain call.
	tel *maintainTelemetry

	// afterMaintain, when set via SetAfterMaintain, runs after every
	// successful Maintain — the hook point for durability chores such
	// as journal checkpointing.
	afterMaintain func(Report)

	// bootstrap is the breakdown of BootstrapTime: the stages the
	// constructor ran, in order.
	bootstrap []StageTiming

	// LastReport is the report of the most recent Maintain call.
	LastReport Report
	// BootstrapTime is the time spent building the initial state.
	BootstrapTime time.Duration
}

// NewEngine bootstraps the full CATAPULT++ stack over db and selects the
// initial pattern set. The engine takes ownership of db.
func NewEngine(db *graph.Database, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	cfg.UseClosedFeatures = true
	cfg.UseIndices = true
	return newEngine(db, cfg)
}

// NewEngineWith bootstraps with explicit feature/index choices (used by
// the CATAPULT and CATAPULT++ baselines).
func NewEngineWith(db *graph.Database, cfg Config) *Engine {
	return newEngine(db, cfg.withDefaults())
}

// NewEngineWithPatterns bootstraps the maintained state (mining,
// clustering, summaries, indices) but restores a previously selected
// pattern set instead of running selection — the restart path of a
// persisted deployment. Pattern IDs are preserved.
func NewEngineWithPatterns(db *graph.Database, cfg Config, patterns []*graph.Graph) *Engine {
	cfg = cfg.withDefaults()
	cfg.UseClosedFeatures = true
	cfg.UseIndices = true
	cfg.Cluster.Workers = cfg.Workers
	e := &Engine{cfg: cfg, db: db, sigma: 0.25}
	clock := newStageClock()
	e.set = tree.Mine(db, cfg.SupMin, cfg.MaxTreeEdges)
	clock.lap("mine")
	rng := rand.New(rand.NewSource(cfg.Seed))
	e.cl = e.buildClustering(rng)
	clock.lap("cluster")
	e.csgs = csg.NewManager(0)
	e.csgs.SetMemo(cfg.Workers >= 1)
	e.csgs.BuildAll(e.cl)
	clock.lap("csg")
	e.ix = index.Build(e.set, db, nil)
	e.patterns = append([]*graph.Graph(nil), patterns...)
	for _, p := range e.patterns {
		if p.ID >= e.nextPatternID {
			e.nextPatternID = p.ID + 1
		}
		e.ix.RegisterPattern(p)
	}
	clock.lap("index")
	e.counter = graphlet.NewCounter(db)
	clock.lap("graphlet")
	e.metrics = catapult.NewMetrics(db, e.set, e.ix, cfg.SampleSize, cfg.Seed)
	e.metrics.Memo = cfg.Workers >= 1
	clock.lap("metrics")
	e.bootstrap, e.BootstrapTime = clock.stages, clock.total()
	return e
}

func newEngine(db *graph.Database, cfg Config) *Engine {
	cfg.Cluster.Workers = cfg.Workers
	e := &Engine{cfg: cfg, db: db, sigma: 0.25}
	clock := newStageClock()
	e.set = tree.Mine(db, cfg.SupMin, cfg.MaxTreeEdges)
	clock.lap("mine")
	rng := rand.New(rand.NewSource(cfg.Seed))
	e.cl = e.buildClustering(rng)
	clock.lap("cluster")
	e.csgs = csg.NewManager(0)
	e.csgs.SetMemo(cfg.Workers >= 1)
	e.csgs.BuildAll(e.cl)
	clock.lap("csg")
	if cfg.UseIndices {
		e.ix = index.Build(e.set, db, nil)
		clock.lap("index")
	}
	e.counter = graphlet.NewCounter(db)
	clock.lap("graphlet")
	e.metrics = catapult.NewMetrics(db, e.set, e.ix, cfg.SampleSize, cfg.Seed)
	e.metrics.Memo = cfg.Workers >= 1
	clock.lap("metrics")
	sel := catapult.NewSelector(e.metrics, e.cl, e.csgs, e.selectConfig(nil))
	e.patterns = sel.Select(0)
	e.nextPatternID = len(e.patterns)
	if e.ix != nil {
		for _, p := range e.patterns {
			e.ix.RegisterPattern(p)
		}
	}
	clock.lap("select")
	e.refreshSmallPatterns()
	clock.lap("small")
	e.bootstrap, e.BootstrapTime = clock.stages, clock.total()
	return e
}

// stageClock times consecutive bootstrap stages.
type stageClock struct {
	start, last time.Time
	stages      []StageTiming
}

func newStageClock() *stageClock {
	now := time.Now()
	return &stageClock{start: now, last: now}
}

// lap closes the stage that began at the previous lap.
func (c *stageClock) lap(name string) {
	now := time.Now()
	c.stages = append(c.stages, StageTiming{Name: name, Duration: now.Sub(c.last)})
	c.last = now
}

func (c *stageClock) total() time.Duration { return c.last.Sub(c.start) }

// buildClustering builds the coarse+fine clustering with the configured
// feature family.
func (e *Engine) buildClustering(rng *rand.Rand) *cluster.Clustering {
	if e.cfg.UseClosedFeatures {
		return cluster.Build(e.db, e.set, e.cfg.Cluster, rng)
	}
	// CATAPULT baseline: plain frequent subtrees as features. The
	// cluster package reads features through tree.Set; switching the key
	// set is enough.
	return cluster.BuildWithKeys(e.db, e.set, e.set.FeatureKeysAll(), e.cfg.Cluster, rng)
}

func (e *Engine) selectConfig(pruner catapult.Pruner) catapult.SelectConfig {
	par := e.cfg.Parallel
	if e.cfg.Workers > 0 {
		par = e.cfg.Workers
	}
	return catapult.SelectConfig{
		Budget:     e.selectBudget(),
		Walks:      e.cfg.Walks,
		StartEdges: e.cfg.StartEdges,
		Seed:       e.cfg.Seed,
		Pruner:     pruner,
		Parallel:   par,
		Cancel:     e.cancel,
	}
}

// workers returns the fan-out width for the engine's parallel kernels
// (0 keeps every fan-out on the inline sequential path).
func (e *Engine) workers() int { return e.cfg.Workers }

// DB returns the engine's current database.
func (e *Engine) DB() *graph.Database { return e.db }

// ReadView returns an isolated copy of the structures a query engine
// reads — database, tree set and indices — detached from the live
// engine: later Maintain calls mutate the engine's own structures in
// place and never touch the returned copies, so a view taken between
// batches stays safe for concurrent readers indefinitely. Stored data
// graphs are shared (the engine never structurally mutates them); the
// container structures are cloned. Must be called while no Maintain is
// in flight — the serving layer's snapshot publisher calls it from the
// maintenance goroutine between batches.
func (e *Engine) ReadView() (*graph.Database, *tree.Set, *index.Indices) {
	db, err := e.db.ApplyToCopy(graph.Update{})
	if err != nil {
		db = e.db.Clone()
	}
	set := e.set.Clone()
	var ix *index.Indices
	if e.ix != nil {
		ix = e.ix.Clone(set)
	}
	return db, set, ix
}

// Patterns returns the current canned pattern set P.
func (e *Engine) Patterns() []*graph.Graph {
	out := make([]*graph.Graph, len(e.patterns))
	copy(out, e.patterns)
	return out
}

// Metrics exposes the engine's evaluator (bound to the current DB).
func (e *Engine) Metrics() *catapult.Metrics { return e.metrics }

// Quality evaluates the current pattern set against the current DB.
func (e *Engine) Quality() catapult.Quality {
	return e.metrics.Evaluate(e.patterns)
}

// TreeSet exposes the maintained FCT set.
func (e *Engine) TreeSet() *tree.Set { return e.set }

// Clustering exposes the maintained clusters.
func (e *Engine) Clustering() *cluster.Clustering { return e.cl }

// Indices exposes the maintained indices (nil when disabled).
func (e *Engine) Indices() *index.Indices { return e.ix }

// CSGs exposes the maintained summaries.
func (e *Engine) CSGs() *csg.Manager { return e.csgs }

// SetQueryLogWeight installs a query-log usage weight: during multi-scan
// swapping, each pattern's score s'_p is multiplied by fn(p), so
// patterns frequently matched by logged queries resist eviction and
// log-popular candidates swap in sooner (§3.5). Pass nil to remove. The
// framework stays log-oblivious by default, as most public repositories
// publish no logs.
func (e *Engine) SetQueryLogWeight(fn func(p *graph.Graph) float64) {
	e.logWeight = fn
}

// SetAfterMaintain installs a hook that runs after every successful
// Maintain/MaintainContext call, with the call's report. A failed (and
// rolled-back) Maintain does not fire it. The hook runs on the calling
// goroutine while the engine is still under the caller's lock, so it
// must not re-enter the engine; it exists for durability chores keyed
// to maintenance progress, such as compacting the batch journal
// (Journal.MaybeCheckpoint). Pass nil to remove.
func (e *Engine) SetAfterMaintain(fn func(Report)) {
	e.afterMaintain = fn
}

// swapScore is s'_p, optionally scaled by the query-log weight.
func (e *Engine) swapScore(p *graph.Graph, others []*graph.Graph) float64 {
	s := e.metrics.ScoreMIDAS(p, others)
	if e.logWeight != nil {
		if w := e.logWeight(p); w > 0 {
			s *= w
		}
	}
	return s
}
