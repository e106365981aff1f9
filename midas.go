// Package midas is the public API of the MIDAS canned-pattern
// maintenance framework (Huang, Chua, Bhowmick, Choi, Zhou: "MIDAS:
// Towards Efficient and Effective Maintenance of Canned Patterns in
// Visual Graph Query Interfaces", SIGMOD 2021).
//
// A visual graph query interface displays a small set of canned
// patterns — little subgraphs users drag onto the canvas to build
// subgraph queries quickly. Given a database of small labelled graphs,
// this package
//
//   - selects an initial high-quality pattern set (the CATAPULT
//     pipeline: FCT mining, clustering, cluster summary graphs, weighted
//     random walks), and
//   - maintains that set incrementally as the database evolves under
//     batch insertions and deletions (the MIDAS framework: selective
//     maintenance by graphlet-distribution distance, index-assisted
//     candidate pruning, and multi-scan swap with quality guarantees).
//
// The entry point is New, which bootstraps an Engine over a
// graph.Database; Engine.Maintain applies updates. Quality reports,
// baseline strategies and a GUI formulation simulator (used by the
// reproduction experiments) are also exposed.
package midas

import (
	"context"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/cluster"
	"github.com/midas-graph/midas/internal/core"
	"github.com/midas-graph/midas/internal/telemetry"
	"github.com/midas-graph/midas/internal/tree"
)

// Update-validation sentinels: Maintain rejects a malformed batch with
// an error wrapping ErrInvalidUpdate before touching any state.
// ErrConflict (an inserted graph ID already present in the database)
// wraps ErrInvalidUpdate, so errors.Is(err, ErrInvalidUpdate) holds for
// both.
var (
	ErrInvalidUpdate = core.ErrInvalidUpdate
	ErrConflict      = core.ErrConflict
)

// Budget is the pattern budget b = (η_min, η_max, γ): patterns have
// between MinSize and MaxSize edges and at most Count patterns are
// displayed.
type Budget struct {
	MinSize int
	MaxSize int
	Count   int
}

// Strategy selects how stale patterns are replaced on a major database
// modification.
type Strategy string

const (
	// StrategyMultiScan is MIDAS's multi-scan swap (the default).
	StrategyMultiScan Strategy = "multiscan"
	// StrategyRandom is the random-swapping baseline.
	StrategyRandom Strategy = "random"
)

// Options configures an Engine. The zero value selects the paper's
// defaults: budget (3, 12, 30), sup_min 0.5, ε 0.1, κ = λ = 0.1.
type Options struct {
	Budget Budget

	// SupMin is the frequent-closed-tree support threshold.
	SupMin float64
	// Epsilon is the evolution ratio threshold ε: batch updates moving
	// the graphlet frequency distribution at least this far trigger
	// pattern maintenance.
	Epsilon float64
	// Kappa and Lambda are the swapping thresholds of §6.2.
	Kappa, Lambda float64

	// ClusterMaxSize is the fine-clustering threshold N (0 = 50).
	ClusterMaxSize int

	// Walks is the number of random walks per summary graph.
	Walks int
	// SampleSize enables lazy-sampled coverage estimation (0 = exact).
	SampleSize int
	// Workers selects the execution mode of the maintenance kernels:
	// 0 runs the sequential reference path; n >= 1 fans the pairwise
	// MCCS/GED computations, batch classification and swap scoring out
	// over n pooled workers and enables the process-wide MCCS and VF2
	// embedding memos (GED distances are cached per engine at every
	// setting). Maintain and Query produce byte-identical state and
	// reports at every setting — the differential test suite enforces
	// it — so Workers is purely a wall-clock knob. State bundles record
	// it as 0; LoadState takes the width to restore at.
	Workers int
	// Seed makes every stochastic component reproducible.
	Seed int64
	// Strategy selects the swap strategy (default multi-scan).
	Strategy Strategy

	// AlphaDiv, AlphaCog and AlphaLcov optionally tighten the swap
	// guards (§6.2 "additional requirements by users"): a swap must
	// improve diversity by a factor (1+AlphaDiv), may relax cognitive
	// load by (1+AlphaCog), and must improve label coverage by
	// (1+AlphaLcov). Zeros reproduce the plain sw3–sw5 criteria.
	AlphaDiv, AlphaCog, AlphaLcov float64
}

func (o Options) toCore() core.Config {
	cfg := core.Config{
		Budget:     catapult.Budget{MinSize: o.Budget.MinSize, MaxSize: o.Budget.MaxSize, Count: o.Budget.Count},
		SupMin:     o.SupMin,
		Epsilon:    o.Epsilon,
		Kappa:      o.Kappa,
		Lambda:     o.Lambda,
		Walks:      o.Walks,
		SampleSize: o.SampleSize,
		Workers:    o.Workers,
		Seed:       o.Seed,
		Cluster:    cluster.Config{MaxSize: o.ClusterMaxSize},
	}
	cfg.AlphaDiv = o.AlphaDiv
	cfg.AlphaCog = o.AlphaCog
	cfg.AlphaLcov = o.AlphaLcov
	if o.Strategy == StrategyRandom {
		cfg.Strategy = core.RandomSwap
	}
	return cfg
}

// Quality reports the four pattern-set objectives of the CPM problem
// (Definition 3.1) plus the multiplicative set score.
type Quality struct {
	Scov float64 // subgraph coverage f_scov
	Lcov float64 // label coverage f_lcov
	Div  float64 // diversity f_div (minimum pairwise GED)
	Cog  float64 // cognitive load f_cog (maximum per-pattern)
}

// Score returns scov × lcov × div / cog.
func (q Quality) Score() float64 {
	return catapult.Quality{Scov: q.Scov, Lcov: q.Lcov, Div: q.Div, Cog: q.Cog}.Score()
}

func fromQuality(q catapult.Quality) Quality {
	return Quality{Scov: q.Scov, Lcov: q.Lcov, Div: q.Div, Cog: q.Cog}
}

// MaintenanceReport describes one Maintain invocation.
type MaintenanceReport struct {
	// GraphletDistance is dist(ψ_D, ψ_{D⊕ΔD}) (§3.4).
	GraphletDistance float64
	// Major reports whether the update was a Type-1 (major)
	// modification requiring pattern maintenance.
	Major bool
	// Swaps is the number of patterns replaced.
	Swaps int
	// Candidates is the number of promising candidate patterns
	// generated.
	Candidates int

	// Scans is the number of swap scans executed (multi-scan strategy).
	Scans int

	// PMT is the total pattern maintenance time.
	PMT time.Duration
	// PGT is the pattern generation time (candidates + swapping).
	PGT time.Duration
	// ClusterTime through SmallTime break down PMT by pipeline stage.
	ClusterTime   time.Duration
	FCTTime       time.Duration
	CSGTime       time.Duration
	IndexTime     time.Duration
	CandidateTime time.Duration
	SwapTime      time.Duration
	SmallTime     time.Duration

	// VF2Steps, MCCSSteps and GEDNodes are the kernel work burned by
	// this call (deltas of the process-wide iso/ged counters).
	VF2Steps  uint64
	MCCSSteps uint64
	GEDNodes  uint64
}

// StageTiming is one named stage of a maintenance breakdown.
type StageTiming struct {
	Name     string
	Duration time.Duration
}

// Stages returns the PMT breakdown in pipeline execution order. Stages
// that did not run (candidates/swap on a minor modification) report
// zero.
func (r MaintenanceReport) Stages() []StageTiming {
	return []StageTiming{
		{"cluster", r.ClusterTime},
		{"fct", r.FCTTime},
		{"csg", r.CSGTime},
		{"index", r.IndexTime},
		{"candidates", r.CandidateTime},
		{"swap", r.SwapTime},
		{"small", r.SmallTime},
	}
}

func fromReport(r core.Report) MaintenanceReport {
	return MaintenanceReport{
		GraphletDistance: r.GraphletDistance,
		Major:            r.Major,
		Swaps:            r.Swaps,
		Candidates:       r.Candidates,
		Scans:            r.Scans,
		PMT:              r.Total,
		PGT:              r.PGT(),
		ClusterTime:      r.ClusterTime,
		FCTTime:          r.FCTTime,
		CSGTime:          r.CSGTime,
		IndexTime:        r.IndexTime,
		CandidateTime:    r.CandidateTime,
		SwapTime:         r.SwapTime,
		SmallTime:        r.SmallTime,
		VF2Steps:         r.VF2Steps,
		MCCSSteps:        r.MCCSSteps,
		GEDNodes:         r.GEDNodes,
	}
}

// Engine owns a database and its maintained canned pattern set.
type Engine struct {
	inner *core.Engine
	// opts are the options the engine was built (New) or restored
	// (LoadState) with; SaveState records them in the bundle header.
	opts Options
	// decoded marks an engine LoadState decoded from a v3 bundle.
	decoded bool
}

// New bootstraps the full MIDAS stack over db (FCT mining, clustering,
// summaries, indices) and selects the initial pattern set. The engine
// takes ownership of db: later Maintain calls mutate it.
func New(db *graph.Database, opts Options) *Engine {
	return &Engine{inner: core.NewEngine(db, opts.toCore()), opts: opts}
}

// Patterns returns the current canned pattern set. Pattern graphs are
// owned by the engine and must not be mutated.
func (e *Engine) Patterns() []*graph.Graph { return e.inner.Patterns() }

// SetTelemetry attaches the engine to a telemetry registry: every
// Maintain call records its per-stage timings, outcome, and swap and
// candidate counts, and the pattern/database sizes are exported as
// gauges. Pass telemetry.Nop (or nil) to detach.
func (e *Engine) SetTelemetry(reg *telemetry.Registry) { e.inner.SetTelemetry(reg) }

// DB returns the engine's current database.
func (e *Engine) DB() *graph.Database { return e.inner.DB() }

// Maintain applies the batch update ΔD (deletions then insertions) and
// maintains the pattern set per Algorithm 1.
func (e *Engine) Maintain(u graph.Update) (MaintenanceReport, error) {
	rep, err := e.inner.Maintain(u)
	return fromReport(rep), err
}

// MaintainContext is Maintain with cancellation: when ctx expires the
// pipeline stops at the next stage boundary (or inside its long loops),
// the pre-batch state is restored, and ctx.Err() is returned. Maintain
// is transactional either way — any error rolls the engine back.
func (e *Engine) MaintainContext(ctx context.Context, u graph.Update) (MaintenanceReport, error) {
	rep, err := e.inner.MaintainContext(ctx, u)
	return fromReport(rep), err
}

// PatternState is the part of an engine's state that pattern
// maintenance decides: the canned pattern set, σ (Lemma 6.3) and the
// pattern-ID allocator. A replication primary ships it with every
// batch.
type PatternState = core.PatternState

// PatternState returns a copy of the engine's pattern state.
func (e *Engine) PatternState() PatternState { return e.inner.PatternState() }

// ApplyReplicated applies a batch whose pattern maintenance already
// ran on a replication primary: the database delta and structural
// upkeep are applied locally, and the primary's post-apply pattern
// state is installed verbatim instead of re-running the swap stage.
// Afterwards SaveState writes the bytes the primary's engine writes.
// Transactional like MaintainContext: any error rolls the engine back.
func (e *Engine) ApplyReplicated(ctx context.Context, u graph.Update, ps PatternState) (MaintenanceReport, error) {
	rep, err := e.inner.ApplyReplicated(ctx, u, ps)
	return fromReport(rep), err
}

// ValidateShape checks a batch update's internal consistency — nil or
// negatively-numbered graphs, duplicate insert or delete IDs — without
// consulting any database. Serving layers use it to reject malformed
// input before ID remapping; Maintain performs the full check
// (including database conflicts) again regardless.
func ValidateShape(u graph.Update) error { return core.ValidateShape(u) }

// Quality evaluates the current pattern set against the current
// database.
func (e *Engine) Quality() Quality { return fromQuality(e.inner.Quality()) }

// SetQueryLogWeight installs a query-log usage weight for swap scoring:
// when the interface has access to a query log, patterns matched often
// by logged queries resist eviction and log-popular candidates swap in
// sooner (the extension sketched in §3.5). fn must return a positive
// multiplier (1 = neutral); pass nil to remove.
func (e *Engine) SetQueryLogWeight(fn func(p *graph.Graph) float64) {
	e.inner.SetQueryLogWeight(fn)
}

// PanelView is a coherent export of everything a serving layer needs to
// answer panel reads: the pattern set, its per-pattern statistics, the
// set-level quality, the database size, and a query engine over an
// isolated copy of the search structures. Once exported, the view is
// detached from the engine — later Maintain calls never mutate it — so
// a serving layer can publish it to concurrent readers and keep serving
// it while the next batch runs. Pattern graphs are shared with the
// engine and must not be mutated (the engine never structurally mutates
// stored graphs either, so sharing is safe).
type PanelView struct {
	Patterns []*graph.Graph
	Stats    []PatternStat
	Quality  Quality
	DBLen    int
	Searcher *Searcher
}

// ExportView captures a PanelView of the engine's current state. Like
// Maintain, it belongs to the maintenance side of the engine:
// call it only while no Maintain is in flight (e.g. from the
// maintenance goroutine right after a batch commits, or at startup
// before serving begins). The returned view is then safe for any number
// of concurrent readers.
func (e *Engine) ExportView() PanelView {
	return PanelView{
		Patterns: e.Patterns(),
		Stats:    e.PatternStats(),
		Quality:  e.Quality(),
		DBLen:    e.DB().Len(),
		Searcher: e.SearcherSnapshot(),
	}
}

// EvaluatePatterns evaluates an arbitrary pattern set against the
// engine's current database — e.g. a stale set for a no-maintenance
// comparison.
func (e *Engine) EvaluatePatterns(ps []*graph.Graph) Quality {
	return fromQuality(e.inner.Metrics().Evaluate(ps))
}

// PatternStat describes one displayed pattern, for panel UIs.
type PatternStat struct {
	ID       int
	Vertices int
	Edges    int
	// Scov is the pattern's subgraph coverage over the current database.
	Scov float64
	// Cog is the pattern's cognitive load.
	Cog float64
}

// PatternStats returns per-pattern statistics over the current database,
// in panel order.
func (e *Engine) PatternStats() []PatternStat {
	m := e.inner.Metrics()
	ps := e.inner.Patterns()
	out := make([]PatternStat, len(ps))
	for i, p := range ps {
		out[i] = PatternStat{
			ID:       p.ID,
			Vertices: p.Order(),
			Edges:    p.Size(),
			Scov:     m.Scov(p),
			Cog:      p.CognitiveLoad(),
		}
	}
	return out
}

// BootstrapTime reports how long the initial selection took, or for a
// restored engine how long LoadState took to decode or rebuild it.
func (e *Engine) BootstrapTime() time.Duration { return e.inner.BootstrapTime }

// Decoded reports whether LoadState decoded the engine's maintained
// structures from a v3 bundle, rather than re-deriving them from the
// database (v1 and v2 bundles, and engines built by New).
func (e *Engine) Decoded() bool { return e.decoded }

// LastReport returns the report of the most recent Maintain call.
func (e *Engine) LastReport() MaintenanceReport {
	return fromReport(e.inner.LastReport)
}

// Baseline identifies a from-scratch selection pipeline.
type Baseline string

const (
	// BaselineCATAPULT uses frequent subtrees and no indices (the
	// original SIGMOD'19 pipeline).
	BaselineCATAPULT Baseline = "catapult"
	// BaselineCATAPULTPlus uses frequent closed trees and the MIDAS
	// indices (CATAPULT++, §3.3).
	BaselineCATAPULTPlus Baseline = "catapult++"
)

// SelectFromScratch runs a full selection pipeline over db and returns
// the chosen patterns with the wall-clock cost. It is the
// "maintenance-from-scratch" baseline of §7: rerun it on D⊕ΔD to
// compare against Engine.Maintain.
func SelectFromScratch(db *graph.Database, opts Options, b Baseline) ([]*graph.Graph, time.Duration) {
	cfg := opts.toCore()
	switch b {
	case BaselineCATAPULT:
		cfg.UseClosedFeatures = false
		cfg.UseIndices = false
	default:
		cfg.UseClosedFeatures = true
		cfg.UseIndices = true
	}
	e := core.NewEngineWith(db, cfg)
	return e.Patterns(), e.BootstrapTime
}

// Evaluator measures pattern-set quality against a fixed database
// without running selection — e.g. to score a stale pattern set on an
// evolved database (the NoMaintain comparison of §7.3).
type Evaluator struct {
	m *catapult.Metrics
}

// NewEvaluator mines the edge statistics of db and returns an
// evaluator. SupMin and SampleSize from opts are honoured; other
// options are ignored.
func NewEvaluator(db *graph.Database, opts Options) *Evaluator {
	cfg := opts.toCore()
	set := tree.Mine(db, cfg.SupMin, 1) // edge postings suffice for lcov
	return &Evaluator{m: catapult.NewMetrics(db, set, nil, cfg.SampleSize, cfg.Seed)}
}

// Quality evaluates a pattern set.
func (ev *Evaluator) Quality(ps []*graph.Graph) Quality {
	return fromQuality(ev.m.Evaluate(ps))
}

// Scov returns the subgraph coverage of a single pattern.
func (ev *Evaluator) Scov(p *graph.Graph) float64 { return ev.m.Scov(p) }
