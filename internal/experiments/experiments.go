// Package experiments reproduces the performance study of §7: one
// driver per figure, each producing the same rows/series the paper
// reports. Dataset scale is configurable; the shapes (who wins, by
// roughly what factor, where the crossovers fall) are the reproduction
// target, not the absolute numbers, since the substrate here is the
// synthetic dataset generator of internal/dataset rather than the
// authors' chemical repositories (see DESIGN.md §2).
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/cluster"
	"github.com/midas-graph/midas/internal/core"
	"github.com/midas-graph/midas/internal/dataset"
)

// Scale sizes an experiment run.
type Scale struct {
	// Base is |D|, Delta the default |Δ+|.
	Base, Delta int
	// Queries is the automated query-workload size (the paper uses
	// 1000).
	Queries int
	// Users is the simulated-participant count (the paper uses 25).
	Users int
	// Gamma, MinSize, MaxSize form the pattern budget.
	Gamma, MinSize, MaxSize int
	// Walks controls candidate generation effort.
	Walks int
	// SampleSize caps scov computation (lazy sampling).
	SampleSize int
	// ClusterMaxSize is the fine-clustering threshold N; small enough
	// that the database spreads over many clusters and maintenance only
	// touches the affected ones (the paper's regime).
	ClusterMaxSize int
	// Seed drives everything.
	Seed int64
}

// Tiny is for unit tests.
func Tiny() Scale {
	return Scale{Base: 40, Delta: 16, Queries: 20, Users: 4,
		Gamma: 6, MinSize: 2, MaxSize: 4, Walks: 30, SampleSize: 40,
		ClusterMaxSize: 10, Seed: 1}
}

// Small finishes each figure in seconds; the default for benches.
func Small() Scale {
	return Scale{Base: 100, Delta: 30, Queries: 60, Users: 10,
		Gamma: 10, MinSize: 3, MaxSize: 6, Walks: 40, SampleSize: 80,
		ClusterMaxSize: 14, Seed: 1}
}

// Default approximates the paper's parameter shape (γ=30, sizes 3–12)
// at laptop scale.
func Default() Scale {
	return Scale{Base: 300, Delta: 90, Queries: 200, Users: 25,
		Gamma: 30, MinSize: 3, MaxSize: 12, Walks: 60, SampleSize: 150,
		ClusterMaxSize: 20, Seed: 1}
}

func (s Scale) budget() catapult.Budget {
	return catapult.Budget{MinSize: s.MinSize, MaxSize: s.MaxSize, Count: s.Gamma}
}

func (s Scale) config() core.Config {
	return core.Config{
		Budget: s.budget(),
		SupMin: 0.4,
		// ε is calibrated to the synthetic generator: its topological
		// drift under a new-family insertion is milder than real
		// chemistry's, so the paper's 0.1 scales down to 0.01 (the
		// major/minor separation is preserved — see EXPERIMENTS.md).
		Epsilon:    0.01,
		Kappa:      0.1,
		Lambda:     0.1,
		Walks:      s.Walks,
		SampleSize: s.SampleSize,
		Seed:       s.Seed,
		Cluster:    cluster.Config{MaxSize: s.ClusterMaxSize},
	}
}

// Approach names the compared systems, matching §7.1's baselines.
type Approach string

const (
	MIDAS      Approach = "MIDAS"
	CATAPULT   Approach = "CATAPULT"
	CATAPULTPP Approach = "CATAPULT++"
	Random     Approach = "Random"
	NoMaintain Approach = "NoMaintain"
)

// Approaches lists the comparison order used in tables.
var Approaches = []Approach{MIDAS, CATAPULT, CATAPULTPP, Random, NoMaintain}

// scenario holds one evolved-database comparison: every approach's
// pattern set over D⊕ΔD plus the maintenance costs.
type scenario struct {
	scale    Scale
	before   *graph.Database // D (still owned by the MIDAS engine!)
	after    *graph.Database // D⊕ΔD (fresh copies for baselines)
	inserted []*graph.Graph
	patterns map[Approach][]*graph.Graph
	cost     map[Approach]time.Duration
	// work is each approach's kernel work (core.KernelWork units), the
	// machine-independent twin of cost.
	work   map[Approach]uint64
	engine *core.Engine // the maintained MIDAS engine
	report core.Report
}

// buildScenario bootstraps on `base`, applies the update, and produces
// every approach's pattern set.
//
// The from-scratch baselines (CATAPULT, CATAPULT++) rebuild their whole
// stack on D⊕ΔD; NoMaintain keeps the initial pattern set; Random is a
// second engine maintained with random swapping.
func buildScenario(base func(seed int64) *graph.Database, makeUpdate func(d *graph.Database) graph.Update, s Scale) *scenario {
	cfg := s.config()

	// MIDAS engine over its own copy.
	dbM := base(s.Seed)
	eng := core.NewEngine(dbM, cfg)
	initial := eng.Patterns()

	u := makeUpdate(dbM)
	// The baselines need D⊕ΔD copies before the engine mutates shared
	// graphs (graphs are shared but never mutated, so shallow copies
	// are fine).
	dbAfter, err := base(s.Seed).ApplyToCopy(u)
	if err != nil {
		panic(err)
	}

	sc := &scenario{
		scale:    s,
		after:    dbAfter,
		inserted: u.Insert,
		patterns: make(map[Approach][]*graph.Graph),
		cost:     make(map[Approach]time.Duration),
		work:     make(map[Approach]uint64),
	}

	rep, err := eng.Maintain(u)
	if err != nil {
		panic(err)
	}
	sc.engine = eng
	sc.report = rep
	sc.patterns[MIDAS] = eng.Patterns()
	sc.cost[MIDAS] = rep.Total
	sc.work[MIDAS] = rep.Work()
	sc.patterns[NoMaintain] = initial
	sc.cost[NoMaintain] = 0

	// Random swapping engine.
	cfgR := cfg
	cfgR.Strategy = core.RandomSwap
	engR := core.NewEngine(base(s.Seed), cfgR)
	repR, err := engR.Maintain(cloneUpdate(u))
	if err != nil {
		panic(err)
	}
	sc.patterns[Random] = engR.Patterns()
	sc.cost[Random] = repR.Total
	sc.work[Random] = repR.Work()

	// From-scratch baselines on D⊕ΔD.
	cfgC := cfg
	cfgC.UseClosedFeatures = false
	cfgC.UseIndices = false
	w0 := core.KernelWork()
	engC := core.NewEngineWith(mustCopy(dbAfter), cfgC)
	sc.patterns[CATAPULT] = engC.Patterns()
	sc.cost[CATAPULT] = engC.BootstrapTime
	sc.work[CATAPULT] = core.KernelWork() - w0

	cfgP := cfg
	cfgP.UseClosedFeatures = true
	cfgP.UseIndices = true
	w0 = core.KernelWork()
	engP := core.NewEngineWith(mustCopy(dbAfter), cfgP)
	sc.patterns[CATAPULTPP] = engP.Patterns()
	sc.cost[CATAPULTPP] = engP.BootstrapTime
	sc.work[CATAPULTPP] = core.KernelWork() - w0

	return sc
}

// cloneUpdate deep-copies inserted graphs so two engines never share
// mutable state.
func cloneUpdate(u graph.Update) graph.Update {
	out := graph.Update{Delete: append([]int(nil), u.Delete...)}
	for _, g := range u.Insert {
		out.Insert = append(out.Insert, g.Clone())
	}
	return out
}

func mustCopy(d *graph.Database) *graph.Database {
	c := graph.NewDatabase()
	for _, g := range d.Graphs() {
		if err := c.Add(g); err != nil {
			panic(err)
		}
	}
	return c
}

// Table renders rows with a header, right-aligned numeric columns.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint writes the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (header row first, fields
// quoted when needed) for plotting pipelines.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Header)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// pubchemBase returns a PubChem-like database builder.
func pubchemBase(n int) func(seed int64) *graph.Database {
	return func(seed int64) *graph.Database {
		return dataset.PubChemLike().GenerateDB(n, seed)
	}
}

// aidsBase returns an AIDS-like database builder.
func aidsBase(n int) func(seed int64) *graph.Database {
	return func(seed int64) *graph.Database {
		return dataset.AIDSLike().GenerateDB(n, seed)
	}
}

// boronInsert builds the "new compound family" Δ+ of Example 1.2.
func boronInsert(n int, seed int64) func(d *graph.Database) graph.Update {
	return func(d *graph.Database) graph.Update {
		return graph.Update{Insert: dataset.BoronicEsters().Generate(n, d.NextID(), seed)}
	}
}
