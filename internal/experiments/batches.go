package experiments

import (
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/gui"
	"github.com/midas-graph/midas/internal/stats"
)

// BatchSpec is one batch modification of §7.3: +Y% insertions and/or
// -Y% deletions relative to |D|.
type BatchSpec struct {
	Name   string
	AddPct int
	DelPct int
}

// DefaultBatches is the modification sweep used by Figures 13–15.
func DefaultBatches() []BatchSpec {
	return []BatchSpec{
		{"+5%", 5, 0},
		{"+10%", 10, 0},
		{"+20%", 20, 0},
		{"-5%", 0, 5},
		{"-10%", 0, 10},
		{"+10%/-5%", 10, 5},
	}
}

// makeBatchUpdate builds the update for a spec: insertions come from
// the boronic-ester family (the evolving-repository scenario of
// Example 1.2), deletions are random.
func makeBatchUpdate(spec BatchSpec, seed int64) func(d *graph.Database) graph.Update {
	return func(d *graph.Database) graph.Update {
		var u graph.Update
		if spec.AddPct > 0 {
			n := d.Len() * spec.AddPct / 100
			if n < 1 {
				n = 1
			}
			u.Insert = dataset.BoronicEsters().Generate(n, d.NextID(), seed)
		}
		if spec.DelPct > 0 {
			m := d.Len() * spec.DelPct / 100
			if m < 1 {
				m = 1
			}
			u.Delete = dataset.RandomDeletion(d, m, seed+1)
		}
		return u
	}
}

// ApproachOutcome aggregates one approach's results on one batch.
type ApproachOutcome struct {
	Time     time.Duration // maintenance cost (0 for NoMaintain)
	Work     uint64        // its kernel work (core.KernelWork units)
	MP       float64       // missed percentage over the workload
	AvgSteps float64       // average formulation steps
	Mu       float64       // reduction ratio vs MIDAS (positive: MIDAS better)
	Quality  catapult.Quality
}

// BatchComparison is one batch's full comparison.
type BatchComparison struct {
	Batch    string
	Outcomes map[Approach]ApproachOutcome
}

// runBatch builds the scenario for a batch spec and measures every
// approach on the balanced query workload.
func runBatch(base func(seed int64) *graph.Database, spec BatchSpec, s Scale) BatchComparison {
	sc := buildScenario(base, makeBatchUpdate(spec, s.Seed+hash32(spec.Name)), s)
	queries := dataset.BalancedQueries(sc.after, sc.inserted, s.Queries, 4, 12, s.Seed+7)

	sim := gui.NewSimulator(s.Gamma) // automated study: no edits
	stepsOf := func(ps []*graph.Graph) []float64 {
		out := make([]float64, len(queries))
		for i, q := range queries {
			out[i] = float64(sim.PatternAtATime(q, ps).Steps)
		}
		return out
	}

	perSteps := make(map[Approach][]float64, len(Approaches))
	for _, app := range Approaches {
		perSteps[app] = stepsOf(sc.patterns[app])
	}

	cmp := BatchComparison{Batch: spec.Name, Outcomes: make(map[Approach]ApproachOutcome)}
	for _, app := range Approaches {
		mu := 0.0
		if app != MIDAS {
			var mus []float64
			for i := range queries {
				if perSteps[app][i] > 0 {
					mus = append(mus, gui.ReductionRatio(perSteps[app][i], perSteps[MIDAS][i]))
				}
			}
			mu = stats.Mean(mus)
		}
		cmp.Outcomes[app] = ApproachOutcome{
			Time:     sc.cost[app],
			Work:     sc.work[app],
			MP:       gui.MP(queries, sc.patterns[app]),
			AvgSteps: stats.Mean(perSteps[app]),
			Mu:       mu,
			Quality:  sc.engine.Metrics().Evaluate(sc.patterns[app]),
		}
	}
	return cmp
}

// hash32 gives a small deterministic per-name seed offset.
func hash32(s string) int64 {
	var h int64 = 17
	for _, c := range s {
		h = h*31 + int64(c)
	}
	if h < 0 {
		h = -h
	}
	return h % 1000
}
