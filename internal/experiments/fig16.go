package experiments

import (
	"math/rand"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/cluster"
	"github.com/midas-graph/midas/internal/core"
	"github.com/midas-graph/midas/internal/csg"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/gui"
	"github.com/midas-graph/midas/internal/stats"
	"github.com/midas-graph/midas/internal/tree"
)

// Fig16Row is one dataset-scale point.
type Fig16Row struct {
	DBSize int
	PMT    time.Duration
	PGT    time.Duration
	// ClusterMaintain is MIDAS's cluster+CSG maintenance; ClusterScratch
	// is building clusters and summaries from scratch on D⊕ΔD (the
	// paper's 2.3 min vs 25 h comparison).
	ClusterMaintain time.Duration
	ClusterScratch  time.Duration
	// ClusterMaintainWork and ClusterScratchWork are the kernel work of
	// the same two computations (core.KernelWork units).
	ClusterMaintainWork uint64
	ClusterScratchWork  uint64
	Quality             catapult.Quality
	// Mu compares formulation steps using this scale's maintained
	// pattern set against the smallest scale's set on this scale's own
	// workload (the paper's step_X vs step_200K; negative values mean
	// the larger-scale set needs fewer steps).
	Mu float64
}

// Fig16Result reproduces Figure 16 (Exp 4): scalability on the
// PubChem-like profile with a fixed-size batch addition, at dataset
// scales ×1, ×2.25, ×4.75 (the paper's 200K/450K/950K shape).
type Fig16Result struct {
	Rows []Fig16Row
}

// Fig16Scalability runs the sweep.
func Fig16Scalability(s Scale) Fig16Result {
	multipliers := []float64{1, 2.25, 4.75}
	prof := dataset.PubChemLike()
	var res Fig16Result
	var smallestPatterns []*graph.Graph
	for _, mult := range multipliers {
		n := int(float64(s.Base) * mult)
		db := prof.GenerateDB(n, s.Seed)
		cfg := s.config()
		eng := core.NewEngine(db, cfg)

		ins := dataset.BoronicEsters().Generate(s.Delta, db.NextID(), s.Seed+11)
		u := graph.Update{Insert: ins}
		rep, err := eng.Maintain(u)
		if err != nil {
			panic(err)
		}

		// From-scratch cluster generation on D⊕ΔD for the speedup
		// comparison (mining + clustering + summaries).
		after := mustCopy(eng.DB())
		t0, w0 := time.Now(), core.KernelWork()
		set := tree.Mine(after, 0.4, 3)
		cl := cluster.Build(after, set, cluster.Config{}, rand.New(rand.NewSource(s.Seed)))
		mgr := csg.NewManager(0)
		mgr.BuildAll(cl)
		scratch, scratchWork := time.Since(t0), core.KernelWork()-w0

		queries := dataset.BalancedQueries(eng.DB(), ins, s.Queries, 4, 12, s.Seed+13)
		sim := gui.NewSimulator(s.Gamma)
		mu := 0.0
		if smallestPatterns == nil {
			smallestPatterns = eng.Patterns()
		} else {
			var mus []float64
			for _, q := range queries {
				sSmall := float64(sim.PatternAtATime(q, smallestPatterns).Steps)
				sThis := float64(sim.PatternAtATime(q, eng.Patterns()).Steps)
				if sThis > 0 {
					// μ = (step_X − step_smallest)/step_X with X = this
					// scale; negative means this scale's set wins.
					mus = append(mus, gui.ReductionRatio(sThis, sSmall))
				}
			}
			mu = -stats.Mean(mus) // sign convention of the paper's Exp 4
		}

		res.Rows = append(res.Rows, Fig16Row{
			DBSize:              n,
			PMT:                 rep.Total,
			PGT:                 rep.PGT(),
			ClusterMaintain:     rep.ClusterTime + rep.CSGTime,
			ClusterScratch:      scratch,
			ClusterMaintainWork: rep.ClusterWork,
			ClusterScratchWork:  scratchWork,
			Quality:             eng.Quality(),
			Mu:                  mu,
		})
	}
	return res
}

// Table renders the sweep.
func (r Fig16Result) Table() *Table {
	t := &Table{
		Title: "Figure 16: scalability (PubChem-like, fixed-size batch addition)",
		Header: []string{"|D|", "PMT", "PGT", "cluster maint", "cluster scratch",
			"speedup", "scov", "lcov", "div", "cog", "mu"},
	}
	for _, row := range r.Rows {
		speedup := 0.0
		if row.ClusterMaintain > 0 {
			speedup = float64(row.ClusterScratch) / float64(row.ClusterMaintain)
		}
		t.Add(itoa(row.DBSize), ms(row.PMT), ms(row.PGT),
			ms(row.ClusterMaintain), ms(row.ClusterScratch), f2(speedup),
			f3(row.Quality.Scov), f3(row.Quality.Lcov),
			f2(row.Quality.Div), f2(row.Quality.Cog), f3(row.Mu))
	}
	return t
}
