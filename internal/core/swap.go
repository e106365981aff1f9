package core

import (
	"math/rand"
	"sort"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/parallel"
	"github.com/midas-graph/midas/internal/stats"
)

// scored pairs a pattern graph with its MIDAS score s'_p.
type scored struct {
	p     *graph.Graph
	score float64
}

// multiScanSwap runs the multi-scan swap strategy of §6.2: candidates
// (by decreasing s'_p) are matched against existing patterns (by
// increasing s'_p); a swap happens only when sw1–sw5 hold and the
// pattern-size distribution stays KS-similar, which guarantees the
// progressive gain of Lemma 6.3. κ follows the SWAP_α schedule; λ
// stays fixed (the paper sets λ = κ's initial value).
//
// σ is the engine's, not the call's: it starts at 0.25 only in a fresh
// engine and carries over from one Maintain to the next, and across a
// restart (state bundles carry it).
// After its k-th update over the engine's life σ_k = (k+1)/(2k+4), so
// a batch's first scan uses the configured κ and each later scan
// κ = 1 − 2σ_k = 1/(k+2), which shrinks toward 0 as batches go by.
func (e *Engine) multiScanSwap(cands []*catapult.Candidate) (swaps, scans int) {
	kappa := e.cfg.Kappa
	for scans = 1; scans <= maxScans; scans++ {
		n := e.scanOnce(cands, kappa)
		swaps += n
		// Lemma 6.3: after a scan with κ_t, the approximation ratio is
		// bounded by σ_t = 0.25 / (1 - σ_{t-1}); once σ >= 0.5 further
		// scans cannot improve the bound. σ_k = (k+1)/(2k+4) stays
		// below 1/2, so this stop never fires: scans end on a fruitless
		// scan or at maxScans.
		if e.sigma >= 0.5 {
			break
		}
		e.sigma = 0.25 / (1 - e.sigma)
		kappa = 1 - 2*e.sigma
		if kappa < 0 {
			kappa = 0
		}
		if n == 0 {
			break // a fruitless scan stays fruitless: fixed inputs
		}
	}
	return swaps, scans
}

// scanOnce performs one pass of the swap loop with the given κ and
// returns the number of swaps performed.
func (e *Engine) scanOnce(cands []*catapult.Candidate, kappa float64) int {
	if len(cands) == 0 || len(e.patterns) == 0 {
		return 0
	}
	// PQ_Pc: candidates by decreasing s'_p (scored against the current
	// pattern set). Dedup runs sequentially (the seen-set is order
	// dependent); scoring fans out into per-candidate slots, and the
	// stable sort below reads them in submission order, so the queue is
	// identical at any worker count.
	queue := make([]scored, 0, len(cands))
	seen := make(map[string]struct{})
	for _, c := range cands {
		p := c.Pattern()
		sig := graph.Signature(p)
		if _, dup := seen[sig]; dup {
			continue
		}
		seen[sig] = struct{}{}
		queue = append(queue, scored{p: p})
	}
	parallel.Do(e.scoreWorkers(), len(queue), e.cancel, func(i int) {
		queue[i].score = e.swapScore(queue[i].p, e.patterns)
	})
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].score > queue[j].score })

	swaps := 0
	// PQ_P: the worst pattern only changes when a swap mutates the set.
	worstIdx := e.worstPatternIndex()
	for _, cand := range queue {
		if worstIdx < 0 {
			break
		}
		worst := e.patterns[worstIdx]
		rest := without(e.patterns, worstIdx)
		worstScore := e.swapScore(worst, rest)
		candScore := e.swapScore(cand.p, rest)

		// sw2 doubles as the termination test: once the best remaining
		// candidate is no longer sufficiently better than the worst
		// pattern, scanning stops.
		if candScore < (1+e.cfg.Lambda)*worstScore {
			break
		}
		if e.trySwap(worstIdx, cand.p, kappa) {
			swaps++
			worstIdx = e.worstPatternIndex()
		}
	}
	return swaps
}

// worstPatternIndex returns the index of the pattern with the lowest
// s'_p, or -1 for an empty set. Per-pattern scores fan out; the argmin
// runs sequentially in index order, so ties resolve exactly as in the
// plain loop.
func (e *Engine) worstPatternIndex() int {
	scores := parallel.Map(e.workers(), len(e.patterns), e.cancel, func(i int) float64 {
		return e.metrics.ScoreMIDAS(e.patterns[i], without(e.patterns, i))
	})
	best, idx := 0.0, -1
	for i, s := range scores {
		if idx == -1 || s < best {
			best, idx = s, i
		}
	}
	return idx
}

// scoreWorkers returns the fan-out width for swap-queue scoring: the
// query-log weight hook is caller-supplied and not required to be
// goroutine-safe, so its presence forces the inline path.
func (e *Engine) scoreWorkers() int {
	if e.logWeight != nil {
		return 0
	}
	return e.workers()
}

// trySwap checks sw1, sw3–sw5, the per-size cap, duplicate structure,
// and the size-distribution KS guard for replacing pattern at index i
// with candidate pc; on success the swap is applied (including index
// column maintenance).
func (e *Engine) trySwap(i int, pc *graph.Graph, kappa float64) bool {
	old := e.patterns[i]
	// Reject structural duplicates of any current pattern — including
	// the one being replaced: swapping a pattern for an isomorphic copy
	// is a no-op that would still count as progress.
	for _, p := range e.patterns {
		if graph.Signature(p) == graph.Signature(pc) {
			return false
		}
	}
	// Per-size cap of Definition 3.1.
	if e.sizeCountAfterSwap(i, pc) > e.cfg.Budget.PerSizeCap() {
		return false
	}
	// Size-distribution guard (two-sample KS).
	if !stats.KSSimilar(sizesOf(e.patterns), sizesOfAfterSwap(e.patterns, i, pc), ksAlpha) {
		return false
	}

	// sw1: benefit vs loss on set coverage.
	covers := e.coverSets()
	_, union := exclusiveStats(covers)
	unionWithout := unionExcept(covers, i)
	loss := len(union) - len(unionWithout) // S_L(p,P,D) numerator
	candCover := e.metrics.CoverSet(pc)
	gain := 0
	for id := range candCover {
		if _, ok := union[id]; !ok {
			gain++ // S_B(pc,P,D) numerator
		}
	}
	if float64(gain) < (1+kappa)*float64(loss) {
		return false
	}

	next := make([]*graph.Graph, len(e.patterns))
	copy(next, e.patterns)
	next[i] = pc

	// sw3: diversity must not degrade (tightened by AlphaDiv, §6.2).
	if e.metrics.SetDiv(next) < (1+e.cfg.AlphaDiv)*e.metrics.SetDiv(e.patterns) {
		return false
	}
	// sw4: cognitive load must not grow (slack AlphaCog).
	if catapult.SetCog(next) > (1+e.cfg.AlphaCog)*catapult.SetCog(e.patterns) {
		return false
	}
	// sw5: label coverage must not degrade (tightened by AlphaLcov).
	if e.metrics.SetLcov(next) < (1+e.cfg.AlphaLcov)*e.metrics.SetLcov(e.patterns) {
		return false
	}

	// Apply.
	pc.ID = e.nextPatternID
	e.nextPatternID++
	e.patterns[i] = pc
	if e.ix != nil {
		e.ix.UnregisterPattern(old.ID)
		e.ix.RegisterPattern(pc)
	}
	return true
}

// randomSwap is the "Random" baseline: each candidate replaces a random
// existing pattern with probability 1/2, with no quality guards beyond
// the per-size cap.
func (e *Engine) randomSwap(cands []*catapult.Candidate) int {
	if len(e.patterns) == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(e.cfg.Seed + int64(e.db.Len())))
	swaps := 0
	for _, c := range cands {
		if rng.Intn(2) == 0 {
			continue
		}
		i := rng.Intn(len(e.patterns))
		pc := c.Pattern()
		if e.sizeCountAfterSwap(i, pc) > e.cfg.Budget.PerSizeCap() {
			continue
		}
		old := e.patterns[i]
		pc.ID = e.nextPatternID
		e.nextPatternID++
		e.patterns[i] = pc
		if e.ix != nil {
			e.ix.UnregisterPattern(old.ID)
			e.ix.RegisterPattern(pc)
		}
		swaps++
	}
	return swaps
}

// sizeCountAfterSwap counts patterns of pc's size after replacing index
// i.
func (e *Engine) sizeCountAfterSwap(i int, pc *graph.Graph) int {
	n := 1 // pc itself
	for j, p := range e.patterns {
		if j != i && p.Size() == pc.Size() {
			n++
		}
	}
	return n
}

func without(ps []*graph.Graph, i int) []*graph.Graph {
	out := make([]*graph.Graph, 0, len(ps)-1)
	for j, p := range ps {
		if j != i {
			out = append(out, p)
		}
	}
	return out
}

func unionExcept(covers []map[int]struct{}, skip int) map[int]struct{} {
	out := make(map[int]struct{})
	for i, c := range covers {
		if i == skip {
			continue
		}
		for id := range c {
			out[id] = struct{}{}
		}
	}
	return out
}

func sizesOf(ps []*graph.Graph) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = float64(p.Size())
	}
	return out
}

func sizesOfAfterSwap(ps []*graph.Graph, i int, pc *graph.Graph) []float64 {
	out := sizesOf(ps)
	out[i] = float64(pc.Size())
	return out
}
