package iso

import (
	"strconv"

	"github.com/midas-graph/midas/internal/parallel"

	"github.com/midas-graph/midas/graph"
)

// Process-wide memo caches for the expensive pairwise kernels. Keys are
// instance-exact (parallel.PairKey plus the step budget), so a hit
// returns precisely what a fresh search would compute — including
// budget-truncated lower bounds, whose values depend on the concrete
// vertex numbering. That makes cache reuse result-neutral: the
// sequential reference path and the parallel path emit byte-identical
// outputs whether a value was computed or replayed.
//
// The caches pay inside one long-lived engine: re-splitting a cluster
// re-scores the same pivot pairs (fine clustering's ω_MCCS), and
// rebuilding a summary re-aligns the same members against the same
// intermediate summaries (CSG integration). On the repository
// benchmark's drift stream a quarter of these lookups hit, and
// bypassing the memos made the stream 1.36× slower (EXPERIMENTS.md,
// "Kernel memos on the benchmark workloads").
//
// Results computed while a cancellation hook had already fired are
// never cached: a cancelled search stops at an arbitrary point, so its
// result is not the deterministic function of the inputs that the cache
// contract requires. (Hooks are monotonic — see package parallel.)
var (
	mccsMemo  = parallel.NewCache[MCCSResult]("iso_mccs", 1<<15)
	embedMemo = parallel.NewCache[[]int]("iso_embed", 1<<15)
)

// MCCSCached is MCCSWithCancel with process-wide memoization. The
// returned result shares slices with the cache; callers must not
// mutate it.
func MCCSCached(g1, g2 *graph.Graph, budget int, cancel func() bool) MCCSResult {
	key := parallel.PairKey(g1, g2) + "#" + strconv.Itoa(budget)
	if r, ok := mccsMemo.Get(key); ok {
		return r
	}
	r := MCCSWithCancel(g1, g2, budget, cancel)
	if cancel == nil || !cancel() {
		mccsMemo.Put(key, r)
	}
	return r
}

// MCCSSimilarityCached is MCCSSimilarityCancel backed by MCCSCached.
func MCCSSimilarityCached(g1, g2 *graph.Graph, budget int, cancel func() bool) float64 {
	minSize := g1.Size()
	if g2.Size() < minSize {
		minSize = g2.Size()
	}
	if minSize == 0 {
		return 0
	}
	return float64(MCCSCached(g1, g2, budget, cancel).Size()) / float64(minSize)
}

// FindEmbeddingCached is FindEmbedding with process-wide memoization,
// including negative results (nil mapping): a step-capped search that
// finds no embedding is still a deterministic function of the concrete
// pair and cap. The returned mapping is shared with the cache; callers
// must not mutate it.
func FindEmbeddingCached(pattern, target *graph.Graph, opts Options) []int {
	key := parallel.PairKey(pattern, target) + "#" + strconv.Itoa(opts.MaxSteps)
	if m, ok := embedMemo.Get(key); ok {
		return m
	}
	m := FindEmbedding(pattern, target, opts)
	if opts.Cancel == nil || !opts.Cancel() {
		embedMemo.Put(key, m)
	}
	return m
}
