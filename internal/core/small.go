package core

import (
	"sort"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/tree"
)

// Maintenance of patterns with η_min ≤ 2 (the paper focuses on
// η_min > 2 and delegates this case to its technical report as
// "straightforward", §3.1 remark). Patterns of one or two edges are
// exactly the frequent edges and frequent 2-edge trees the FCT set
// already maintains with exact posting lists, so the optimal small
// panel section is simply the top-supported such trees — no random
// walks or swap machinery needed. The small section owns its per-size
// quota; selection and swapping operate on sizes ≥ 3 with the
// remaining budget.

// smallQuota returns how many panel slots the direct small-pattern
// section occupies: the per-size cap for each size in
// [η_min, min(2, η_max)], bounded to half the budget so candidate
// patterns keep the majority of the panel.
func (e *Engine) smallQuota() int {
	if e.cfg.Budget.MinSize > 2 {
		return 0
	}
	cap := e.cfg.Budget.PerSizeCap()
	q := 0
	for size := e.cfg.Budget.MinSize; size <= 2 && size <= e.cfg.Budget.MaxSize; size++ {
		q += cap
	}
	if q > e.cfg.Budget.Count/2 {
		q = e.cfg.Budget.Count / 2
	}
	return q
}

// selectBudget is the budget handed to the selector: sizes ≥ 3, with
// the small section's slots subtracted.
func (e *Engine) selectBudget() catapult.Budget {
	b := e.cfg.Budget
	if q := e.smallQuota(); q > 0 {
		b.Count -= q
		if b.MinSize < 3 {
			b.MinSize = 3
		}
		if b.MaxSize < b.MinSize {
			b.MaxSize = b.MinSize
		}
	}
	return b
}

// refreshSmallPatterns rebuilds the small section from the maintained
// FCT set: for each small size, the top-supported frequent trees (ties
// broken by canonical key) fill that size's share of the quota. It
// runs at bootstrap and after every maintenance; supports come from
// posting lists, so the refresh costs microseconds.
func (e *Engine) refreshSmallPatterns() {
	quota := e.smallQuota()
	if quota == 0 {
		return
	}
	// Drop the current small section.
	var kept []*graph.Graph
	for _, p := range e.patterns {
		if p.Size() > 2 {
			kept = append(kept, p)
		} else if e.ix != nil {
			e.ix.UnregisterPattern(p.ID)
		}
	}
	e.patterns = kept
	// A swap may have replaced a small-section slot with a larger
	// candidate; the refill must respect the remaining room or the panel
	// would exceed γ.
	if room := e.cfg.Budget.Count - len(kept); quota > room {
		quota = room
	}
	if quota <= 0 {
		return
	}

	sizes := make([]int, 0, 2)
	for size := e.cfg.Budget.MinSize; size <= 2 && size <= e.cfg.Budget.MaxSize; size++ {
		sizes = append(sizes, size)
	}
	if len(sizes) == 0 {
		return
	}
	perSize := quota / len(sizes)
	if perSize < 1 {
		perSize = 1
	}
	added := 0
	for _, size := range sizes {
		for _, t := range topTreesOfSize(e.set, size, perSize) {
			if added >= quota {
				break
			}
			p := t.G.Clone()
			p.ID = e.nextPatternID
			e.nextPatternID++
			e.patterns = append(e.patterns, p)
			if e.ix != nil {
				e.ix.RegisterPattern(p)
			}
			added++
		}
	}
}

// topTreesOfSize returns up to k frequent trees with exactly `size`
// edges, by descending support then canonical key.
func topTreesOfSize(set *tree.Set, size, k int) []*tree.Tree {
	minCount := 1
	if n := set.DBSize(); n > 0 {
		c := int(set.SupMin * float64(n))
		if set.SupMin*float64(n) > float64(c) {
			c++
		}
		if c > minCount {
			minCount = c
		}
	}
	var frequent, relaxed []*tree.Tree
	for _, t := range set.Trees() {
		if t.Size() != size {
			continue
		}
		if t.SupportCount() >= minCount {
			frequent = append(frequent, t)
		} else {
			relaxed = append(relaxed, t)
		}
	}
	bySupport := func(ts []*tree.Tree) {
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].SupportCount() != ts[j].SupportCount() {
				return ts[i].SupportCount() > ts[j].SupportCount()
			}
			return ts[i].Key < ts[j].Key
		})
	}
	bySupport(frequent)
	bySupport(relaxed)
	// Prefer frequent trees; backfill from the relaxed-threshold pool so
	// the panel section stays full when supports dip after an update.
	all := append(frequent, relaxed...)
	if len(all) > k {
		all = all[:k]
	}
	return all
}
