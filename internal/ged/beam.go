package ged

import (
	"sort"

	"github.com/midas-graph/midas/graph"
)

// Beam computes a GED upper bound via beam search over the same vertex
// -assignment search tree as Exact, keeping only the `width` best
// partial mappings per level. Width 1 is a greedy assignment; growing
// widths trade time for tightness, converging to the exact value — the
// classic anytime variant of the A* formulation used alongside the
// bipartite approximation in the Riesen–Bunke family [32].
func Beam(a, b *graph.Graph, width int) float64 {
	kernelStats.beamCalls.Add(1)
	if width < 1 {
		width = 1
	}
	s := newSearch(a, b)
	level := []*gedNode{s.root()}
	for depth := 0; depth < s.na; depth++ {
		var next []*gedNode
		for _, p := range level {
			for _, c := range s.expand(p) {
				next = append(next, s.extend(p, c))
			}
		}
		// Keep the best `width` by g + admissible heuristic.
		sort.SliceStable(next, func(i, j int) bool { return next[i].f < next[j].f })
		if len(next) > width {
			next = next[:width]
		}
		level = next
	}
	best := -1.0
	for _, p := range level {
		if total := s.total(p); best < 0 || total < best {
			best = total
		}
	}
	return best
}
