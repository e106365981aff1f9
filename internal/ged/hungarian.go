// Package ged implements graph edit distance machinery: an exact A*
// search for small graphs, the bipartite (assignment-based) approximation
// of Riesen–Bunke [32] used by CATAPULT, the label-count lower bound
// GED_l, and the paper's tighter lower bound GED'_l (Lemma 6.1) that adds
// a relaxed-edge count derived from feature embeddings.
//
// All edit costs are uniform (1 per vertex/edge insertion, deletion or
// relabelling), the convention used by the paper's diversity measure.
package ged

import "math"

// Hungarian solves the square assignment problem: given an n×n cost
// matrix, it returns an assignment (row -> column) of minimum total cost
// and that cost. It runs the O(n³) Jonker-style shortest augmenting path
// variant of the Kuhn–Munkres algorithm.
func Hungarian(cost [][]float64) ([]int, float64) {
	n := len(cost)
	if n == 0 {
		return nil, 0
	}
	const inf = math.MaxFloat64
	// Potentials and matching, 1-based internally.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j] = row matched to column j
	way := make([]int, n+1)
	// Per-row scratch, reset in place for every row.
	minv := make([]float64, n+1)
	used := make([]bool, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}
	assign := make([]int, n)
	total := 0.0
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			assign[p[j]-1] = j - 1
			total += cost[p[j]-1][j-1]
		}
	}
	return assign, total
}
