// Package cluster implements CATAPULT's two-step small-graph clustering
// (paper §2.3) and MIDAS's incremental cluster maintenance (paper §4.3).
//
// Coarse clustering is k-means over FCT feature vectors with k-means++
// seeding (CATAPULT uses frequent subtrees; CATAPULT++/MIDAS replace them
// with frequent closed trees, §3.3). Coarse clusters exceeding the
// maximum cluster size N are refined by fine clustering, which groups
// graphs by maximum-connected-common-subgraph similarity ω_MCCS.
package cluster

import (
	"math"
	"math/rand"
	"sort"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/iso"
	"github.com/midas-graph/midas/internal/parallel"
	"github.com/midas-graph/midas/internal/tree"
)

// Cluster is one graph cluster C_i ⊆ D.
type Cluster struct {
	ID      int
	members map[int]*graph.Graph
	vecs    map[int][]float64 // member feature vectors
	sum     []float64         // running sum for centroid maintenance
}

func newCluster(id, dims int) *Cluster {
	return &Cluster{
		ID:      id,
		members: make(map[int]*graph.Graph),
		vecs:    make(map[int][]float64),
		sum:     make([]float64, dims),
	}
}

// Len returns |C_i|.
func (c *Cluster) Len() int { return len(c.members) }

// MemberIDs returns the sorted member graph IDs.
func (c *Cluster) MemberIDs() []int {
	ids := make([]int, 0, len(c.members))
	for id := range c.members {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Members returns the member graphs sorted by ID.
func (c *Cluster) Members() []*graph.Graph {
	ids := c.MemberIDs()
	out := make([]*graph.Graph, len(ids))
	for i, id := range ids {
		out[i] = c.members[id]
	}
	return out
}

// Member returns the member with the given graph ID, or nil.
func (c *Cluster) Member(id int) *graph.Graph { return c.members[id] }

// Has reports membership of a graph ID.
func (c *Cluster) Has(id int) bool {
	_, ok := c.members[id]
	return ok
}

// Centroid returns the mean feature vector; zero vector when empty.
func (c *Cluster) Centroid() []float64 {
	out := make([]float64, len(c.sum))
	if len(c.members) == 0 {
		return out
	}
	n := float64(len(c.members))
	for i, s := range c.sum {
		out[i] = s / n
	}
	return out
}

// Weight returns cw_i = |C_i| / |D| (Definition 2.1).
func (c *Cluster) Weight(dbSize int) float64 {
	if dbSize == 0 {
		return 0
	}
	return float64(len(c.members)) / float64(dbSize)
}

func (c *Cluster) add(g *graph.Graph, vec []float64) {
	if old, ok := c.vecs[g.ID]; ok {
		for i := range c.sum {
			c.sum[i] -= old[i]
		}
	}
	c.members[g.ID] = g
	c.vecs[g.ID] = vec
	for i := range c.sum {
		c.sum[i] += vec[i]
	}
}

func (c *Cluster) remove(id int) bool {
	vec, ok := c.vecs[id]
	if !ok {
		return false
	}
	for i := range c.sum {
		c.sum[i] -= vec[i]
	}
	delete(c.members, id)
	delete(c.vecs, id)
	return true
}

// Config controls clustering.
type Config struct {
	// K is the number of coarse clusters. Values below 1 default to
	// max(1, |D|/MaxSize).
	K int
	// MaxSize is the maximum cluster size N before fine clustering.
	MaxSize int
	// MaxIter bounds Lloyd iterations (default 25).
	MaxIter int
	// MCCSBudget bounds each MCCS search during fine clustering
	// (default 20000 steps).
	MCCSBudget int
	// Workers selects the execution mode of fine clustering: 0 is the
	// sequential reference path (plain loop, no memoization), >= 1 runs
	// the per-pivot ω_MCCS computations through the internal/parallel
	// pool with the process-wide MCCS memo cache. Results are identical
	// at every setting (ordered fan-in, instance-exact memo keys); only
	// wall-clock changes.
	Workers int
}

func (c Config) withDefaults(dbLen int) Config {
	if c.MaxSize < 1 {
		c.MaxSize = 50
	}
	if c.K < 1 {
		c.K = dbLen / c.MaxSize
		if c.K < 1 {
			c.K = 1
		}
	}
	if c.MaxIter < 1 {
		c.MaxIter = 25
	}
	if c.MCCSBudget < 1 {
		c.MCCSBudget = 20000
	}
	return c
}

// Clustering is the maintained set of clusters C = {C_1..C_k}.
type Clustering struct {
	cfg      Config
	keys     []string // feature dimensions (FCT canonical keys at build)
	clusters map[int]*Cluster
	owner    map[int]int // graph ID -> cluster ID
	nextID   int
	// cancel, when set, is polled by the MCCS kernel during fine
	// clustering so a cancelled maintenance call stops splitting
	// promptly.
	cancel func() bool
}

// SetCancel installs (or, with nil, removes) the cancellation hook used
// during fine clustering.
func (cl *Clustering) SetCancel(fn func() bool) { cl.cancel = fn }

// Build partitions database d using FCT feature vectors from the mined
// tree set (the CATAPULT++/MIDAS feature family). The random source
// drives k-means++ seeding; passing the same seed reproduces the
// clustering exactly.
func Build(d *graph.Database, set *tree.Set, cfg Config, rng *rand.Rand) *Clustering {
	return BuildWithKeys(d, set, set.FeatureKeys(), cfg, rng)
}

// BuildWithKeys partitions d using an explicit feature-key set — e.g.
// all frequent subtrees for the plain CATAPULT baseline (§2.3) instead
// of the closed ones.
func BuildWithKeys(d *graph.Database, set *tree.Set, keys []string, cfg Config, rng *rand.Rand) *Clustering {
	cfg = cfg.withDefaults(d.Len())
	cl := &Clustering{
		cfg:      cfg,
		keys:     keys,
		clusters: make(map[int]*Cluster),
		owner:    make(map[int]int),
	}
	graphs := d.Graphs()
	if len(graphs) == 0 {
		return cl
	}
	vecs := make([][]float64, len(graphs))
	for i, g := range graphs {
		vecs[i] = set.FeatureVector(keys, g.ID)
	}
	k := cfg.K
	if k > len(graphs) {
		k = len(graphs)
	}
	centroids := kmeansPP(vecs, k, rng)
	assign := lloyd(vecs, centroids, cfg.MaxIter)
	for ci := 0; ci < k; ci++ {
		c := newCluster(cl.nextID, len(keys))
		cl.nextID++
		cl.clusters[c.ID] = c
	}
	for i, g := range graphs {
		c := cl.clusters[assign[i]]
		c.add(g, vecs[i])
		cl.owner[g.ID] = c.ID
	}
	// Drop empty clusters from degenerate seeding.
	for id, c := range cl.clusters {
		if c.Len() == 0 {
			delete(cl.clusters, id)
		}
	}
	cl.RefineOversized()
	return cl
}

// kmeansPP picks k initial centroids with the k-means++ D² weighting.
func kmeansPP(vecs [][]float64, k int, rng *rand.Rand) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := rng.Intn(len(vecs))
	centroids = append(centroids, append([]float64(nil), vecs[first]...))
	d2 := make([]float64, len(vecs))
	for len(centroids) < k {
		total := 0.0
		for i, v := range vecs {
			best := math.MaxFloat64
			for _, c := range centroids {
				if d := sqDist(v, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		var pick int
		if total == 0 {
			pick = rng.Intn(len(vecs))
		} else {
			x := rng.Float64() * total
			for i, w := range d2 {
				x -= w
				if x <= 0 {
					pick = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), vecs[pick]...))
	}
	return centroids
}

// lloyd iterates assignment/update until stable or maxIter.
func lloyd(vecs, centroids [][]float64, maxIter int) []int {
	k := len(centroids)
	assign := make([]int, len(vecs))
	for i := range assign {
		assign[i] = -1
	}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, v := range vecs {
			best, bestD := 0, math.MaxFloat64
			for c := 0; c < k; c++ {
				if d := sqDist(v, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		counts := make([]int, k)
		for c := range centroids {
			for j := range centroids[c] {
				centroids[c][j] = 0
			}
		}
		for i, v := range vecs {
			c := assign[i]
			counts[c]++
			for j := range v {
				centroids[c][j] += v[j]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue
			}
			for j := range centroids[c] {
				centroids[c][j] /= float64(counts[c])
			}
		}
	}
	return assign
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Clusters returns the clusters sorted by ID.
func (cl *Clustering) Clusters() []*Cluster {
	ids := make([]int, 0, len(cl.clusters))
	for id := range cl.clusters {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*Cluster, len(ids))
	for i, id := range ids {
		out[i] = cl.clusters[id]
	}
	return out
}

// Cluster returns the cluster with the given ID, or nil.
func (cl *Clustering) Cluster(id int) *Cluster { return cl.clusters[id] }

// OwnerOf returns the cluster ID containing graph id, or -1.
func (cl *Clustering) OwnerOf(id int) int {
	if c, ok := cl.owner[id]; ok {
		return c
	}
	return -1
}

// Len returns the number of clusters.
func (cl *Clustering) Len() int { return len(cl.clusters) }

// Size returns the number of clustered graphs.
func (cl *Clustering) Size() int { return len(cl.owner) }

// Keys returns the feature dimensions used by this clustering.
func (cl *Clustering) Keys() []string { return cl.keys }

// Assign adds graph g to the cluster with the nearest centroid
// (Algorithm 1 line 1) and returns that cluster's ID. With no clusters
// yet, a fresh cluster is created.
func (cl *Clustering) Assign(g *graph.Graph, set *tree.Set) int {
	return cl.AssignWithVector(g, set.FeatureVectorOf(cl.keys, g))
}

// AssignWithVector is Assign with a precomputed feature vector (as
// returned by tree.Set.FeatureVectorOf over Keys()). The maintenance
// pipeline precomputes the vectors of a whole insertion batch in
// parallel — the vectors depend only on the pre-update tree set, so
// they are independent of assignment order — and then assigns
// sequentially, which keeps centroid evolution identical to the plain
// sequential loop.
func (cl *Clustering) AssignWithVector(g *graph.Graph, vec []float64) int {
	bestID, bestD := -1, math.MaxFloat64
	for _, c := range cl.Clusters() {
		if c.Len() == 0 {
			continue
		}
		if d := sqDist(vec, c.Centroid()); d < bestD {
			bestID, bestD = c.ID, d
		}
	}
	if bestID == -1 {
		c := newCluster(cl.nextID, len(cl.keys))
		cl.nextID++
		cl.clusters[c.ID] = c
		bestID = c.ID
	}
	cl.clusters[bestID].add(g, vec)
	cl.owner[g.ID] = bestID
	return bestID
}

// Remove deletes graph id from its cluster (Algorithm 1 line 2) and
// returns the affected cluster ID, or -1 if the graph was not clustered.
// Empty clusters are dropped.
func (cl *Clustering) Remove(id int) int {
	cid, ok := cl.owner[id]
	if !ok {
		return -1
	}
	c := cl.clusters[cid]
	c.remove(id)
	delete(cl.owner, id)
	if c.Len() == 0 {
		delete(cl.clusters, cid)
	}
	return cid
}

// RefineOversized runs fine clustering on every cluster exceeding
// MaxSize, replacing it with MCCS-similarity groups of at most MaxSize
// members (paper §2.3 fine clustering; §4.3 step 3). It returns the IDs
// of newly created clusters.
func (cl *Clustering) RefineOversized() []int {
	var created []int
	for _, c := range cl.Clusters() {
		if c.Len() <= cl.cfg.MaxSize {
			continue
		}
		groups := cl.fineSplit(c)
		// Replace c: first group keeps the ID, rest get fresh IDs.
		delete(cl.clusters, c.ID)
		for gi, grp := range groups {
			nc := newCluster(c.ID, len(cl.keys))
			if gi > 0 {
				nc.ID = cl.nextID
				cl.nextID++
				created = append(created, nc.ID)
			}
			for _, g := range grp {
				nc.add(g, c.vecs[g.ID])
				cl.owner[g.ID] = nc.ID
			}
			cl.clusters[nc.ID] = nc
		}
	}
	return created
}

// fineSplit greedily groups members by MCCS similarity: repeatedly take
// the smallest-ID ungrouped graph as pivot and attach the MaxSize-1
// ungrouped graphs most similar to it.
func (cl *Clustering) fineSplit(c *Cluster) [][]*graph.Graph {
	remaining := c.Members()
	var groups [][]*graph.Graph
	for len(remaining) > 0 {
		pivot := remaining[0]
		rest := remaining[1:]
		type scored struct {
			g   *graph.Graph
			sim float64
		}
		// The pairwise ω_MCCS column is embarrassingly parallel: each
		// task writes its own slot and the greedy grouping below reads
		// the slots in submission order (ordered fan-in), so the split
		// is identical at every worker count. Workers >= 1 additionally
		// routes through the process-wide MCCS memo cache; its keys are
		// instance-exact, so hits are result-neutral too.
		sim := iso.MCCSSimilarityCancel
		if cl.cfg.Workers >= 1 {
			sim = iso.MCCSSimilarityCached
		}
		// Graphs are slotted before the fan-out: a fired cancel hook
		// skips remaining similarity tasks, and the grouping below must
		// still see valid members (the cancelled call rolls back, but
		// only after this function returns).
		ss := make([]scored, len(rest))
		for i, g := range rest {
			ss[i].g = g
		}
		parallel.Do(cl.cfg.Workers, len(rest), cl.cancel, func(i int) {
			ss[i].sim = sim(pivot, rest[i], cl.cfg.MCCSBudget, cl.cancel)
		})
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].sim > ss[j].sim })
		take := cl.cfg.MaxSize - 1
		if take > len(ss) {
			take = len(ss)
		}
		group := []*graph.Graph{pivot}
		for i := 0; i < take; i++ {
			group = append(group, ss[i].g)
		}
		groups = append(groups, group)
		remaining = remaining[:0]
		for i := take; i < len(ss); i++ {
			remaining = append(remaining, ss[i].g)
		}
		sort.Slice(remaining, func(i, j int) bool { return remaining[i].ID < remaining[j].ID })
	}
	return groups
}

// MaxSize exposes the configured N.
func (cl *Clustering) MaxSize() int { return cl.cfg.MaxSize }

// Silhouette returns the mean silhouette coefficient of the clustering
// in feature space: for each member, (b−a)/max(a,b) with a the mean
// distance to its own cluster and b the smallest mean distance to
// another cluster. Values near 1 indicate tight, well-separated
// clusters; 0 means overlapping. Single-cluster (or empty) clusterings
// return 0 by convention. Quadratic in the clustered population — a
// diagnostic, not a hot path.
func (cl *Clustering) Silhouette() float64 {
	clusters := cl.Clusters()
	if len(clusters) < 2 {
		return 0
	}
	total, count := 0.0, 0
	for _, c := range clusters {
		for _, id := range c.MemberIDs() {
			v := c.vecs[id]
			a := meanDistTo(v, c, id)
			b := -1.0
			for _, other := range clusters {
				if other.ID == c.ID || other.Len() == 0 {
					continue
				}
				if d := meanDistTo(v, other, -1); b < 0 || d < b {
					b = d
				}
			}
			if b < 0 {
				continue
			}
			den := a
			if b > den {
				den = b
			}
			if den > 0 {
				total += (b - a) / den
			}
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// meanDistTo returns the mean Euclidean distance from v to the members
// of c, excluding member `skip` (pass -1 to include all). Singleton
// own-clusters yield 0. Members are visited in sorted-ID order: float
// addition is not associative, so summing in map order would make the
// silhouette differ in the low bits run to run.
func meanDistTo(v []float64, c *Cluster, skip int) float64 {
	sum, n := 0.0, 0
	for _, id := range c.MemberIDs() {
		if id == skip {
			continue
		}
		sum += euclid(v, c.vecs[id])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func euclid(a, b []float64) float64 {
	return math.Sqrt(sqDist(a, b))
}
