package midas

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/faultinject"
)

// restoreStages lists the maintenance failpoints in pipeline order;
// candidates and swap are reached by major batches only.
var restoreStages = []string{
	"validated", "cluster", "apply", "fct", "csg",
	"index", "candidates", "swap", "small",
}

func saveBundle(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveState(&buf, e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreExact loads bundle, requires the decode path, and requires the
// restored engine to save the same bytes back.
func restoreExact(t *testing.T, bundle []byte, workers int) *Engine {
	t.Helper()
	r, err := LoadState(bytes.NewReader(bundle), workers)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Decoded() {
		t.Fatal("a v3 bundle was rebuilt, not decoded")
	}
	if again := saveBundle(t, r); !bytes.Equal(again, bundle) {
		t.Fatalf("restore round trip changed the bundle (%d vs %d bytes)", len(again), len(bundle))
	}
	return r
}

// cloneUpdate deep-copies u's graphs, so two engines never share them.
func cloneUpdate(u graph.Update) graph.Update {
	out := graph.Update{Delete: append([]int(nil), u.Delete...)}
	for _, g := range u.Insert {
		out.Insert = append(out.Insert, g.Clone())
	}
	return out
}

// randomUpdate draws a batch over d: a few graphs of a random profile
// inserted and a few random graphs deleted (either may be empty).
func randomUpdate(rng *rand.Rand, d *graph.Database) graph.Update {
	profiles := []dataset.Profile{dataset.AIDSLike(), dataset.BoronicEsters(), dataset.PubChemLike(), dataset.EMolLike()}
	var u graph.Update
	if n := rng.Intn(7); n > 0 {
		u.Insert = profiles[rng.Intn(len(profiles))].Generate(n, d.NextID(), rng.Int63())
	}
	ids := d.IDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	u.Delete = ids[:rng.Intn(min(4, len(ids))+1)]
	if len(u.Insert) == 0 && len(u.Delete) == 0 {
		u.Delete = ids[:1]
	}
	return u
}

// remapColliding renumbers u's inserts whose IDs d already holds from
// d's allocator, as the serving pipeline does before it applies a
// batch.
func remapColliding(u graph.Update, d *graph.Database) graph.Update {
	next := d.NextID()
	for _, g := range u.Insert {
		if d.Has(g.ID) {
			g.ID = next
			next++
		}
	}
	return u
}

// rollBackAtEveryStage makes e fail u once at every failpoint u
// reaches (only major batches reach candidates and swap), rolling it
// back each time, and calls check after each rollback.
func rollBackAtEveryStage(t *testing.T, e *Engine, u graph.Update, major bool, check func(stage string)) {
	t.Helper()
	for _, stage := range restoreStages {
		if !major && (stage == "candidates" || stage == "swap") {
			continue
		}
		faultinject.Enable("core.maintain." + stage)
		_, err := e.Maintain(cloneUpdate(u))
		faultinject.Reset()
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("stage %s: err = %v, want injected fault", stage, err)
		}
		check(stage)
	}
}

// TestRestoreIsTransparent is the exact-restore oracle. Random update
// sequences run over small databases from the dataset profiles. At
// every batch boundary the engine is saved and restored, and the
// restored copy takes the batch the original takes; the two must
// report the same facts and then save byte-identical bundles. Before
// taking the batch, the original rolls it back once at every failpoint
// the batch reaches, so the comparison also holds for an engine that
// has just rolled back. The trace ends with the graph-ID allocator's
// case: the highest ID is deleted, the engine restarts, and graphs
// whose IDs collide are renumbered from each engine's allocator, which
// must also survive the original's rollbacks. Runs at Workers 0 and 2.
func TestRestoreIsTransparent(t *testing.T) {
	for _, workers := range []int{0, 2} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("workers%d/seed%d", workers, seed), func(t *testing.T) {
				defer faultinject.Reset()
				opts := smallOptions()
				opts.Seed = seed
				opts.Epsilon = 0.01
				opts.Workers = workers
				opts.ClusterMaxSize = 8
				e := New(dataset.PubChemLike().GenerateDB(24, seed), opts)
				rng := rand.New(rand.NewSource(seed))
				majors := 0
				for bi := 0; bi < 12; bi++ {
					u := randomUpdate(rng, e.DB())
					before := saveBundle(t, e)
					r := restoreExact(t, before, workers)
					rr, err := r.Maintain(cloneUpdate(u))
					if err != nil {
						t.Fatalf("batch %d: restored engine: %v", bi, err)
					}
					rollBackAtEveryStage(t, e, u, rr.Major, func(stage string) {
						if got := saveBundle(t, e); !bytes.Equal(got, before) {
							t.Fatalf("batch %d: rollback at %s changed the bundle", bi, stage)
						}
					})
					re, err := e.Maintain(cloneUpdate(u))
					if err != nil {
						t.Fatalf("batch %d: %v", bi, err)
					}
					if got, want := factsOf(rr), factsOf(re); got != want {
						t.Fatalf("batch %d: restored engine reported %+v, original %+v", bi, got, want)
					}
					if got, want := saveBundle(t, r), saveBundle(t, e); !bytes.Equal(got, want) {
						t.Fatalf("batch %d: restored engine saved a different bundle (%d vs %d bytes)", bi, len(got), len(want))
					}
					if re.Major {
						majors++
					}
				}
				if majors == 0 {
					t.Fatal("the trace has no major batch; swaps went untested")
				}

				ids := e.DB().IDs()
				if _, err := e.Maintain(graph.Update{Delete: ids[len(ids)-1:]}); err != nil {
					t.Fatal(err)
				}
				next := e.DB().NextID()
				r := restoreExact(t, saveBundle(t, e), workers)
				ins := dataset.AIDSLike().Generate(3, 0, seed)
				for i, g := range ins {
					g.ID = ids[i]
				}
				u := graph.Update{Insert: ins}
				rr, err := r.Maintain(remapColliding(cloneUpdate(u), r.DB()))
				if err != nil {
					t.Fatal(err)
				}
				rollBackAtEveryStage(t, e, remapColliding(cloneUpdate(u), e.DB()), rr.Major, func(stage string) {
					if got := e.DB().NextID(); got != next {
						t.Fatalf("rollback at %s moved the graph-ID allocator from %d to %d", stage, next, got)
					}
				})
				re, err := e.Maintain(remapColliding(cloneUpdate(u), e.DB()))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := factsOf(rr), factsOf(re); got != want {
					t.Fatalf("colliding inserts after a restart: restored engine reported %+v, original %+v", got, want)
				}
				if got, want := r.DB().IDs(), e.DB().IDs(); !slices.Equal(got, want) {
					t.Fatalf("colliding inserts after a restart: restored engine holds IDs %v, original %v", got, want)
				}
				if got, want := saveBundle(t, r), saveBundle(t, e); !bytes.Equal(got, want) {
					t.Fatalf("colliding inserts after a restart: restored engine saved a different bundle")
				}
			})
		}
	}
}

func factsOf(rep MaintenanceReport) reportFacts {
	return reportFacts{Distance: rep.GraphletDistance, Major: rep.Major, Swaps: rep.Swaps, Candidates: rep.Candidates}
}

// TestRestoreIsTransparentAfterMajorBatch is the drift-shaped case: a
// family-rotating stream over an AIDS-like base, restarted after its
// first major batch. The next batch must swap the same patterns as the
// engine that never stopped and leave the same bundle. Re-deriving the
// clusters and summaries on restore, instead of decoding them, makes
// the restarted engine swap differently here.
func TestRestoreIsTransparentAfterMajorBatch(t *testing.T) {
	opts := Options{
		Budget:  Budget{MinSize: 3, MaxSize: 6, Count: 10},
		SupMin:  0.4,
		Epsilon: 0.01,
		Seed:    1,
	}
	families := []dataset.Profile{dataset.BoronicEsters(), dataset.PubChemLike(), dataset.EMolLike()}
	batch := func(b int, prev []int) graph.Update {
		return graph.Update{Insert: families[b%len(families)].Generate(12, 10000*(b+1), int64(100+b)), Delete: prev}
	}
	ids := func(gs []*graph.Graph) []int {
		var out []int
		for _, g := range gs {
			out = append(out, g.ID)
		}
		return out
	}
	e := New(dataset.AIDSLike().GenerateDB(60, 7), opts)
	first := batch(0, nil)
	rep, err := e.Maintain(cloneUpdate(first))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Major {
		t.Fatal("the first batch must be major")
	}
	r, err := LoadState(bytes.NewReader(saveBundle(t, e)), 0)
	if err != nil {
		t.Fatal(err)
	}
	next := batch(1, ids(first.Insert))
	want, err := e.Maintain(cloneUpdate(next))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Maintain(cloneUpdate(next))
	if err != nil {
		t.Fatal(err)
	}
	if got.Swaps != want.Swaps || got.Candidates != want.Candidates {
		t.Fatalf("restarted engine: %d swaps from %d candidates; uninterrupted: %d from %d",
			got.Swaps, got.Candidates, want.Swaps, want.Candidates)
	}
	if a, b := saveBundle(t, r), saveBundle(t, e); !bytes.Equal(a, b) {
		t.Fatalf("restarted engine saved a different bundle after the next batch (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRestoreIsTransparentOnDriftTrace replays the benchmark's drift
// workload (seed 8) in process, with midas-serve's default options and
// a Quality evaluation after the bootstrap and after every batch, as a
// snapshot publish does. After batch 12 the engine is saved and
// restored; batch 13 must then leave both engines on the same bundle.
// Quality fills the distance cache that Div reads, so the original
// enters batch 13 with a warm cache and the restored engine with a
// cold one: the bundles match only if no cache hit changes a result.
func TestRestoreIsTransparentOnDriftTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 14 drift batches over 200 graphs")
	}
	const seed = 8
	opts := Options{Budget: Budget{MinSize: 3, MaxSize: 6, Count: 10}, SupMin: 0.4, Epsilon: 0.01, Seed: 1}
	e := New(graph.DatabaseOf(dataset.AIDSLike().Generate(200, 0, 20210620)...), opts)
	e.Quality()
	families := []dataset.Profile{dataset.BoronicEsters(), dataset.PubChemLike(), dataset.EMolLike()}
	batch := func(b int, prev []int) graph.Update {
		return graph.Update{
			Insert: families[b%len(families)].Generate(40, 10000*(b+1), seed*7919+int64(10+b)*104729),
			Delete: prev,
		}
	}
	var prev []int
	for b := 0; b <= 12; b++ {
		u := batch(b, prev)
		if _, err := e.Maintain(u); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		e.Quality()
		prev = prev[:0]
		for _, g := range u.Insert {
			prev = append(prev, g.ID)
		}
	}
	r := restoreExact(t, saveBundle(t, e), 0)
	u := batch(13, prev)
	re, err := e.Maintain(cloneUpdate(u))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := r.Maintain(cloneUpdate(u))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := factsOf(rr), factsOf(re); got != want {
		t.Fatalf("batch 13: restored engine reported %+v, original %+v", got, want)
	}
	if got, want := saveBundle(t, r), saveBundle(t, e); !bytes.Equal(got, want) {
		t.Fatalf("batch 13: restored engine saved a different bundle (%d vs %d bytes)", len(got), len(want))
	}
}
