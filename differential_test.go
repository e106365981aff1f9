package midas

import (
	"bytes"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
)

// reportFacts are the report fields the Workers knob must not change
// (timings and kernel step counters are excluded: they measure wall
// clock and cache misses, which parallelism exists to change).
type reportFacts struct {
	Distance   float64
	Major      bool
	Swaps      int
	Candidates int
}

// runBundleTrace bootstraps an engine, replays a two-batch trace, and
// returns the saved state bundle plus the report facts per batch.
func runBundleTrace(t *testing.T, seed int64, workers int) ([]byte, []reportFacts) {
	t.Helper()
	opts := smallOptions()
	opts.Seed = seed
	opts.Epsilon = 0.01
	opts.Workers = workers
	db := dataset.PubChemLike().GenerateDB(24, seed)
	e := New(db, opts)
	var facts []reportFacts
	for bi, u := range []graph.Update{
		{Insert: dataset.BoronicEsters().Generate(12, 1000+int(seed)*100, seed+50), Delete: []int{0, 1}},
		{Delete: []int{2, 3}},
	} {
		rep, err := e.Maintain(u)
		if err != nil {
			t.Fatalf("seed %d workers %d batch %d: %v", seed, workers, bi, err)
		}
		facts = append(facts, reportFacts{
			Distance:   rep.GraphletDistance,
			Major:      rep.Major,
			Swaps:      rep.Swaps,
			Candidates: rep.Candidates,
		})
	}
	var buf bytes.Buffer
	if err := SaveState(&buf, e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), facts
}

// TestStateBundleByteIdenticalAcrossWorkers is the end-to-end
// determinism acceptance test: for every seed, a maintenance trace
// replayed at Workers 1, 2 and 8 must save a byte-identical state
// bundle — and report the same facts — as the sequential reference.
// Runs share one process, so later runs also start with the memo
// caches the earlier runs warmed; hits must be indistinguishable from
// fresh computation.
func TestStateBundleByteIdenticalAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		wantBundle, wantFacts := runBundleTrace(t, seed, 0)
		for _, w := range []int{1, 2, 8} {
			bundle, facts := runBundleTrace(t, seed, w)
			if !bytes.Equal(bundle, wantBundle) {
				t.Errorf("seed %d: workers=%d bundle differs from sequential reference (%d vs %d bytes)",
					seed, w, len(bundle), len(wantBundle))
			}
			for i := range facts {
				if facts[i] != wantFacts[i] {
					t.Errorf("seed %d: workers=%d batch %d report %+v, want %+v", seed, w, i, facts[i], wantFacts[i])
				}
			}
		}
	}
}
