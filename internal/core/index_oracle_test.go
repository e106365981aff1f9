package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/midas-graph/midas/internal/faultinject"
	"github.com/midas-graph/midas/internal/index"
)

// checkIndexOracle is the from-scratch oracle of in-place index
// maintenance. It asserts that
//
//   - the maintained Indices are byte-identical to a fresh index.Build
//     over the engine's database with the current patterns registered;
//   - each pattern's Metrics.CoverSet equals a brute-force
//     index.Contains over every database graph, with no index filter
//     (scov by brute force);
//   - coverageStats equals exclusiveStats of those brute-force covers.
//
// The fixtures it runs on keep scov exact (no SampleSize).
func checkIndexOracle(t *testing.T, e *Engine, tag string) {
	t.Helper()
	oracle := index.Build(e.set, e.db, nil)
	for _, p := range e.patterns {
		oracle.RegisterPattern(p)
	}
	if got, want := e.ix.Fingerprint(), oracle.Fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("%s: maintained index diverged from from-scratch Build\ngot:\n%s\nwant:\n%s", tag, got, want)
	}

	truth := make([]map[int]struct{}, len(e.patterns))
	for i, p := range e.patterns {
		truth[i] = make(map[int]struct{})
		for _, g := range e.db.Graphs() {
			if index.Contains(p, g) {
				truth[i][g.ID] = struct{}{}
			}
		}
		if got := e.metrics.CoverSet(p); !reflect.DeepEqual(got, truth[i]) {
			t.Fatalf("%s: cover set of pattern %d diverged from brute force\ngot  %v\nwant %v", tag, p.ID, got, truth[i])
		}
	}

	wantExcl, wantUnion := exclusiveStats(truth)
	gotExcl, gotUnion := e.coverageStats()
	if !reflect.DeepEqual(gotExcl, wantExcl) {
		t.Fatalf("%s: exclusive counts diverged\ngot  %v\nwant %v", tag, gotExcl, wantExcl)
	}
	if !reflect.DeepEqual(gotUnion, wantUnion) {
		t.Fatalf("%s: union cover diverged\ngot  %v\nwant %v", tag, gotUnion, wantUnion)
	}
}

// runOracleTrace replays the differential trace at the given seed and
// worker count, checking the index oracle and the engine invariants
// after bootstrap and after every batch, and returns the outcome for
// cross-worker comparison.
func runOracleTrace(t *testing.T, seed int64, workers int) diffOutcome {
	t.Helper()
	cfg := testConfig()
	cfg.Seed = seed
	cfg.Epsilon = 0.01
	cfg.Workers = workers
	e := NewEngine(testDB(8, 8), cfg)
	checkIndexOracle(t, e, fmt.Sprintf("seed %d workers %d bootstrap", seed, workers))
	checkInvariants(t, e, 0)
	var out diffOutcome
	for bi, u := range diffTrace(seed) {
		rep, err := e.Maintain(u)
		if err != nil {
			t.Fatalf("seed %d workers %d batch %d: %v", seed, workers, bi, err)
		}
		checkIndexOracle(t, e, fmt.Sprintf("seed %d workers %d batch %d", seed, workers, bi))
		checkInvariants(t, e, bi+1)
		out.Fingerprints = append(out.Fingerprints, takeFingerprint(e))
		out.Distances = append(out.Distances, rep.GraphletDistance)
		out.Major = append(out.Major, rep.Major)
		out.Swaps = append(out.Swaps, rep.Swaps)
		out.Candidates = append(out.Candidates, rep.Candidates)
		out.Scans = append(out.Scans, rep.Scans)
	}
	return out
}

// TestIndexDifferentialOracle is the headline contract of in-place
// index maintenance: after bootstrap and every batch, the maintained
// index, cover sets and exclusive-coverage stats match a from-scratch
// rebuild and brute-force containment, across seeds × workers ∈
// {0,1,2,8}. The whole sweep runs twice in one process — the first
// pass starts with cold process-wide kernel memos, the second hits
// them warm — so memo state provably cannot leak into the maintained
// bytes.
func TestIndexDifferentialOracle(t *testing.T) {
	for _, pass := range []string{"cold", "warm"} {
		for _, seed := range []int64{1, 2, 3} {
			want := runOracleTrace(t, seed, 0)
			for _, w := range differentialWorkers {
				got := runOracleTrace(t, seed, w)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s pass, seed %d: workers=%d diverged from sequential reference\ngot  %+v\nwant %+v", pass, seed, w, got, want)
				}
			}
		}
	}
}

// TestIndexDifferentialAfterRollback arms the failpoints that fire
// after the index stage has run (the index stage and everything
// downstream). The restored engine must pass the index oracle — i.e.
// rollback must rewind the matrices along with everything else — and
// a retry must land exactly where a crash-free run does, oracle
// included.
func TestIndexDifferentialAfterRollback(t *testing.T) {
	for _, stage := range []string{"index", "candidates", "swap", "small"} {
		t.Run(stage, func(t *testing.T) {
			defer faultinject.Reset()
			e, u := rollbackFixture(t)
			before := takeFingerprint(e)
			faultinject.Enable("core.maintain." + stage)
			if _, err := e.Maintain(u); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("err = %v, want injected fault", err)
			}
			faultinject.Reset()
			if after := takeFingerprint(e); !reflect.DeepEqual(before, after) {
				t.Fatalf("rollback at %s left the engine mutated", stage)
			}
			checkIndexOracle(t, e, "restored at "+stage)
			if _, err := e.Maintain(u); err != nil {
				t.Fatal(err)
			}
			checkIndexOracle(t, e, "retry after "+stage)
		})
	}
}
