package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/midas-graph/midas/graph"
)

// differentialWorkers are the pool widths the parallel kernels must be
// indistinguishable at. 0 is the sequential reference path (no memo
// caches); 1 exercises the pooled bookkeeping with a single worker; 2
// and 8 exercise real interleaving (8 deliberately exceeds the task
// counts of several fan-outs, covering the workers>n clamp).
var differentialWorkers = []int{1, 2, 8}

// diffOutcome is everything a Maintain trace is allowed to depend on:
// the full engine fingerprint after each batch plus the report fields
// that describe *what happened* (timings and kernel step counters are
// wall-clock/cache artifacts and legitimately vary with Workers).
type diffOutcome struct {
	Fingerprints []fingerprint
	Distances    []float64
	Major        []bool
	Swaps        []int
	Candidates   []int
	Scans        []int
}

// diffTrace is a three-batch maintenance trace: a major insert+delete
// batch, a minor follow-up, and a delete-heavy batch, so the
// differential covers the candidate/swap pipeline as well as the cheap
// Type-2 path and removal bookkeeping.
func diffTrace(seed int64) []graph.Update {
	return []graph.Update{
		{Insert: boronDelta(8, 100+int(seed)*1000), Delete: []int{0, 1}},
		{Insert: boronDelta(2, 200+int(seed)*1000)},
		{Delete: []int{2, 3, 4}},
	}
}

// runTrace bootstraps a fresh engine with the given seed and worker
// count, replays the trace with the engine invariants checked after
// bootstrap and every batch, and captures the outcome.
func runTrace(t *testing.T, seed int64, workers int) diffOutcome {
	t.Helper()
	cfg := testConfig()
	cfg.Seed = seed
	cfg.Epsilon = 0.01
	cfg.Workers = workers
	e := NewEngine(testDB(8, 8), cfg)
	checkInvariants(t, e, 0)
	var out diffOutcome
	for bi, u := range diffTrace(seed) {
		rep, err := e.Maintain(u)
		if err != nil {
			t.Fatalf("seed %d workers %d batch %d: %v", seed, workers, bi, err)
		}
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

// TestMaintainDifferentialAcrossWorkers is the core determinism
// contract of the parallel kernels: for any seed, every worker count
// replays a maintenance trace to exactly the state and report the
// sequential reference produces. Engines run back to back in one
// process, so the later runs also prove that warm process-wide memo
// caches cannot leak into results.
func TestMaintainDifferentialAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		want := runTrace(t, seed, 0)
		for _, w := range differentialWorkers {
			got := runTrace(t, seed, w)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: workers=%d diverged from sequential reference\ngot  %+v\nwant %+v", seed, w, got, want)
			}
		}
	}
}

// TestMaintainCancelMidFanOutRollsBack cancels the context from inside
// the pipeline while a parallel engine is mid-swap: the query-log
// weight hook fires during swap scoring, after the clustering, CSG and
// candidate fan-outs have already run. The cancelled call must roll the
// engine back to its exact pre-batch state (the PR 1 invariant), and a
// retry must land where a crash-free parallel run does.
func TestMaintainCancelMidFanOutRollsBack(t *testing.T) {
	cfg := testConfig()
	cfg.Epsilon = 0.01
	cfg.Workers = 8
	e := NewEngine(testDB(8, 8), cfg)
	u := graph.Update{Insert: boronDelta(8, 100), Delete: []int{0, 1}}
	before := takeFingerprint(e)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.SetQueryLogWeight(func(p *graph.Graph) float64 {
		cancel()
		return 1
	})
	if _, err := e.MaintainContext(ctx, u); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if after := takeFingerprint(e); !reflect.DeepEqual(before, after) {
		t.Fatalf("cancelled parallel maintenance mutated the engine\nbefore %+v\nafter  %+v", before, after)
	}
	checkInvariants(t, e, 0)

	// Clear the tripwire and retry: the batch must now complete and
	// match a clean sequential run of the same trace.
	e.SetQueryLogWeight(nil)
	if _, err := e.Maintain(u); err != nil {
		t.Fatal(err)
	}
	got := takeFingerprint(e)

	ref := NewEngine(testDB(8, 8), func() Config {
		c := testConfig()
		c.Epsilon = 0.01
		return c
	}())
	if _, err := ref.Maintain(u); err != nil {
		t.Fatal(err)
	}
	if want := takeFingerprint(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("retry after cancellation diverged from clean run\ngot  %+v\nwant %+v", got, want)
	}
}

// TestMaintainAsyncCancelIsSafe races an external cancellation against
// a parallel maintenance run. Wherever the cancel lands — before,
// during or after a fan-out — the call must either complete normally or
// report the cancellation with the engine restored bit-for-bit.
func TestMaintainAsyncCancelIsSafe(t *testing.T) {
	for i := 0; i < 4; i++ {
		cfg := testConfig()
		cfg.Epsilon = 0.01
		cfg.Workers = 8
		e := NewEngine(testDB(8, 8), cfg)
		u := graph.Update{Insert: boronDelta(8, 100), Delete: []int{0, 1}}
		before := takeFingerprint(e)

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			// No sleep: let the scheduler decide where the cancel
			// lands relative to the pipeline stages.
			cancel()
			close(done)
		}()
		_, err := e.MaintainContext(ctx, u)
		<-done
		switch {
		case err == nil:
			// Completed before the cancel was observed — fine.
		case errors.Is(err, context.Canceled):
			if after := takeFingerprint(e); !reflect.DeepEqual(before, after) {
				t.Fatalf("run %d: cancelled maintenance mutated the engine", i)
			}
			checkInvariants(t, e, 0)
		default:
			t.Fatalf("run %d: unexpected error %v", i, err)
		}
	}
}
