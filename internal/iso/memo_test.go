package iso

import (
	"reflect"
	"testing"

	"github.com/midas-graph/midas/graph"
)

// resetMemo drops the package's memo caches so a test starts cold.
func resetMemo() {
	mccsMemo.Reset()
	embedMemo.Reset()
}

func memoPairs() [][2]*graph.Graph {
	gs := []*graph.Graph{
		graph.Path(0, "C", "O", "C"),
		graph.Path(1, "C", "O", "C", "O", "C"),
		graph.Star(2, "C", "N", "N", "N"),
		graph.Star(3, "B", "O", "O", "O"),
		graph.Path(4, "C", "C"),
	}
	var out [][2]*graph.Graph
	for _, a := range gs {
		for _, b := range gs {
			out = append(out, [2]*graph.Graph{a, b})
		}
	}
	return out
}

// TestMCCSCachedMatchesUncached is the memo soundness contract: for
// every pair, the cached kernel returns exactly what the plain kernel
// computes — on the cold miss, and again on the warm hit.
func TestMCCSCachedMatchesUncached(t *testing.T) {
	resetMemo()
	for _, budget := range []int{50, 5000} {
		for _, pr := range memoPairs() {
			want := MCCSWithCancel(pr[0], pr[1], budget, nil)
			cold := MCCSCached(pr[0], pr[1], budget, nil)
			warm := MCCSCached(pr[0], pr[1], budget, nil)
			if !reflect.DeepEqual(cold, want) || !reflect.DeepEqual(warm, want) {
				t.Fatalf("budget %d pair (%d,%d): cached diverged: cold %+v warm %+v want %+v",
					budget, pr[0].ID, pr[1].ID, cold, warm, want)
			}
			ws := MCCSSimilarityCancel(pr[0], pr[1], budget, nil)
			if got := MCCSSimilarityCached(pr[0], pr[1], budget, nil); got != ws {
				t.Fatalf("similarity diverged: %v want %v", got, ws)
			}
		}
	}
}

// TestMCCSCachedBudgetInKey checks a low-budget result can never be
// served for a high-budget request (the budget caps the search, so the
// results differ legitimately).
func TestMCCSCachedBudgetInKey(t *testing.T) {
	resetMemo()
	a := graph.Path(0, "C", "O", "C", "O", "C")
	b := graph.Path(1, "C", "O", "C", "N", "C")
	low := MCCSCached(a, b, 1, nil)
	high := MCCSCached(a, b, 100000, nil)
	want := MCCSWithCancel(a, b, 100000, nil)
	if !reflect.DeepEqual(high, want) {
		t.Fatalf("high-budget result polluted by low-budget entry: %+v want %+v (low %+v)", high, want, low)
	}
}

// TestMCCSCachedNoCacheAfterCancel: a result computed under a fired
// cancel hook is partial and must not be memoised.
func TestMCCSCachedNoCacheAfterCancel(t *testing.T) {
	resetMemo()
	a := graph.Path(0, "C", "O", "C", "O", "C")
	b := graph.Path(1, "C", "O", "C", "O", "C")
	fired := false
	MCCSCached(a, b, 100000, func() bool { fired = true; return true })
	if !fired {
		t.Skip("kernel returned before polling cancel")
	}
	got := MCCSCached(a, b, 100000, nil)
	want := MCCSWithCancel(a, b, 100000, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partial cancelled result leaked into the memo: %+v want %+v", got, want)
	}
}

// TestFindEmbeddingCachedMatches checks the VF2 memo, including the
// negative (nil) result, against the plain kernel.
func TestFindEmbeddingCachedMatches(t *testing.T) {
	resetMemo()
	pat := graph.Path(0, "C", "O")
	host := graph.Path(1, "C", "O", "C")
	miss := graph.Path(2, "N", "S")
	for _, steps := range []int{0, 100000} {
		opts := Options{MaxSteps: steps}
		want := FindEmbedding(pat, host, opts)
		if got := FindEmbeddingCached(pat, host, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("steps %d: cold %v want %v", steps, got, want)
		}
		if got := FindEmbeddingCached(pat, host, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("steps %d: warm %v want %v", steps, got, want)
		}
		if got := FindEmbeddingCached(miss, host, opts); got != nil {
			t.Fatalf("steps %d: want nil embedding, got %v", steps, got)
		}
		if got := FindEmbeddingCached(miss, host, opts); got != nil {
			t.Fatalf("steps %d: cached negative flipped: %v", steps, got)
		}
	}
}
