package replica

import (
	"testing"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
)

// TestFingerprintPinned pins the state fingerprint of a fixed engine,
// freshly bootstrapped and after one major batch, to the values the v2
// bundle writer has always produced. Bundles moved to v3, but
// fingerprints still hash the replicated part of the state (options,
// database, patterns) in its v2 form, so replication logs written
// before v3 stay verifiable.
func TestFingerprintPinned(t *testing.T) {
	opts := midas.Options{Budget: midas.Budget{MinSize: 2, MaxSize: 4, Count: 6}, SupMin: 0.3, Walks: 40, Seed: 1}
	e := midas.New(dataset.EMolLike().GenerateDB(20, 5), opts)
	if got, err := Fingerprint(e); err != nil || got != 0xceee65ef0e6213e5 {
		t.Fatalf("bootstrap fingerprint = %#x (%v), want 0xceee65ef0e6213e5", got, err)
	}
	opts.Epsilon = 0.01
	e = midas.New(dataset.EMolLike().GenerateDB(20, 5), opts)
	rep, err := e.Maintain(graph.Update{Insert: dataset.BoronicEsters().Generate(8, 1000, 3), Delete: []int{0, 1}})
	if err != nil || !rep.Major || rep.Swaps == 0 {
		t.Fatalf("fixture batch: major %v, %d swaps, err %v; want a major batch with swaps", rep.Major, rep.Swaps, err)
	}
	if got, err := Fingerprint(e); err != nil || got != 0xc8c4933de304e12a {
		t.Fatalf("post-batch fingerprint = %#x (%v), want 0xc8c4933de304e12a", got, err)
	}
}
