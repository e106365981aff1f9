package replica

import (
	"testing"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
)

// TestFingerprintPinned pins the state fingerprint of a fixed engine,
// freshly bootstrapped and after one major batch. Fingerprints hash the
// whole v3 bundle, so any change to the bundle bytes — or to the
// bootstrap or maintenance that produce them — moves these values; a
// replication log written before such a change cannot verify on the
// changed binary.
func TestFingerprintPinned(t *testing.T) {
	opts := midas.Options{Budget: midas.Budget{MinSize: 2, MaxSize: 4, Count: 6}, SupMin: 0.3, Walks: 40, Seed: 1}
	e := midas.New(dataset.EMolLike().GenerateDB(20, 5), opts)
	if got, err := Fingerprint(e); err != nil || got != 0x4f611e6a32985301 {
		t.Fatalf("bootstrap fingerprint = %#x (%v), want 0x4f611e6a32985301", got, err)
	}
	opts.Epsilon = 0.01
	e = midas.New(dataset.EMolLike().GenerateDB(20, 5), opts)
	rep, err := e.Maintain(graph.Update{Insert: dataset.BoronicEsters().Generate(8, 1000, 3), Delete: []int{0, 1}})
	if err != nil || !rep.Major || rep.Swaps == 0 {
		t.Fatalf("fixture batch: major %v, %d swaps, err %v; want a major batch with swaps", rep.Major, rep.Swaps, err)
	}
	if got, err := Fingerprint(e); err != nil || got != 0xecf0a0ebc356a4b3 {
		t.Fatalf("post-batch fingerprint = %#x (%v), want 0xecf0a0ebc356a4b3", got, err)
	}
}
