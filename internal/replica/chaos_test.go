package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/vfs"
)

// faultyTransport wraps a transport with deterministic, seeded fault
// injection: dropped deliveries, duplicated deliveries, reordered
// batches, torn frames (encode, flip a byte, reject on decode — the
// exact path a corrupted HTTP body takes), and stalls. All decisions
// come from one seeded PRNG under a mutex, so a failing run replays.
type faultyTransport struct {
	inner Transport

	mu  sync.Mutex
	rng *rand.Rand

	drops, dups, reorders, tears, stalls int
}

func newFaultyTransport(inner Transport, seed int64) *faultyTransport {
	return &faultyTransport{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// roll draws one fault decision: 0..5 = drop, 6..11 = dup, 12..17 =
// reorder, 18..23 = tear, 24..29 = stall, rest = clean delivery.
func (f *faultyTransport) roll() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Intn(100)
}

func (f *faultyTransport) Push(ctx context.Context, req PushRequest) (PushResponse, error) {
	switch r := f.roll(); {
	case r < 6:
		f.mu.Lock()
		f.drops++
		f.mu.Unlock()
		return PushResponse{}, errors.New("chaos: push dropped")
	case r < 12:
		// Duplicate delivery: the first ack is discarded, the sender
		// resumes from the second — the receiver must dedup by LSN.
		f.mu.Lock()
		f.dups++
		f.mu.Unlock()
		if _, err := f.inner.Push(ctx, req); err != nil {
			return PushResponse{}, err
		}
		return f.inner.Push(ctx, req)
	case r < 18:
		// Reordered batch: records arrive back to front. The receiver
		// sees a gap after the first out-of-order record and acks its
		// pre-gap position; the sender rewinds.
		f.mu.Lock()
		f.reorders++
		f.mu.Unlock()
		rev := make([]store.RepRecord, len(req.Records))
		for i, r := range req.Records {
			rev[len(rev)-1-i] = r
		}
		return f.inner.Push(ctx, PushRequest{Epoch: req.Epoch, Records: rev})
	case r < 24:
		// Torn frame: one bit of the wire bytes flipped. DecodeRecords
		// must reject the whole batch (CRC), exactly like the HTTP
		// handler's 400.
		f.mu.Lock()
		f.tears++
		f.mu.Unlock()
		wire := store.EncodeRecords(req.Records)
		if len(wire) > 0 {
			wire[len(wire)/2] ^= 0x40
		}
		if _, err := store.DecodeRecords(wire); err != nil {
			return PushResponse{}, fmt.Errorf("chaos: torn frame rejected: %w", err)
		}
		// The flip happened to survive framing (vanishingly rare) —
		// deliver clean rather than poison the stream.
		return f.inner.Push(ctx, req)
	case r < 30:
		f.mu.Lock()
		f.stalls++
		f.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		return f.inner.Push(ctx, req)
	default:
		return f.inner.Push(ctx, req)
	}
}

func (f *faultyTransport) Bundle(ctx context.Context) (BundleResponse, error) {
	if f.roll() < 10 {
		return BundleResponse{}, errors.New("chaos: bundle fetch dropped")
	}
	return f.inner.Bundle(ctx)
}

func (f *faultyTransport) Records(ctx context.Context, after uint64, max int) ([]store.RepRecord, error) {
	switch r := f.roll(); {
	case r < 10:
		return nil, errors.New("chaos: pull dropped")
	case r < 16:
		time.Sleep(5 * time.Millisecond)
		return f.inner.Records(ctx, after, max)
	default:
		return f.inner.Records(ctx, after, max)
	}
}

func (f *faultyTransport) stats() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fmt.Sprintf("drops=%d dups=%d reorders=%d tears=%d stalls=%d",
		f.drops, f.dups, f.reorders, f.tears, f.stalls)
}

// TestChaosConvergence drives a stream of committed batches through a
// push+pull replication pair whose every transport call can drop,
// duplicate, reorder, tear or stall, and asserts the acceptance
// criterion: the follower converges to the same state bundle, byte for
// byte, and the per-LSN fingerprint history in its log is a verbatim copy of
// the primary's. Run with -race.
func TestChaosConvergence(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	// One chaotic pipe per direction; the push pipe resolves its peer
	// lazily so the primary can start shipping before the follower is
	// up (those pushes fail and retry, which is chaos too).
	lt := &lazyTransport{}
	pushChaos := newFaultyTransport(lt, 42)
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap,
		Peers: map[string]Transport{"f": pushChaos}, ShipBackoff: time.Millisecond})

	pullChaos := newFaultyTransport(nodeTransport{peer: p}, 1337)
	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream: pullChaos, PollInterval: 3 * time.Millisecond, ShipBackoff: time.Millisecond})
	lt.set(f)

	const batches = 10
	var inserted []int
	ins := 0
	for i := 0; i < batches; i++ {
		var u graph.Update
		if i%3 == 2 && len(inserted) > 0 {
			// Delete a graph inserted by an earlier batch.
			u = graph.Update{Delete: []int{inserted[0]}}
			inserted = inserted[1:]
		} else {
			from := 1000 + ins*10
			u = graph.Update{Insert: dataset.BoronicEsters().Generate(2, from, int64(i))}
			inserted = append(inserted, from, from+1)
			ins++
		}
		res := submitWrite(t, p, fmt.Sprintf("chaos-%d", i), u)
		if res.Err != nil {
			t.Fatalf("batch %d: %v", i, res.Err)
		}
	}
	want := p.LastLSN()
	if want != batches {
		t.Fatalf("primary LSN = %d, want %d", want, batches)
	}
	waitConverged(t, f, want)
	t.Logf("push: %s", pushChaos.stats())
	t.Logf("pull: %s", pullChaos.stats())

	// The same bundle, byte for byte.
	if pb, fb := bundleOf(t, p), bundleOf(t, f); !bytes.Equal(pb, fb) {
		t.Fatalf("bundles differ after chaos (%d vs %d bytes)", len(pb), len(fb))
	}
	// The follower's log carries the primary's exact per-LSN
	// fingerprints (modulo a possibly shorter prefix after a
	// chaos-induced re-bootstrap).
	ffirst := f.FirstLSN()
	pr, err := p.ReadRecords(ffirst, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := f.ReadRecords(ffirst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr) == 0 || !bytes.Equal(store.EncodeRecords(pr), store.EncodeRecords(fr)) {
		t.Fatalf("follower log suffix diverged: %d vs %d records after LSN %d", len(pr), len(fr), ffirst)
	}
}

// TestChaosFailover kills the primary mid-stream under transport
// chaos, promotes the follower, and asserts the fencing invariants:
// reads keep serving throughout, the old primary's reconnecting stream
// is rejected and demotes it, its unacknowledged commits are parked,
// and no write is accepted by two epochs. Run with -race.
func TestChaosFailover(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	lt := &lazyTransport{}
	pushChaos := newFaultyTransport(lt, 7)
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap,
		Peers: map[string]Transport{"f": pushChaos}, ShipBackoff: time.Millisecond})
	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream:     newFaultyTransport(nodeTransport{peer: p}, 8),
		PollInterval: 3 * time.Millisecond, ShipBackoff: time.Millisecond})
	lt.set(f)

	for i := 0; i < 4; i++ {
		res := submitWrite(t, p, fmt.Sprintf("pre-%d", i),
			graph.Update{Insert: dataset.BoronicEsters().Generate(1, 2000+i*10, int64(i))})
		if res.Err != nil {
			t.Fatalf("pre batch %d: %v", i, res.Err)
		}
	}
	waitConverged(t, f, p.LastLSN())
	// Let the ship stream quiesce at the converged position (chaos can
	// drop acks), so the promotion races only with an idle stream — the
	// fenced reconnect must come from the post-promotion commit, not a
	// stale retry racing the promotion itself.
	quiesce := time.Now().Add(60 * time.Second)
	for time.Now().Before(quiesce) {
		p.ackMu.Lock()
		a := p.acked["f"]
		p.ackMu.Unlock()
		if a == p.LastLSN() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// "Kill" the primary: partition it (its ship stream keeps running
	// and will reconnect later), promote the follower.
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	// Reads serve on the new primary throughout: a snapshot is loaded
	// and its generation is live.
	if f.Handle().Load() == nil {
		t.Fatal("no snapshot on promoted follower")
	}
	// The old primary, unaware, commits one more batch; its stream will
	// eventually reconnect, be fenced and demote it.
	res := submitWrite(t, p, "stranded",
		graph.Update{Insert: dataset.BoronicEsters().Generate(1, 3000, 99)})
	if res.Err != nil {
		t.Fatalf("stranded write: %v", res.Err)
	}
	// The new primary takes writes under epoch 2.
	res = submitWrite(t, f, "new-epoch",
		graph.Update{Insert: dataset.BoronicEsters().Generate(1, 4000, 100)})
	if res.Err != nil {
		t.Fatalf("write on new primary: %v", res.Err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for p.Role() != RoleFollower && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if p.Role() != RoleFollower {
		t.Fatal("old primary never demoted after fenced reconnect")
	}
	// Its stranded commit is parked, not silently dropped.
	var parked []ParkedRecord
	for time.Now().Before(deadline) {
		if parked = p.Parked(); len(parked) > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	found := false
	for _, rec := range parked {
		if rec.Name == "stranded" {
			found = true
		}
	}
	if !found {
		t.Fatalf("stranded commit not parked: %+v", parked)
	}
	// No write accepted by two epochs: every record in the new
	// primary's log past the fence carries epoch 2, and none is the old
	// epoch's stranded batch.
	recs, err := f.ReadRecords(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Name == "stranded" {
			t.Fatal("old epoch's write leaked into the new epoch's history")
		}
		if rec.Epoch != 2 {
			t.Fatalf("record %d carries epoch %d after the fence", rec.LSN, rec.Epoch)
		}
	}
	// And the demoted node refuses new writes.
	res = submitWrite(t, p, "rejected", graph.Update{Delete: []int{0}})
	if !errors.Is(res.Err, ErrNotPrimary) {
		t.Fatalf("demoted write err = %v, want ErrNotPrimary", res.Err)
	}
}
