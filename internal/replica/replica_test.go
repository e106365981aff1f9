package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/snapshot"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/tenant"
	"github.com/midas-graph/midas/internal/vfs"
)

func testOptions() midas.Options {
	return midas.Options{
		Budget:  midas.Budget{MinSize: 2, MaxSize: 4, Count: 5},
		SupMin:  0.4,
		Epsilon: 0.02,
		Walks:   30,
		Seed:    1,
	}
}

// testShard is the serving-stack configuration of a test node.
func testShard() tenant.Options { return tenant.Options{Engine: testOptions()} }

func testBootstrap() (*midas.Engine, error) {
	db := dataset.EMolLike().GenerateDB(20, 3)
	return midas.New(db, testOptions()), nil
}

// nodeTransport connects a test node to a peer in-process.
type nodeTransport struct{ peer *Node }

// lazyTransport resolves its peer late, so a primary can be configured
// with a follower that does not exist yet (the ship loop retries until
// it does).
type lazyTransport struct {
	mu   sync.Mutex
	peer *Node
}

func (l *lazyTransport) set(n *Node) {
	l.mu.Lock()
	l.peer = n
	l.mu.Unlock()
}

func (l *lazyTransport) get() (nodeTransport, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.peer == nil {
		return nodeTransport{}, errors.New("peer not up yet")
	}
	return nodeTransport{peer: l.peer}, nil
}

func (l *lazyTransport) Push(ctx context.Context, req PushRequest) (PushResponse, error) {
	tr, err := l.get()
	if err != nil {
		return PushResponse{}, err
	}
	return tr.Push(ctx, req)
}

func (l *lazyTransport) Bundle(ctx context.Context) (BundleResponse, error) {
	tr, err := l.get()
	if err != nil {
		return BundleResponse{}, err
	}
	return tr.Bundle(ctx)
}

func (l *lazyTransport) Records(ctx context.Context, after uint64, max int) ([]store.RepRecord, error) {
	tr, err := l.get()
	if err != nil {
		return nil, err
	}
	return tr.Records(ctx, after, max)
}

func (t nodeTransport) Push(_ context.Context, req PushRequest) (PushResponse, error) {
	return t.peer.ReceivePush(req), nil
}

func (t nodeTransport) Bundle(context.Context) (BundleResponse, error) {
	data, lsn, epoch, err := t.peer.BundleBytes()
	if err != nil {
		return BundleResponse{}, err
	}
	return BundleResponse{Data: data, LSN: lsn, Epoch: epoch}, nil
}

func (t nodeTransport) Records(_ context.Context, after uint64, max int) ([]store.RepRecord, error) {
	return t.peer.ReadRecords(after, max)
}

// startNode builds and starts a node, failing the test on error and
// stopping it at cleanup.
func startNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	n := NewNode(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.Start(ctx); err != nil {
		t.Fatalf("node start: %v", err)
	}
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		n.Stop(sctx)
	})
	return n
}

// submitWrite pushes one client batch through the node's pipeline and
// waits for its terminal result.
func submitWrite(t *testing.T, n *Node, name string, u graph.Update) snapshot.Result {
	t.Helper()
	tkt, err := n.Pipeline().Submit(snapshot.Batch{Name: name, Update: u})
	if err != nil {
		t.Fatalf("submit %s: %v", name, err)
	}
	select {
	case res := <-tkt.Done:
		return res
	case <-time.After(60 * time.Second):
		t.Fatalf("batch %s did not terminate", name)
		panic("unreachable")
	}
}

// waitConverged polls until the follower's applied position reaches
// want.
func waitConverged(t *testing.T, n *Node, want uint64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if n.LastLSN() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower stuck at LSN %d, want %d", n.LastLSN(), want)
}

// bundleOf reads the node's persisted bundle bytes.
func bundleOf(t *testing.T, n *Node) []byte {
	t.Helper()
	data, _, _, err := n.BundleBytes()
	if err != nil {
		t.Fatalf("bundle: %v", err)
	}
	return data
}

func TestPrimaryCommitsToLog(t *testing.T) {
	sim := vfs.NewSim()
	p := startNode(t, Config{FS: sim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})

	if p.Role() != RolePrimary {
		t.Fatalf("role = %v, want primary", p.Role())
	}
	res := submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})
	if res.Err != nil || !res.Applied {
		t.Fatalf("write failed: %+v", res)
	}
	if p.LastLSN() != 1 || p.Epoch() != 1 {
		t.Fatalf("position = (%d, %d), want (1, 1)", p.LastLSN(), p.Epoch())
	}
	recs, err := p.ReadRecords(0, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("log: %d records, %v", len(recs), err)
	}
	if recs[0].Kind != store.RecData || recs[0].Name != "w1" || recs[0].Fingerprint == 0 {
		t.Fatalf("record: %+v", recs[0])
	}
	// The logged payload replays to the fingerprinted state: the bundle
	// meta carries the position.
	_, lsn, epoch, err := p.BundleBytes()
	if err != nil || lsn != 1 || epoch != 1 {
		t.Fatalf("bundle position = (%d, %d, %v), want (1, 1, nil)", lsn, epoch, err)
	}
}

func TestFollowerWritesFenced(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})
	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream: nodeTransport{peer: p}, PollInterval: 5 * time.Millisecond})

	if f.Role() != RoleFollower {
		t.Fatalf("role = %v, want follower", f.Role())
	}
	res := submitWrite(t, f, "illegal", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 9000, 5)})
	if !errors.Is(res.Err, ErrNotPrimary) {
		t.Fatalf("follower write err = %v, want ErrNotPrimary", res.Err)
	}
	var hs interface{ HTTPStatus() int }
	if !errors.As(res.Err, &hs) || hs.HTTPStatus() != 503 {
		t.Fatalf("ErrNotPrimary must map to 503, got %v", res.Err)
	}
}

func TestFollowerConvergesByPull(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})

	// Commit two batches before the follower exists: it must bootstrap
	// from the bundle, then stream the rest.
	submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})
	submitWrite(t, p, "w2", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 100, 4)})

	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream: nodeTransport{peer: p}, PollInterval: 5 * time.Millisecond})
	if got := f.LastLSN(); got != 2 {
		t.Fatalf("bootstrap position = %d, want 2 (bundle carries both commits)", got)
	}

	// Two more batches after bootstrap, including a delete.
	submitWrite(t, p, "w3", graph.Update{Insert: dataset.BoronicEsters().Generate(3, 0, 6)})
	submitWrite(t, p, "w4", graph.Update{Delete: []int{1, 3}})
	waitConverged(t, f, 4)

	if pb, fb := bundleOf(t, p), bundleOf(t, f); !bytes.Equal(pb, fb) {
		t.Fatalf("bundles differ after convergence (%d vs %d bytes)", len(pb), len(fb))
	}
	pf, _ := Fingerprint(p.shard.Engine())
	ff, _ := Fingerprint(f.shard.Engine())
	if pf != ff {
		t.Fatalf("fingerprints differ: %016x vs %016x", pf, ff)
	}
	// The streamed part of the follower's log is a verbatim copy of the
	// primary's (the prefix before its bootstrap point is a seed record,
	// not shipped history).
	pr, _ := p.ReadRecords(2, 0)
	fr, _ := f.ReadRecords(2, 0)
	if len(fr) == 0 || !bytes.Equal(store.EncodeRecords(pr), store.EncodeRecords(fr)) {
		t.Fatal("follower log suffix is not a verbatim copy of the primary's")
	}
	// Readers see a published snapshot generation on the follower.
	if f.Handle().Load() == nil || f.Handle().Generation() == 0 {
		t.Fatal("follower never published a snapshot")
	}
}

// TestFollowerWorkersMismatch pins that replicated state does not
// depend on the Workers knob: a follower running a different worker
// count from its primary installs every shipped record without
// ErrDiverged and ends on the same bundle, byte for byte. Bundles and
// fingerprints record Workers as 0, so differently sized machines can
// pair up.
func TestFollowerWorkersMismatch(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	popts, fopts := testOptions(), testOptions()
	popts.Workers, fopts.Workers = 1, 2
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: tenant.Options{Engine: popts}, Bootstrap: func() (*midas.Engine, error) {
		return midas.New(dataset.EMolLike().GenerateDB(20, 3), popts), nil
	}})
	// Pull parked: the records are installed below, synchronously.
	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: tenant.Options{Engine: fopts},
		Upstream: nodeTransport{peer: p}, PollInterval: time.Hour})

	submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(3, 0, 6)})
	submitWrite(t, p, "w2", graph.Update{Delete: []int{1, 3}})
	recs, err := p.ReadRecords(f.LastLSN(), 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("primary log: %d records, %v", len(recs), err)
	}
	if _, err := f.applyRecords(recs); err != nil {
		t.Fatalf("follower at Workers=%d installing a Workers=%d primary's records: %v",
			fopts.Workers, popts.Workers, err)
	}
	if f.LastLSN() != 2 {
		t.Fatalf("follower at LSN %d, want 2", f.LastLSN())
	}
	if pb, fb := bundleOf(t, p), bundleOf(t, f); !bytes.Equal(pb, fb) {
		t.Fatalf("bundles differ across worker counts (%d vs %d bytes)", len(pb), len(fb))
	}
}

func TestFollowerConvergesByPush(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	// The primary ships to a follower that does not exist yet: the lazy
	// transport errors until the follower is up, and the ship loop's
	// backoff absorbs that window.
	lt := &lazyTransport{}
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap,
		Peers: map[string]Transport{"f": lt}, ShipBackoff: time.Millisecond})
	// Pull effectively disabled: the push stream must carry convergence.
	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream: nodeTransport{peer: p}, PollInterval: time.Hour})
	lt.set(f)

	submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})
	submitWrite(t, p, "w2", graph.Update{Delete: []int{0}})
	waitConverged(t, f, 2)

	if pb, fb := bundleOf(t, p), bundleOf(t, f); !bytes.Equal(pb, fb) {
		t.Fatal("bundles differ after push convergence")
	}
}

func TestPromotionFencesOldPrimary(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})
	submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})

	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream: nodeTransport{peer: p}, PollInterval: 5 * time.Millisecond})
	waitConverged(t, f, 1)

	// Failover: the follower is promoted; its epoch rises above the old
	// primary's.
	if err := f.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if f.Role() != RolePrimary || f.Epoch() != 2 {
		t.Fatalf("promoted node: role=%v epoch=%d, want primary/2", f.Role(), f.Epoch())
	}
	// The promoted node accepts writes under the new epoch.
	res := submitWrite(t, f, "nw1", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 500, 4)})
	if res.Err != nil {
		t.Fatalf("write on new primary failed: %v", res.Err)
	}

	// The old primary commits one more batch (it does not know yet) and
	// its stream reaches the new primary: fenced, and the old primary
	// demotes itself.
	submitWrite(t, p, "stale-w2", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 600, 4)})
	recs, err := p.ReadRecords(1, 0)
	if err != nil || len(recs) == 0 {
		t.Fatalf("old primary log: %v", err)
	}
	resp, err := (nodeTransport{peer: f}).Push(context.Background(), PushRequest{Epoch: p.Epoch(), Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Fenced || resp.Epoch != 2 {
		t.Fatalf("stale push not fenced: %+v", resp)
	}
	// What the shipper would do with that ack. The follower had
	// acknowledged up to LSN 1 before the failover; stale-w2 (LSN 2) was
	// never confirmed by anyone.
	p.ackMu.Lock()
	p.acked["f"] = 1
	p.ackMu.Unlock()
	p.Demote(resp.Epoch)
	if p.Role() != RoleFollower {
		t.Fatalf("old primary role = %v after fencing, want follower", p.Role())
	}
	// Its unshipped commit is parked, not silently dropped.
	parked := p.Parked()
	if len(parked) != 1 || parked[0].Name != "stale-w2" || parked[0].LSN != 2 {
		t.Fatalf("parked = %+v, want stale-w2 at LSN 2", parked)
	}
	// And it no longer accepts writes.
	res = submitWrite(t, p, "rejected", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 700, 4)})
	if !errors.Is(res.Err, ErrNotPrimary) {
		t.Fatalf("demoted write err = %v, want ErrNotPrimary", res.Err)
	}
	// No write was accepted by two epochs: the new primary's history at
	// LSN 2 is its own epoch-2 record, not the old primary's stale-w2.
	fr, _ := f.ReadRecords(1, 1)
	if len(fr) != 1 || fr[0].Epoch != 2 || fr[0].Name == "stale-w2" {
		t.Fatalf("new primary's LSN 2: %+v — old epoch's write leaked in", fr)
	}
}

// TestPromotedFollowerMaintainsAsPrimary pins that replication carries
// the whole engine state: a follower promoted after major batches
// maintains exactly as the old primary's engine would have. Records
// ship σ and the pattern-ID allocator next to the pattern set, so the
// promoted follower's next batch saves the bundle that a twin restored
// from the old primary's bundle saves after the same batch.
func TestPromotedFollowerMaintainsAsPrimary(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})
	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream: nodeTransport{peer: p}, PollInterval: 5 * time.Millisecond})
	for i, prof := range []dataset.Profile{dataset.BoronicEsters(), dataset.AIDSLike()} {
		name := fmt.Sprintf("w%d", i+1)
		res := submitWrite(t, p, name, graph.Update{Insert: prof.Generate(8, 1000+100*i, int64(20+i))})
		if res.Err != nil || !res.Report.Major {
			t.Fatalf("%s: major %v, err %v; want a major batch", name, res.Report.Major, res.Err)
		}
	}
	waitConverged(t, f, 2)
	twin, err := midas.LoadState(bytes.NewReader(bundleOf(t, p)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}

	next := func() graph.Update { return graph.Update{Insert: dataset.PubChemLike().Generate(8, 1200, 22)} }
	if res := submitWrite(t, f, "w3", next()); res.Err != nil {
		t.Fatalf("write on the promoted follower: %v", res.Err)
	}
	if _, err := twin.Maintain(next()); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := midas.SaveState(&got, f.shard.Engine()); err != nil {
		t.Fatal(err)
	}
	if err := midas.SaveState(&want, twin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("promoted follower's bundle differs from the old primary's twin:\n%s\nvs\n%s",
			bytes.SplitN(got.Bytes(), []byte("\n"), 3)[1], bytes.SplitN(want.Bytes(), []byte("\n"), 3)[1])
	}
}

// oldFormat rewrites a data record's payload into the form binaries
// wrote before records carried σ and the pattern-ID allocator.
func oldFormat(t *testing.T, rec store.RepRecord) store.RepRecord {
	t.Helper()
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(rec.Data, &payload); err != nil {
		t.Fatal(err)
	}
	delete(payload, "sigma")
	delete(payload, "nextPatternID")
	data, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	rec.Data = data
	return rec
}

// TestOldFormatRecordDiverges pins the upgrade path: a record whose
// payload carries no σ (written by an older binary, with a fingerprint
// over a smaller form of the state) can never verify, so a follower
// rejects it as ErrDiverged before applying anything — it never
// installs σ = 0 — and then re-bootstraps from its upstream's bundle.
func TestOldFormatRecordDiverges(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})
	submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(6, 1000, 20)})
	// The follower bootstraps from the primary's bundle at LSN 1 and does
	// not poll during the test.
	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream: nodeTransport{peer: p}, PollInterval: time.Hour})
	submitWrite(t, p, "w2", graph.Update{Insert: dataset.BoronicEsters().Generate(6, 1100, 21)})
	recs, err := p.ReadRecords(1, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("primary log past LSN 1: %d records, %v", len(recs), err)
	}
	before := f.shard.Engine().PatternState()
	bundleBefore := bundleOf(t, f)

	if _, err := f.applyRecords([]store.RepRecord{oldFormat(t, recs[0])}); !errors.Is(err, ErrDiverged) {
		t.Fatalf("old-format record: err = %v, want ErrDiverged", err)
	}
	after := f.shard.Engine().PatternState()
	if after.Sigma == 0 || after.Sigma != before.Sigma || after.NextPatternID != before.NextPatternID || f.LastLSN() != 1 {
		t.Fatalf("old-format record changed the follower: σ %v → %v, next pattern ID %d → %d, LSN %d",
			before.Sigma, after.Sigma, before.NextPatternID, after.NextPatternID, f.LastLSN())
	}
	if !bytes.Equal(bundleOf(t, f), bundleBefore) {
		t.Fatal("old-format record wrote a bundle generation")
	}

	// Pushed, the same record makes the follower re-bootstrap onto the
	// primary's bundle.
	f.ReceivePush(PushRequest{Epoch: p.Epoch(), Records: []store.RepRecord{oldFormat(t, recs[0])}})
	if f.LastLSN() != 2 {
		t.Fatalf("follower at LSN %d after re-bootstrap, want 2", f.LastLSN())
	}
	if pb, fb := bundleOf(t, p), bundleOf(t, f); !bytes.Equal(pb, fb) {
		t.Fatal("bundles differ after re-bootstrap")
	}
}

func TestFollowerRestartReplaysSuffix(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})
	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream: nodeTransport{peer: p}, PollInterval: 5 * time.Millisecond})

	submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})
	submitWrite(t, p, "w2", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 300, 4)})
	waitConverged(t, f, 2)

	// Stop the follower, then tamper: roll its bundle back to the .prev
	// generation (as if the process crashed between the log append and
	// the bundle save of w2). Restart must replay the log suffix.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	f.Stop(sctx)
	scancel()
	if _, err := fsim.ReadFile("f/state.bundle.prev"); err != nil {
		t.Fatalf("no .prev generation: %v", err)
	}
	if err := fsim.Rename("f/state.bundle.prev", "f/state.bundle"); err != nil {
		t.Fatal(err)
	}

	f2 := NewNode(Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream: nodeTransport{peer: p}, PollInterval: 5 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f2.Start(ctx); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		f2.Stop(sctx)
	}()
	if f2.LastLSN() != 2 {
		t.Fatalf("restart position = %d, want 2 (suffix replayed)", f2.LastLSN())
	}
	if pb, fb := bundleOf(t, p), bundleOf(t, f2); !bytes.Equal(pb, fb) {
		t.Fatal("bundles differ after restart replay")
	}
}

func TestDivergenceQuarantinesAndRebootstraps(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})
	submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})

	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream: nodeTransport{peer: p}, PollInterval: time.Hour})
	if f.LastLSN() != 1 {
		t.Fatalf("bootstrap position = %d, want 1", f.LastLSN())
	}

	// Hand the follower a record whose fingerprint cannot match (a
	// corrupted primary, a torn state — any divergence looks the same).
	submitWrite(t, p, "w2", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 400, 4)})
	recs, _ := p.ReadRecords(1, 0)
	bad := recs[0]
	bad.Fingerprint ^= 0xdeadbeef
	_, err := f.applyRecords([]store.RepRecord{bad})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("apply of mismatched fingerprint err = %v, want ErrDiverged", err)
	}
	genBefore := f.Handle().Generation()
	if err := f.rebootstrap(); err != nil {
		t.Fatalf("rebootstrap: %v", err)
	}
	// Diverged state is quarantined, not deleted.
	if _, err := fsim.ReadFile("f/replication.log.diverged"); err != nil {
		t.Fatalf("diverged log not quarantined: %v", err)
	}
	// The reinstall landed on the primary's current position and
	// generations kept rising (readers never see a reset).
	if f.LastLSN() != 2 {
		t.Fatalf("re-bootstrap position = %d, want 2", f.LastLSN())
	}
	if f.Handle().Generation() <= genBefore {
		t.Fatalf("generation went backwards: %d -> %d", genBefore, f.Handle().Generation())
	}
	if pb, fb := bundleOf(t, p), bundleOf(t, f); !bytes.Equal(pb, fb) {
		t.Fatal("bundles differ after re-bootstrap")
	}
}

func TestUpdatePayloadRoundTrip(t *testing.T) {
	ins := dataset.BoronicEsters().Generate(3, 42, 6)
	pats := dataset.BoronicEsters().Generate(2, 900, 7)
	u := graph.Update{Insert: ins, Delete: []int{7, 9}}
	b, err := EncodeUpdate(u, midas.PatternState{Patterns: pats, Sigma: 0.375, NextPatternID: 917})
	if err != nil {
		t.Fatal(err)
	}
	got, gotPS, err := DecodeUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Insert) != 3 || got.Insert[0].ID != 42 || len(got.Delete) != 2 {
		t.Fatalf("round trip mangled the update: %+v", got)
	}
	if got.Insert[1].String() != ins[1].String() {
		t.Fatal("graph text changed across the round trip")
	}
	if gotPats := gotPS.Patterns; len(gotPats) != 2 || gotPats[0].ID != 900 || gotPats[1].String() != pats[1].String() {
		t.Fatalf("round trip mangled the pattern set: %+v", gotPats)
	}
	if gotPS.Sigma != 0.375 || gotPS.NextPatternID != 917 {
		t.Fatalf("round trip gave σ %v, next pattern ID %d; want 0.375, 917", gotPS.Sigma, gotPS.NextPatternID)
	}
	// An empty pattern set survives too (a primary can legitimately
	// hold zero patterns).
	b, err = EncodeUpdate(graph.Update{Delete: []int{1}}, midas.PatternState{})
	if err != nil {
		t.Fatal(err)
	}
	if _, gotPS, err = DecodeUpdate(b); err != nil || len(gotPS.Patterns) != 0 {
		t.Fatalf("empty pattern set round trip: %v, %d patterns", err, len(gotPS.Patterns))
	}
}

func TestBundlePositionParses(t *testing.T) {
	eng, _ := testBootstrap()
	var buf bytes.Buffer
	if err := midas.SaveStateMeta(&buf, eng, positionMeta(17, 3)); err != nil {
		t.Fatal(err)
	}
	lsn, epoch := bundlePosition(buf.Bytes())
	if lsn != 17 || epoch != 3 {
		t.Fatalf("bundlePosition = (%d, %d), want (17, 3)", lsn, epoch)
	}
	if l, e := bundlePosition([]byte("not a bundle")); l != 0 || e != 0 {
		t.Fatalf("garbage position = (%d, %d), want zeros", l, e)
	}
}

func TestStatusDocument(t *testing.T) {
	sim := vfs.NewSim()
	p := startNode(t, Config{FS: sim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap,
		PrimaryURL: "http://primary:8080"})
	submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 0, 5)})
	st := p.Status()
	if st.Role != "primary" || st.Epoch != 1 || st.LSN != 1 || st.Generation == 0 {
		t.Fatalf("status: %+v", st)
	}
	if st.Primary != "http://primary:8080" {
		t.Fatalf("status primary = %q", st.Primary)
	}
}
