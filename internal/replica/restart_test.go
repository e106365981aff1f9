package replica

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/vfs"
)

// stopNode stops n, failing the test on error.
func stopNode(t *testing.T, n *Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// loseBundles deletes every generation of dir's state bundle, as a
// disk that kept only the replication log would.
func loseBundles(t *testing.T, sim *vfs.Sim, dir string) {
	t.Helper()
	for _, p := range []string{dir + "/state.bundle", dir + "/state.bundle.prev"} {
		if err := sim.Remove(p); err != nil {
			t.Fatalf("remove %s: %v", p, err)
		}
	}
}

// TestColdPrimaryReplaysWholeLog is the regression test for a primary
// that lost every bundle generation: it bootstrapped from its database
// and claimed the log's last LSN without replaying the log, silently
// dropping every logged batch. It must instead replay the whole log
// over the bootstrapped engine and land on the fingerprint the log
// recorded for that LSN.
func TestColdPrimaryReplaysWholeLog(t *testing.T) {
	sim := vfs.NewSim()
	cfg := Config{FS: sim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap}
	p := startNode(t, cfg)
	submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})
	submitWrite(t, p, "w2", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 300, 4)})
	recs, err := p.ReadRecords(1, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("log record 2: %d records, %v", len(recs), err)
	}
	stopNode(t, p)
	loseBundles(t, sim, "p")

	p2 := startNode(t, cfg)
	if p2.LastLSN() != 2 {
		t.Fatalf("restart position = %d, want 2", p2.LastLSN())
	}
	fpr, err := Fingerprint(p2.shard.Engine())
	if err != nil {
		t.Fatal(err)
	}
	if fpr != recs[0].Fingerprint {
		t.Fatalf("restored fingerprint %016x, log says %016x for LSN 2", fpr, recs[0].Fingerprint)
	}
	if got := p2.shard.Engine().DB().Len(); got != 23 {
		t.Fatalf("restored database holds %d graphs, want 23", got)
	}
}

// TestColdPrimaryRefusesUnverifiableHistory pins the two ways a
// bundle-less primary's log cannot be replayed over its bootstrapped
// engine. Each must fail Start, on every attempt, instead of starting
// on a state that misses or contradicts the logged batches.
func TestColdPrimaryRefusesUnverifiableHistory(t *testing.T) {
	t.Run("seeded log", func(t *testing.T) {
		// A promoted former follower: its log starts at the seed of the
		// bundle it bootstrapped from, not at LSN 1.
		psim, fsim := vfs.NewSim(), vfs.NewSim()
		p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})
		submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})
		f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
			Upstream: nodeTransport{peer: p}, PollInterval: 5 * time.Millisecond})
		submitWrite(t, p, "w2", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 300, 4)})
		waitConverged(t, f, 2)
		if err := f.Promote(); err != nil {
			t.Fatal(err)
		}
		stopNode(t, f)
		loseBundles(t, fsim, "f")
		for attempt := 1; attempt <= 2; attempt++ {
			n := NewNode(Config{FS: fsim, Dir: "f", Shard: testShard(), Bootstrap: testBootstrap})
			if err := n.Start(context.Background()); !errors.Is(err, store.ErrCompacted) {
				t.Fatalf("attempt %d: start err = %v, want ErrCompacted", attempt, err)
			}
		}
	})
	t.Run("database does not reproduce LSN 1", func(t *testing.T) {
		sim := vfs.NewSim()
		p := startNode(t, Config{FS: sim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})
		submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})
		stopNode(t, p)
		loseBundles(t, sim, "p")
		other := func() (*midas.Engine, error) {
			return midas.New(dataset.EMolLike().GenerateDB(20, 4), testOptions()), nil
		}
		// The second attempt finds no bundle claiming the unverified
		// replay of the first: it was quarantined.
		for attempt := 1; attempt <= 2; attempt++ {
			n := NewNode(Config{FS: sim, Dir: "p", Shard: testShard(), Bootstrap: other})
			if err := n.Start(context.Background()); !errors.Is(err, ErrDiverged) {
				t.Fatalf("attempt %d: start err = %v, want ErrDiverged", attempt, err)
			}
		}
		if _, err := sim.ReadFile("p/state.bundle.diverged"); err != nil {
			t.Fatalf("diverged bundle not quarantined: %v", err)
		}
	})
}

// TestDivergentReplayKeepsStartBundle is the regression test for a
// restart whose replay diverges: the failed start saved again on its
// way out and quarantined both generations, destroying the verified
// bundle it had restored. The start must fail with ErrDiverged, on
// every attempt, and leave that bundle's bytes for the next restart —
// whether the record's replay fails its fingerprint or its payload,
// written by an older binary, carries no σ and is refused unapplied.
func TestDivergentReplayKeepsStartBundle(t *testing.T) {
	for name, diverge := range map[string]func(store.RepRecord) store.RepRecord{
		"fingerprint": func(r store.RepRecord) store.RepRecord { r.Fingerprint ^= 0xdeadbeef; return r },
		"old format":  func(r store.RepRecord) store.RepRecord { return oldFormat(t, r) },
	} {
		t.Run(name, func(t *testing.T) {
			sim := vfs.NewSim()
			cfg := Config{FS: sim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap}
			p := startNode(t, cfg)
			submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})
			want, err := sim.ReadFile("p/state.bundle")
			if lsn, _ := bundlePosition(want); err != nil || lsn != 1 {
				t.Fatalf("bundle position = %d (%v), want 1", lsn, err)
			}
			submitWrite(t, p, "w2", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 300, 4)})
			recs, err := p.ReadRecords(0, 0)
			if err != nil || len(recs) != 2 {
				t.Fatalf("primary log: %d records, %v", len(recs), err)
			}
			stopNode(t, p)

			// The disk holds the bundle of LSN 1 and the log through LSN 2,
			// whose record cannot verify.
			if err := sim.Remove("p/state.bundle.prev"); err != nil {
				t.Fatal(err)
			}
			recs[1] = diverge(recs[1])
			writeSimFile(t, sim, "p/state.bundle", want)
			writeSimFile(t, sim, "p/replication.log", store.EncodeRecords(recs))

			for attempt := 1; attempt <= 2; attempt++ {
				n := NewNode(cfg)
				if err := n.Start(context.Background()); !errors.Is(err, ErrDiverged) {
					t.Fatalf("attempt %d: start err = %v, want ErrDiverged", attempt, err)
				}
				got, _, err := store.LoadBundle(sim.Clone(), "p/state.bundle", midas.VerifyState)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("attempt %d: the bundle the start restored is gone (%v)", attempt, err)
				}
			}
		})
	}
}

// writeSimFile replaces the content of path on sim.
func writeSimFile(t *testing.T, sim *vfs.Sim, path string, data []byte) {
	t.Helper()
	f, err := sim.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// flakyUpstream wraps a peer. With flip set, its records carry flipped
// fingerprints, so every install diverges; with down set, its bundle
// fetches fail. It counts bundle fetches.
type flakyUpstream struct {
	nodeTransport
	flip, down atomic.Bool
	fetches    atomic.Int32
}

func (u *flakyUpstream) Bundle(ctx context.Context) (BundleResponse, error) {
	u.fetches.Add(1)
	if u.down.Load() {
		return BundleResponse{}, errors.New("upstream unreachable")
	}
	return u.nodeTransport.Bundle(ctx)
}

func (u *flakyUpstream) Records(ctx context.Context, after uint64, max int) ([]store.RepRecord, error) {
	recs, err := u.nodeTransport.Records(ctx, after, max)
	if u.flip.Load() {
		for i := range recs {
			recs[i].Fingerprint ^= 0xdeadbeef
		}
	}
	return recs, err
}

// TestStopDuringRebootstrapRefetches is the regression test for a
// follower stopped while its re-bootstrap could not fetch: the stop's
// final save wrote the diverged state back as the bundle the
// quarantine had just moved aside, and the restart restored it. The
// stop must leave no bundle, so the restart re-fetches the upstream's.
func TestStopDuringRebootstrapRefetches(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})
	submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})
	up := &flakyUpstream{nodeTransport: nodeTransport{peer: p}}
	fcfg := Config{FS: fsim, Dir: "f", Shard: testShard(), Upstream: up, PollInterval: 5 * time.Millisecond}
	f := startNode(t, fcfg)

	up.flip.Store(true)
	up.down.Store(true)
	submitWrite(t, p, "w2", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 300, 4)})
	// The pull loop installs LSN 2, diverges, quarantines its state and
	// retries the failing fetch until the stop cancels it.
	deadline := time.Now().Add(60 * time.Second)
	for up.fetches.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d bundle fetches, want a failing re-bootstrap fetch", up.fetches.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopNode(t, f)
	for _, path := range []string{"f/state.bundle", "f/state.bundle.prev"} {
		if _, err := fsim.ReadFile(path); err == nil {
			t.Fatalf("%s is on disk after the stop: the diverged state was saved back", path)
		}
	}

	up.flip.Store(false)
	up.down.Store(false)
	before := up.fetches.Load()
	f2 := startNode(t, fcfg)
	if got := up.fetches.Load() - before; got != 1 {
		t.Fatalf("restart made %d bundle fetches, want 1", got)
	}
	if f2.LastLSN() != 2 {
		t.Fatalf("restart position = %d, want 2", f2.LastLSN())
	}
	if pb, fb := bundleOf(t, p), bundleOf(t, f2); !bytes.Equal(pb, fb) {
		t.Fatal("bundles differ after the re-fetch")
	}
}
