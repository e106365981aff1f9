package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/vfs"
)

// TestSmokeFailoverHTTP is the replication smoke test: a primary and a
// follower wired over real HTTP (the exact handler midas-serve
// mounts), converging over the wire; then the primary is killed, the
// follower is promoted through POST /replica/promote, reads keep
// serving, and the revived old primary's stream is fenced. The CI
// smoke step runs exactly this test.
func TestSmokeFailoverHTTP(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})
	psrv := httptest.NewServer(p.Handler())
	defer psrv.Close()

	submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})

	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream:     &HTTPTransport{Base: psrv.URL},
		PollInterval: 5 * time.Millisecond, PrimaryURL: psrv.URL})
	fsrv := httptest.NewServer(f.Handler())
	defer fsrv.Close()

	submitWrite(t, p, "w2", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 100, 4)})
	waitConverged(t, f, 2)
	if pb, fb := bundleOf(t, p), bundleOf(t, f); !bytes.Equal(pb, fb) {
		t.Fatal("bundles differ after HTTP convergence")
	}

	// Status over the wire.
	var st StatusJSON
	resp, err := http.Get(fsrv.URL + "/replica/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Role != "follower" || st.LSN != 2 {
		t.Fatalf("status over HTTP: %+v", st)
	}

	// Kill the primary (listener down, node stopped) and promote the
	// follower through the admin verb.
	psrv.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	p.Stop(sctx)
	scancel()

	resp, err = http.Post(fsrv.URL+"/replica/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Role != "primary" || st.Epoch != 2 {
		t.Fatalf("promote over HTTP: %+v", st)
	}

	// Reads keep serving on the survivor: the snapshot is live and
	// writes are now admitted.
	if f.Handle().Load() == nil {
		t.Fatal("promoted node lost its snapshot")
	}
	res := submitWrite(t, f, "post-failover",
		graph.Update{Insert: dataset.BoronicEsters().Generate(1, 500, 6)})
	if res.Err != nil {
		t.Fatalf("write after failover: %v", res.Err)
	}

	// The revived old primary pushes its stream to the new primary over
	// HTTP: fenced with the higher epoch. Reopen its log from its own
	// filesystem — the revived process's view.
	plog, err := store.OpenRepLogFS(psim, "p/replication.log")
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	recs, err := plog.ReadFrom(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &HTTPTransport{Base: fsrv.URL}
	pres, err := tr.Push(context.Background(), PushRequest{Epoch: 1, Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Fenced || pres.Epoch != 2 {
		t.Fatalf("revived primary's push not fenced: %+v", pres)
	}
}
