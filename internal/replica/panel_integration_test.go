package replica

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/vfs"
)

// TestPanelOverReplica serves the full panel route table over a
// replicated pair: follower reads answer lock-free with the replica
// headers, follower writes are fenced with the redirect hints, and
// /readyz details the log position.
func TestPanelOverReplica(t *testing.T) {
	psim, fsim := vfs.NewSim(), vfs.NewSim()
	p := startNode(t, Config{FS: psim, Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})
	psrv := httptest.NewServer(p.Handler())
	defer psrv.Close()

	f := startNode(t, Config{FS: fsim, Dir: "f", Shard: testShard(),
		Upstream:     &HTTPTransport{Base: psrv.URL},
		PollInterval: 5 * time.Millisecond, PrimaryURL: psrv.URL})

	ppanel := httptest.NewServer(p.Panel().Handler())
	defer ppanel.Close()
	fpanel := httptest.NewServer(f.Panel().Handler())
	defer fpanel.Close()

	// A write through the primary's panel commits to the log and
	// replicates.
	body := graph.Marshal(dataset.BoronicEsters().Generate(2, 0, 5))
	resp, err := http.Post(ppanel.URL+"/maintain", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary panel write = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Midas-Generation"); got == "" {
		t.Fatal("no generation header on primary write")
	}
	waitConverged(t, f, 1)

	// Follower reads: lock-free snapshot with the replica headers.
	resp, err = http.Get(fpanel.URL + "/patterns")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower read = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Midas-Replica"); got != "follower" {
		t.Fatalf("X-Midas-Replica = %q, want follower", got)
	}
	if got := resp.Header.Get("X-Midas-Replication-Lag"); got == "" {
		t.Fatal("no replication-lag header on follower read")
	}

	// Follower writes: fenced with 503 + Retry-After + the primary's
	// address.
	resp, err = http.Post(fpanel.URL+"/maintain", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower write = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("fenced write carries no Retry-After")
	}
	if got := resp.Header.Get("X-Midas-Primary"); got != psrv.URL {
		t.Fatalf("X-Midas-Primary = %q, want %q", got, psrv.URL)
	}

	// /readyz details the log position, generation and role.
	resp, err = http.Get(fpanel.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 512)
	nread, _ := resp.Body.Read(b)
	resp.Body.Close()
	ready := string(b[:nread])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower readyz = %d:\n%s", resp.StatusCode, ready)
	}
	for _, want := range []string{"lsn=1", "generation=", "role=follower", "lag="} {
		if !strings.Contains(ready, want) {
			t.Fatalf("readyz missing %q:\n%s", want, ready)
		}
	}

	// Promotion flips the served role without restarting the panel.
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(fpanel.URL + "/patterns")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Midas-Replica"); got != "primary" {
		t.Fatalf("X-Midas-Replica after promote = %q, want primary", got)
	}
	resp, err = http.Post(fpanel.URL+"/maintain?delete=0", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write after promote = %d", resp.StatusCode)
	}
}
