package panel

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/snapshot"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/vfs"
)

// journalLines extracts the records appended to the journal file from a
// Sim trace, surviving the truncations MarkDone performs.
func journalLines(sim *vfs.Sim) []string {
	var lines []string
	for _, op := range sim.Trace() {
		if op.Kind == vfs.OpWrite && op.Path == "journal" {
			for _, l := range strings.Split(strings.TrimRight(string(op.Data), "\n"), "\n") {
				if l != "" {
					lines = append(lines, l)
				}
			}
		}
	}
	return lines
}

// TestJournalAppendOrderMatchesApplyOrder is the regression test for
// the write-ahead invariant under the async pipeline: journal records
// are appended in APPLY order, not submit order. The watcher's Begin
// hook runs on the pipeline goroutine immediately before its batch
// applies — so while a spool batch is still queued behind a wedged
// pipeline (and behind interleaved HTTP traffic) the journal must not
// mention it yet, and the final record sequence must be each batch's
// full begin→applied→done lifecycle in the order batches ran.
func TestJournalAppendOrderMatchesApplyOrder(t *testing.T) {
	s, _ := testServer(t)
	pipe := s.Pipeline()
	h := s.Handler()

	sim := vfs.NewSim()
	jr, err := store.OpenJournalFS(sim, "journal")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jr.Close() })

	dir := t.TempDir()
	w := &Watcher{Dir: dir, Journal: jr, Pipe: pipe}
	writeBatch(t, dir, "a.graphs", dataset.BoronicEsters().Generate(2, 9800, 5))
	writeBatch(t, dir, "b.graphs", dataset.BoronicEsters().Generate(2, 9820, 5))

	// Wedge the pipeline so everything below queues behind it.
	entered := make(chan struct{})
	release := make(chan struct{})
	wedge, err := pipe.Submit(snapshot.Batch{Name: "wedge", Before: func() error {
		close(entered)
		<-release
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	// The watcher submits a.graphs and blocks awaiting its result;
	// b.graphs only follows once a.graphs is terminal.
	type scanRes struct {
		n   int
		err error
	}
	scanned := make(chan scanRes, 1)
	go func() {
		n, err := w.Scan()
		scanned <- scanRes{n, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for pipe.Depth() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("spool batch never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// a.graphs is submitted and queued — but not applying. A journal
	// record now would mean Begin happens at submit time again.
	if lines := journalLines(sim); len(lines) != 0 {
		t.Fatalf("journal written while batch still queued: %v", lines)
	}

	// Interleave HTTP traffic: an async maintain queues behind a.graphs.
	ins := graph.Marshal(dataset.BoronicEsters().Generate(2, 9840, 5))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/maintain?async=1", strings.NewReader(ins)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async maintain = %d, want 202; body=%s", rec.Code, rec.Body.String())
	}
	if pos := rec.Header().Get("X-Midas-Queue-Position"); pos != "3" {
		t.Fatalf("queue position = %q, want 3 (wedge, a.graphs ahead)", pos)
	}

	close(release)
	if res := <-wedge.Done; res.Err != nil {
		t.Fatalf("wedge: %v", res.Err)
	}
	sr := <-scanned
	if sr.err != nil || sr.n != 2 {
		t.Fatalf("scan = %d, %v; want 2 applied", sr.n, sr.err)
	}

	// Apply order was wedge, a.graphs, http, b.graphs: four publishes
	// on top of the bootstrap generation.
	if gen := s.Handle().Generation(); gen != 5 {
		t.Fatalf("final generation = %d, want 5", gen)
	}

	// The journal saw each spool batch's complete lifecycle, in apply
	// order, with no interleaving.
	lines := journalLines(sim)
	wantPrefixes := []string{
		"begin a.graphs", "applied a.graphs", "done a.graphs",
		"begin b.graphs", "applied b.graphs", "done b.graphs",
	}
	if len(lines) != len(wantPrefixes) {
		t.Fatalf("journal lines = %v, want %d records", lines, len(wantPrefixes))
	}
	for i, want := range wantPrefixes {
		if !strings.HasPrefix(lines[i], want) {
			t.Fatalf("journal record %d = %q, want prefix %q\nall: %v", i, lines[i], want, lines)
		}
	}
}
