package panel

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/snapshot"
)

// TestSpoolPersistOrderMatchesApplyOrder pins spool batches to apply
// order under the async pipeline: the watcher's Persist hook, which
// writes the bundle's last-batch record, runs on the pipeline goroutine
// right after its batch applies — so while a spool batch is still
// queued behind a wedged pipeline (and behind interleaved HTTP
// traffic) nothing is recorded for it yet, and each batch is recorded
// at its place in the apply order.
func TestSpoolPersistOrderMatchesApplyOrder(t *testing.T) {
	s, _ := testServer(t)
	pipe := s.Pipeline()
	h := s.Handler()

	// Each record notes how many batches the pipeline had applied
	// before its own; one slot per spool batch.
	persisted := make(chan string, 2)
	dir := t.TempDir()
	w := &Watcher{Dir: dir, Pipe: pipe, Persist: func(name string, _ uint32) error {
		persisted <- fmt.Sprintf("%s after %d", name, pipe.Applied())
		return nil
	}}
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

	// a.graphs is submitted and queued — but not applying. A record now
	// would mean it is written at submit time.
	if n := len(persisted); n != 0 {
		t.Fatalf("%d batch(es) recorded while still queued", n)
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

	// Each spool batch was recorded right after it applied: a.graphs
	// after the wedge, b.graphs after the wedge, a.graphs and the HTTP
	// batch.
	close(persisted)
	var got []string
	for r := range persisted {
		got = append(got, r)
	}
	if want := []string{"a.graphs after 1", "b.graphs after 3"}; !slices.Equal(got, want) {
		t.Fatalf("records = %v, want %v", got, want)
	}
}
