package panel

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/snapshot"
)

// TestRetryScheduleShape pins the retry schedule: exponential growth
// from Backoff, a 32× cap, jitter bounded by 25% of the capped base,
// and full determinism in (name, attempt).
func TestRetryScheduleShape(t *testing.T) {
	w := &Watcher{Backoff: 100 * time.Millisecond}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 9; attempt++ {
		shift := attempt - 1
		if shift > 5 {
			shift = 5
		}
		base := w.Backoff << shift
		d := w.retryDelay("b.graphs", attempt)
		if d < base || d >= base+base/4 {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, base, base+base/4)
		}
		if attempt <= 6 && d <= prev {
			t.Fatalf("attempt %d: delay %v did not grow past %v", attempt, d, prev)
		}
		if again := w.retryDelay("b.graphs", attempt); again != d {
			t.Fatalf("attempt %d: schedule not deterministic: %v then %v", attempt, d, again)
		}
		prev = d
	}
	// The cap: attempts past 6 keep the 32× base.
	if d := w.retryDelay("b.graphs", 40); d < w.Backoff<<5 || d >= (w.Backoff<<5)*5/4 {
		t.Fatalf("capped delay %v outside 32x band", d)
	}
	// Per-file jitter decorrelates batches failing together.
	if w.retryDelay("a.graphs", 1) == w.retryDelay("b.graphs", 1) {
		t.Fatal("distinct files got identical jitter")
	}
	// No backoff configured: retry immediately (the historical default).
	w0 := &Watcher{}
	if d := w0.retryDelay("b.graphs", 3); d != 0 {
		t.Fatalf("zero-backoff delay = %v, want 0", d)
	}
}

// TestWatcherBackoffWindowAndParking drives a poison batch through the
// whole retry lifecycle on a fake clock: fail, sit out the backoff
// window (blocking the batches behind it, preserving order), fail
// again, and get parked as *.failed with a .reason file — unblocking
// the spool.
func TestWatcherBackoffWindowAndParking(t *testing.T) {
	w, eng, dir := watcherFixture(t)
	w.MaxRetries = 2
	w.Backoff = time.Minute
	clock := time.Unix(1700000000, 0)
	w.Now = func() time.Time { return clock }

	os.WriteFile(filepath.Join(dir, "aa-poison.graphs"), []byte("not a graph"), 0o644)
	writeBatch(t, dir, "zz-good.graphs", dataset.BoronicEsters().Generate(2, 6000, 19))
	before := eng.DB().Len()

	// First failure starts the backoff window.
	if _, err := w.Scan(); err == nil {
		t.Fatal("first scan should error")
	}

	// Inside the window the head batch is skipped without another
	// attempt, and the good batch behind it stays blocked.
	n, err := w.Scan()
	if err != nil || n != 0 {
		t.Fatalf("in-window scan = %d, %v; want 0, nil", n, err)
	}
	if eng.DB().Len() != before {
		t.Fatal("blocked batch applied out of order during backoff")
	}
	if got := w.retries["aa-poison.graphs"]; got != 1 {
		t.Fatalf("in-window scan consumed a retry: attempts = %d", got)
	}

	// Past the window the retry runs, exhausts the budget, and parks.
	clock = clock.Add(w.retryDelay("aa-poison.graphs", 1) + time.Second)
	n, err = w.Scan()
	if err != nil {
		t.Fatalf("post-window scan: %v", err)
	}
	if n != 1 || eng.DB().Len() != before+2 {
		t.Fatalf("good batch not applied after parking: n=%d len=%d", n, eng.DB().Len())
	}
	if _, err := os.Stat(filepath.Join(dir, "aa-poison.graphs.failed")); err != nil {
		t.Fatal("poison batch not parked as *.failed")
	}
	reason, err := os.ReadFile(filepath.Join(dir, "aa-poison.graphs.failed.reason"))
	if err != nil {
		t.Fatalf("reason file: %v", err)
	}
	for _, want := range []string{"batch: aa-poison.graphs", "attempts: 2", "error: "} {
		if !strings.Contains(string(reason), want) {
			t.Fatalf("reason file missing %q:\n%s", want, reason)
		}
	}
}

// TestWatcherQueueFullKeepsRetryBudget is the regression test for a
// valid spool batch parked as *.failed because the maintenance queue
// was full: backpressure is not a failure of the batch. With one batch
// wedged in flight and the one-slot queue taken, every scan is turned
// away with ErrQueueFull; the file must stay pending with its retry
// budget untouched, and apply once the queue drains.
func TestWatcherQueueFullKeepsRetryBudget(t *testing.T) {
	eng, dir := watcherEngine(), t.TempDir()
	pipe := snapshot.NewPipeline(eng, snapshot.NewHandle(), snapshot.Config{QueueSize: 1})
	pipe.Start()
	release := make(chan struct{})
	var once sync.Once
	unwedge := func() { once.Do(func() { close(release) }) }
	// Pipeline.Stop waits for the in-flight Before hook, so the wedge is
	// released before the pipeline stops and before any failure.
	t.Cleanup(func() {
		unwedge()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pipe.Stop(ctx)
	})
	fail := func(format string, args ...any) {
		t.Helper()
		unwedge()
		t.Fatalf(format, args...)
	}

	started := make(chan struct{})
	wedge, err := pipe.Submit(snapshot.Batch{
		Name:   "wedge",
		Update: graph.Update{Insert: dataset.BoronicEsters().Generate(1, 5000, 1)},
		Before: func() error { close(started); <-release; return nil },
	})
	if err != nil {
		fail("submit wedge: %v", err)
	}
	<-started
	queued, err := pipe.Submit(snapshot.Batch{Name: "queued", Update: graph.Update{Insert: dataset.BoronicEsters().Generate(1, 5100, 2)}})
	if err != nil {
		fail("submit queued: %v", err)
	}

	w := &Watcher{Dir: dir, Pipe: pipe, MaxRetries: 3}
	writeBatch(t, dir, "a.graphs", dataset.BoronicEsters().Generate(2, 6000, 19))
	for scan := 1; scan <= w.MaxRetries; scan++ {
		if _, err := w.Scan(); !errors.Is(err, snapshot.ErrQueueFull) {
			fail("scan %d: err = %v, want ErrQueueFull", scan, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "a.graphs")); err != nil {
		fail("a valid batch left the spool under backpressure: %v", err)
	}
	if got := w.retries["a.graphs"]; got != 0 {
		fail("backpressure spent %d of the batch's retries", got)
	}

	unwedge()
	for _, tkt := range []snapshot.Ticket{wedge, queued} {
		if res := <-tkt.Done; res.Err != nil {
			t.Fatalf("batch %s: %v", res.Name, res.Err)
		}
	}
	before := eng.DB().Len()
	if n, err := w.Scan(); n != 1 || err != nil {
		t.Fatalf("scan after the queue drained: applied %d, err %v", n, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "a.graphs.done")); err != nil || eng.DB().Len() != before+2 {
		t.Fatalf("a.graphs not applied once the queue drained (%v)", err)
	}
}
