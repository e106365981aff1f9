package panel

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/midas-graph/midas/internal/dataset"
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
