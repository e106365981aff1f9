package panel

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/midas-graph/midas/internal/snapshot"
)

// TestRetryAfterSeconds pins the Retry-After arithmetic: depth-scaled
// EWMA when one exists, fallback to the request timeout when not,
// ceiling to whole seconds, clamped to [1s, 600s].
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name     string
		depth    int
		ewma     time.Duration
		fallback time.Duration
		want     int64
	}{
		{"no signal at all", 0, 0, 0, 1},
		{"fallback to timeout", 0, 0, 5 * time.Second, 5},
		{"ewma overrides fallback", 0, 2 * time.Second, 30 * time.Second, 2},
		{"scales with depth", 3, 2 * time.Second, 0, 8},
		{"sub-second rounds up", 0, 500 * time.Millisecond, 0, 1},
		{"fractional rounds up", 1, 1500 * time.Millisecond, 0, 3},
		{"clamped at ten minutes", 10, time.Hour, 0, 600},
		{"negative ewma ignored", 2, -time.Second, 4 * time.Second, 4},
		{"sub-second fallback floors at one", 0, 0, 10 * time.Millisecond, 1},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.depth, tc.ewma, tc.fallback); got != tc.want {
			t.Errorf("%s: retryAfterSeconds(%d, %v, %v) = %d, want %d",
				tc.name, tc.depth, tc.ewma, tc.fallback, got, tc.want)
		}
	}
}

// TestRetryAfterDynamic exercises both branches against a live server:
// before any batch completes the 429 carries the request-timeout
// fallback; after one successful batch establishes a duration EWMA the
// estimate switches to depth×EWMA (tiny in a test, so it clamps to 1s
// — visibly different from the 7s fallback).
func TestRetryAfterDynamic(t *testing.T) {
	// Branch 1: no EWMA yet → fallback. The gate parks the in-flight
	// batch so nothing ever completes, a second batch fills the
	// size-one queue, and the third is shed with Retry-After = timeout.
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s, _ := testServerWith(t, snapshot.Config{
		QueueSize: 1,
		Gate: func(ctx context.Context) (func(), error) {
			entered <- struct{}{}
			select {
			case <-release:
				return func() {}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	s.SetRequestTimeout(7 * time.Second)
	h := s.Handler()
	t.Cleanup(func() { close(release) })

	body := "t 0\nv 0 C\nv 1 N\ne 0 1\n"
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/maintain?async=1", strings.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusAccepted {
		t.Fatalf("batch 1 = %d: %s", rec.Code, rec.Body.String())
	}
	// Wait for the pipeline goroutine to pull batch 1 off the queue and
	// park in the gate, so batch 2 deterministically occupies the queue.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("batch 1 never reached the gate")
	}
	if rec := post(); rec.Code != http.StatusAccepted {
		t.Fatalf("batch 2 = %d: %s", rec.Code, rec.Body.String())
	}
	rec := post()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch 3 = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("pre-EWMA Retry-After = %q, want request-timeout fallback \"7\"", got)
	}

	// Branch 2: a fresh server completes one batch; its EWMA (a few
	// milliseconds) now drives the estimate instead of the 7s timeout.
	s2, _ := testServer(t)
	s2.SetRequestTimeout(7 * time.Second)
	h2 := s2.Handler()
	rec = httptest.NewRecorder()
	h2.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/maintain", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("sync maintain = %d: %s", rec.Code, rec.Body.String())
	}
	if ewma := s2.Pipeline().BatchEWMA(); ewma <= 0 {
		t.Fatalf("BatchEWMA = %v after a successful batch, want > 0", ewma)
	}
	if got := s2.retryAfter(); got != "1" {
		t.Fatalf("post-EWMA retryAfter = %q, want depth-scaled \"1\" (not the 7s fallback)", got)
	}
}
