// Package panel serves a canned-pattern panel over HTTP: the pattern
// set as JSON and inline SVG (the "Panel 4" of the paper's Figure 1), a
// maintenance endpoint accepting batch updates, and a subgraph-query
// endpoint backed by the filter–verify search engine. It is the
// deployment shell around the midas engine: a GUI front end polls
// /patterns and posts user updates to /maintain.
package panel

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/snapshot"
	"github.com/midas-graph/midas/internal/telemetry"
)

// Server routes HTTP over serving plumbing it does not own. Reads and
// writes are decoupled: every engine mutation flows through a single
// background maintenance pipeline (internal/snapshot), and each
// successful batch publishes an immutable snapshot through an atomic
// generation pointer.
// Read handlers (/, /patterns, /quality, /query) load that pointer
// lock-free, so they never block on — or observe half of — an in-flight
// batch; a slow, failing, panicking or poisoned batch leaves readers on
// the last good generation, with the lag surfaced in the
// X-Midas-Generation / X-Midas-Staleness response headers.
//
// The handler chain is hardened for unattended deployment: a panicking
// handler is recovered to a 500 instead of killing the process, every
// request runs under an optional deadline (SetRequestTimeout) that
// propagates into Maintain and Query cancellation, and /healthz and
// /readyz expose liveness and readiness for process supervisors.
type Server struct {
	// pipe is the single-writer pipeline /maintain submits to; read
	// handlers load the generation pointer it publishes to. The owner
	// (tenant.Shard) builds the pipeline, publishes the first
	// generation and starts it before serving.
	pipe *snapshot.Pipeline
	// replica, when set, stamps replication role and lag onto every
	// snapshot-served response and the /readyz detail line.
	replica *ReplicaInfo

	// batchSeq names HTTP-submitted batches for logs and poison records.
	batchSeq atomic.Uint64

	// timeout bounds each request (0 = none). Set before serving.
	timeout time.Duration
	// sem bounds in-flight heavy requests (SetMaxInflight); nil =
	// unbounded.
	sem chan struct{}
	// ready gates /readyz; flipped off during shutdown drain.
	ready atomic.Bool

	// reg and tel are installed by SetTelemetry: reg backs /metrics and
	// /debug/vars, tel the per-request middleware observations.
	reg *telemetry.Registry
	tel *serverTelemetry
	// pprofOn exposes net/http/pprof under /debug/pprof/ (EnablePprof).
	pprofOn bool
	// logger, when set via SetLogger, receives leveled diagnostics.
	logger *telemetry.Logger

	// Logf, if set, receives diagnostic lines (e.g. log.Printf):
	// recovered panics and response-encoding failures. Kept as a compat
	// shim; SetLogger supersedes it.
	Logf func(format string, args ...interface{})
}

// New routes over a pipeline its caller owns: reads load the pipeline's
// handle lock-free, and /maintain submits through pipe, whose admission
// hook may fence writes (a replication follower's 503 + Retry-After +
// X-Midas-Primary). The owner publishes the first generation, starts
// the pipeline and stops it; the server never does. It starts ready;
// SetReady(false) drains /readyz.
func New(pipe *snapshot.Pipeline) *Server {
	s := &Server{pipe: pipe}
	s.ready.Store(true)
	return s
}

// ReplicaInfo surfaces a replication node's identity to clients. All
// fields are functions because the answers change at runtime —
// promotion bumps the role, every applied record moves the LSN, and a
// partition grows the lag. Nil funcs are treated as absent.
type ReplicaInfo struct {
	// Role is "primary" or "follower", stamped into X-Midas-Replica.
	Role func() string
	// LSN is the last replication-log position applied locally.
	LSN func() uint64
	// Lag is the staleness behind the primary (0 on the primary),
	// stamped into X-Midas-Replication-Lag.
	Lag func() time.Duration
	// Primary is the primary's base URL ("" when unknown or self) —
	// the X-Midas-Primary redirect hint on fenced writes.
	Primary func() string
}

// SetReplicaInfo installs the replication identity stamped onto
// responses (X-Midas-Replica, X-Midas-Replication-Lag, and
// X-Midas-Primary on fenced writes). Call before serving traffic.
func (s *Server) SetReplicaInfo(info *ReplicaInfo) { s.replica = info }

// SetRequestTimeout bounds every request's context (0 disables). Call
// before serving traffic.
func (s *Server) SetRequestTimeout(d time.Duration) { s.timeout = d }

// Pipeline returns the maintenance pipeline the server submits to.
// Out-of-band producers (the spool Watcher) submit through it, so all
// batches apply in one order.
func (s *Server) Pipeline() *snapshot.Pipeline { return s.pipe }

// Handle returns the generation pointer the read handlers load.
func (s *Server) Handle() *snapshot.Handle { return s.pipe.Handle() }

// SetMaxInflight bounds the heavy requests (/maintain, /query) served
// concurrently (0 disables). Excess requests are shed immediately with
// a 503 and a Retry-After header instead of queueing until the
// per-request timeout fires — under overload, fast rejection keeps the
// accepted requests inside their deadlines. Snapshot reads, health,
// readiness and metrics endpoints are never shed: they are lock-free
// pointer loads and must stay observable while the pipeline grinds.
// Call before Handler().
func (s *Server) SetMaxInflight(n int) {
	if n <= 0 {
		s.sem = nil
		return
	}
	s.sem = make(chan struct{}, n)
}

// heavyRoute reports whether the path does per-request engine-scale
// work (batch submission, VF2 search) — the routes the shedding
// middleware protects. Snapshot reads are deliberately excluded.
func heavyRoute(path string) bool {
	switch path {
	case "/maintain", "/query":
		return true
	}
	return false
}

// withShedding rejects heavy requests beyond the SetMaxInflight bound
// with an immediate 503 + Retry-After. It sits inside recovery (a shed
// must be counted even if later middleware panics) and outside the
// timeout (a shed request never starts its deadline).
func (s *Server) withShedding(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sem := s.sem
		if sem == nil || !heavyRoute(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			if s.tel != nil {
				s.tel.shed.Inc()
			}
			s.countError("shed")
			w.Header().Set("Retry-After", s.retryAfter())
			http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
		}
	})
}

// retryAfter suggests when a rejected client should come back,
// proportionally to the work already ahead of it: the pipeline's
// observed batch-duration EWMA times the current queue depth (plus the
// slot the client will take), rounded up to whole seconds and clamped
// to [1s, 10min]. Before any batch has completed — no EWMA yet — it
// falls back to the request timeout, or 1s when none is set.
func (s *Server) retryAfter() string {
	return strconv.FormatInt(retryAfterSeconds(s.pipe.Depth(), s.pipe.BatchEWMA(), s.timeout), 10)
}

// retryAfterSeconds is the Retry-After arithmetic, factored out so the
// clamping and rounding are unit-testable without a live pipeline.
func retryAfterSeconds(depth int, ewma, fallback time.Duration) int64 {
	var est time.Duration
	if ewma > 0 {
		est = time.Duration(depth+1) * ewma
	}
	if est <= 0 {
		est = fallback
	}
	secs := int64((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

// SetReady flips the /readyz verdict; supervisors stop routing traffic
// to a not-ready instance, letting shutdown drain gracefully.
func (s *Server) SetReady(ok bool) { s.ready.Store(ok) }

// Handler returns the route table wrapped in the middleware chain:
// metrics (outermost, also installs the double-write guard), panic
// recovery, then the request deadline. /metrics and /debug/vars appear
// when SetTelemetry was called, /debug/pprof/ when EnablePprof was —
// otherwise those paths 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/patterns", s.handlePatterns)
	mux.HandleFunc("/quality", s.handleQuality)
	mux.HandleFunc("/maintain", s.handleMaintain)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	if s.reg != nil {
		mux.HandleFunc("/metrics", s.handleMetricsPage)
		mux.HandleFunc("/debug/vars", s.handleVars)
	}
	if s.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.withMetrics(s.withRecovery(s.withShedding(s.withTimeout(mux))))
}

// withRecovery turns a handler panic into a 500 so one poisoned request
// cannot take the serving process down. The 500 goes through the
// statusWriter guard, so a handler that already responded before
// panicking does not get a second status line.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if s.tel != nil {
					s.tel.panics.Inc()
				}
				s.countError("panic")
				s.logf(telemetry.LevelError, "panel: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withTimeout applies the per-request deadline; handlers pass the
// request context into the pipeline and QueryContext, so the deadline
// actually interrupts long engine work. A handler that honoured the
// expired context answered 504 itself (errorOut); one that ignored it
// and returned without responding gets the 504 written here. The
// statusWriter guard makes the two cases mutually exclusive, so a
// timed-out request never sees two status lines.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.timeout <= 0 {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
		if ctx.Err() == nil {
			return
		}
		if sw, ok := w.(*statusWriter); ok && !sw.wrote {
			s.countError("timeout")
			http.Error(sw, "request timed out", http.StatusGatewayTimeout)
		}
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz distinguishes three states: draining (503, shutdown in
// progress), never loaded (503, no snapshot published — nothing to
// serve), and serving (200) — where a panel lagging behind enqueued
// maintenance says so but stays ready: stale answers from the last good
// generation are the design, not a failure.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	snap := s.pipe.Handle().Load()
	if snap == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "no snapshot published\n")
		return
	}
	// The detail clause carries the applied-batch position and the
	// last-publish generation so a probe can tell how far a lagging
	// shard is behind without a second request.
	detail := fmt.Sprintf("generation=%d lsn=%d", snap.Generation, s.lsn())
	if ri := s.replica; ri != nil {
		if ri.Role != nil {
			detail += " role=" + ri.Role()
		}
		if ri.Lag != nil {
			detail += fmt.Sprintf(" lag=%.3fs", ri.Lag().Seconds())
		}
	}
	if st := s.pipe.Staleness(); st > 0 {
		fmt.Fprintf(w, "ready (stale: serving generation %d, %.3fs behind %d pending batch(es); %s)\n",
			snap.Generation, st.Seconds(), s.pipe.Depth(), detail)
		return
	}
	fmt.Fprintf(w, "ready (%s)\n", detail)
}

// lsn is the shard's applied-batch count, or the replication-log LSN
// on a replicated node.
func (s *Server) lsn() uint64 {
	if ri := s.replica; ri != nil && ri.LSN != nil {
		return ri.LSN()
	}
	return s.pipe.Applied()
}

// snapshotHeaders stamps every snapshot-served response with which
// generation answered and how far it lags behind enqueued work, so
// clients and probes can reason about freshness without a second
// request.
func (s *Server) snapshotHeaders(w http.ResponseWriter, snap *snapshot.Snapshot) {
	h := w.Header()
	h.Set("X-Midas-Generation", strconv.FormatUint(snap.Generation, 10))
	h.Set("X-Midas-Staleness", strconv.FormatFloat(s.pipe.Staleness().Seconds(), 'f', 3, 64))
	if snap.Degraded {
		h.Set("X-Midas-Degraded", "1")
	}
	if ri := s.replica; ri != nil {
		if ri.Role != nil {
			h.Set("X-Midas-Replica", ri.Role())
		}
		if ri.Lag != nil {
			h.Set("X-Midas-Replication-Lag", strconv.FormatFloat(ri.Lag().Seconds(), 'f', 3, 64))
		}
	}
}

// loadSnapshot returns the current snapshot for a read handler, or
// answers 503 and returns nil when none was ever published (only
// possible before the owner published its first generation).
func (s *Server) loadSnapshot(w http.ResponseWriter) *snapshot.Snapshot {
	snap := s.pipe.Handle().Load()
	if snap == nil {
		s.countError("nosnapshot")
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return nil
	}
	return snap
}

// statusForError maps engine errors to HTTP statuses: errors that
// carry their own verdict (replication fencing's 503) win, then ID
// conflicts are 409, other invalid updates 400, deadline expiry 504,
// client cancellation 503, anything else 500.
func statusForError(err error) int {
	// An error that knows its own status — the replica package's
	// not-primary fence, without importing it here.
	var hs interface{ HTTPStatus() int }
	if errors.As(err, &hs) {
		return hs.HTTPStatus()
	}
	switch {
	case errors.Is(err, midas.ErrConflict):
		return http.StatusConflict
	case errors.Is(err, midas.ErrInvalidUpdate):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// patternJSON is the wire form of one canned pattern.
type patternJSON struct {
	ID       int        `json:"id"`
	Vertices []string   `json:"vertices"`
	Edges    [][2]int   `json:"edges"`
	Size     int        `json:"size"`
	Cog      float64    `json:"cognitiveLoad"`
	Scov     float64    `json:"scov"`
	SVG      string     `json:"svg,omitempty"`
	Text     string     `json:"text"`
	Extra    *extraJSON `json:"-"`
}

type extraJSON struct{}

// patternToJSON renders one pattern; svg is the pre-rendered view from
// the snapshot ("" omits it).
func patternToJSON(p *graph.Graph, svg string) patternJSON {
	pj := patternJSON{
		ID:       p.ID,
		Vertices: append([]string(nil), p.Labels()...),
		Size:     p.Size(),
		Cog:      p.CognitiveLoad(),
		Text:     p.String(),
		SVG:      svg,
	}
	for _, e := range p.Edges() {
		pj.Edges = append(pj.Edges, [2]int{e.U, e.V})
	}
	return pj
}

func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	snap := s.loadSnapshot(w)
	if snap == nil {
		return
	}
	s.snapshotHeaders(w, snap)
	withSVG := r.URL.Query().Get("svg") == "1"
	out := make([]patternJSON, 0, len(snap.Patterns))
	for i, p := range snap.Patterns {
		svg := ""
		if withSVG {
			svg = snap.SVG(i)
		}
		pj := patternToJSON(p, svg)
		pj.Scov = snap.Scov(i)
		out = append(out, pj)
	}
	s.writeJSON(w, out)
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	snap := s.loadSnapshot(w)
	if snap == nil {
		return
	}
	s.snapshotHeaders(w, snap)
	q := snap.Quality
	s.writeJSON(w, map[string]float64{
		"scov": q.Scov, "lcov": q.Lcov, "div": q.Div, "cog": q.Cog, "score": q.Score(),
	})
}

// handleMaintain accepts a batch update: the request body carries the
// Δ+ graphs in the text format; ?delete=1,2,3 lists Δ- IDs. The update
// is shape-validated here (junk input is rejected without touching the
// queue), then submitted to the maintenance pipeline, which remaps
// colliding insert IDs on its own goroutine before applying.
//
// By default the handler waits for the batch's terminal result —
// preserving the classic synchronous contract (200 with the report,
// 400/409 on invalid updates, 504 when the request deadline expires
// mid-batch). With ?async=1 it returns 202 immediately with the batch's
// queue position; the batch then runs under the pipeline's lifetime
// rather than the request's. Either way, a full queue is backpressure:
// 429 with Retry-After, the engine untouched.
func (s *Server) handleMaintain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var u graph.Update
	if len(strings.TrimSpace(string(body))) > 0 {
		ins, err := graph.Unmarshal(string(body))
		if err != nil {
			http.Error(w, "bad insert graphs: "+err.Error(), http.StatusBadRequest)
			return
		}
		u.Insert = ins
	}
	if del := r.URL.Query().Get("delete"); del != "" {
		for _, tok := range strings.Split(del, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				http.Error(w, "bad delete id: "+tok, http.StatusBadRequest)
				return
			}
			u.Delete = append(u.Delete, id)
		}
	}
	if err := midas.ValidateShape(u); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	name := fmt.Sprintf("http-%d", s.batchSeq.Add(1))
	batch := snapshot.Batch{Name: name, Update: u}
	async := r.URL.Query().Get("async") == "1"
	if !async {
		// Synchronous: the request deadline bounds the batch itself.
		batch.Ctx = r.Context()
	}
	tkt, err := s.pipe.Submit(batch)
	if err != nil {
		s.maintainRejected(w, err)
		return
	}
	if async {
		w.Header().Set("X-Midas-Queue-Position", strconv.Itoa(tkt.Position))
		s.writeJSONStatus(w, http.StatusAccepted, map[string]interface{}{
			"queued":   true,
			"batch":    name,
			"position": tkt.Position,
		})
		return
	}
	select {
	case res := <-tkt.Done:
		if res.Err != nil {
			s.errorOut(w, res.Err)
			return
		}
		w.Header().Set("X-Midas-Generation", strconv.FormatUint(res.Generation, 10))
		s.writeJSON(w, map[string]interface{}{
			"inserted":         len(u.Insert),
			"deleted":          len(u.Delete),
			"graphletDistance": res.Report.GraphletDistance,
			"major":            res.Report.Major,
			"swaps":            res.Report.Swaps,
			"pmtMillis":        res.Report.PMT.Milliseconds(),
			"generation":       res.Generation,
		})
	case <-r.Context().Done():
		// The batch outlived its request; it fails with the same context
		// error on the pipeline goroutine and the engine rolls back.
		s.errorOut(w, r.Context().Err())
	}
}

// maintainRejected answers a submission the pipeline refused: a full
// queue is backpressure (429 + Retry-After — the client's signal to
// slow down, the engine untouched), a stopped pipeline means shutdown.
func (s *Server) maintainRejected(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, snapshot.ErrQueueFull):
		s.countError("backpressure")
		w.Header().Set("Retry-After", s.retryAfter())
		http.Error(w, "maintenance queue full, retry later", http.StatusTooManyRequests)
	case errors.Is(err, snapshot.ErrStopped):
		s.countError("cancelled")
		http.Error(w, "maintenance pipeline stopped", http.StatusServiceUnavailable)
	default:
		s.errorOut(w, err)
	}
}

// handleQuery executes a subgraph query given in the text format
// against the current snapshot's isolated search structures — never
// against the live engine, so a concurrent batch cannot race it.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	qs, err := graph.Unmarshal(string(body))
	if err != nil {
		http.Error(w, "bad query graph: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(qs) != 1 {
		http.Error(w, "body must contain exactly one query graph", http.StatusBadRequest)
		return
	}
	limit := 0
	if l := r.URL.Query().Get("limit"); l != "" {
		limit, err = strconv.Atoi(l)
		if err != nil {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
	}
	snap := s.loadSnapshot(w)
	if snap == nil {
		return
	}
	s.snapshotHeaders(w, snap)
	results, stats, err := snap.Searcher.QueryContext(r.Context(), qs[0], limit)
	if err != nil {
		s.errorOut(w, err)
		return
	}
	ids := make([]int, len(results))
	for i, res := range results {
		ids[i] = res.GraphID
	}
	s.writeJSON(w, map[string]interface{}{
		"matches":    ids,
		"candidates": stats.Candidates,
		"pruned":     stats.Pruned,
	})
}

// handleIndex renders a minimal HTML panel with the patterns as SVG.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	snap := s.loadSnapshot(w)
	if snap == nil {
		return
	}
	s.snapshotHeaders(w, snap)
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html><html><head><title>MIDAS pattern panel</title>
<style>body{font-family:sans-serif;background:#fafafa}
.p{display:inline-block;margin:8px;padding:8px;background:#fff;border:1px solid #ccc;border-radius:6px;text-align:center}
.p small{color:#666}</style></head><body>`)
	q := snap.Quality
	fmt.Fprintf(&b, "<h1>Canned patterns (%d graphs in DB)</h1>", snap.DBLen)
	fmt.Fprintf(&b, "<p>scov %.3f · lcov %.3f · div %.2f · cog %.2f</p>", q.Scov, q.Lcov, q.Div, q.Cog)
	fmt.Fprintf(&b, "<p><small>generation %d", snap.Generation)
	if st := s.pipe.Staleness(); st > 0 {
		fmt.Fprintf(&b, " · %.1fs behind pending maintenance", st.Seconds())
	}
	if snap.Degraded {
		b.WriteString(" · <b>degraded</b>")
	}
	b.WriteString("</small></p>")
	for i, p := range snap.Patterns {
		svg := snap.SVG(i)
		if svg == "" {
			svg = SVG(p, 120)
		}
		fmt.Fprintf(&b, `<div class="p">%s<br><small>#%d · %d edges · covers %.0f%%</small></div>`,
			svg, p.ID, p.Size(), 100*snap.Scov(i))
	}
	b.WriteString("</body></html>")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, b.String())
}

// writeJSON encodes v to the response. An encoding failure after the
// status line is unrecoverable for the client, but it must not vanish:
// it is reported through Logf.
func (s *Server) writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.logf(telemetry.LevelWarn, "panel: encoding response: %v", err)
	}
}

// writeJSONStatus is writeJSON with an explicit status line (headers
// must be final before WriteHeader).
func (s *Server) writeJSONStatus(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.logf(telemetry.LevelWarn, "panel: encoding response: %v", err)
	}
}
