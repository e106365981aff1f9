package tenant

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/snapshot"
	"github.com/midas-graph/midas/internal/telemetry"
)

// testEngineOptions is the small-but-real engine configuration the
// snapshot pipeline tests established: quick to bootstrap, big enough
// to exercise maintenance for real.
func testEngineOptions() midas.Options {
	return midas.Options{
		Budget:  midas.Budget{MinSize: 2, MaxSize: 4, Count: 5},
		SupMin:  0.4,
		Epsilon: 0.02,
		Walks:   30,
		Seed:    1,
		Workers: 1,
	}
}

// memoryOptions builds registry options whose shards live entirely in
// memory: no disk, no watcher — each tenant gets its own generated
// database with a tenant-specific seed so their pattern sets differ.
func memoryOptions() Options {
	return Options{
		Engine:  testEngineOptions(),
		Retries: 2,
		Backoff: time.Millisecond,
		NewEngine: func(id string, opts midas.Options) (*midas.Engine, bool, error) {
			seed := int64(1)
			for i := 0; i < len(id); i++ {
				seed = seed*31 + int64(id[i])
			}
			db := dataset.EMolLike().GenerateDB(16, seed)
			return midas.New(db, opts), false, nil
		},
	}
}

func addTenant(t *testing.T, r *Registry, id string) *Shard {
	t.Helper()
	sh, err := r.Add(id, Overrides{})
	if err != nil {
		t.Fatalf("Add(%s): %v", id, err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Remove is idempotent via ErrUnknown: tests that already
		// removed the tenant don't double-drain.
		if err := r.Remove(ctx, id); err != nil && !errors.Is(err, ErrUnknown) {
			t.Errorf("cleanup drain %s: %v", id, err)
		}
	})
	return sh
}

func get(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestValidateID(t *testing.T) {
	for _, ok := range []string{"aids", "pub_chem", "emol-2024", "a", strings.Repeat("x", 64)} {
		if err := ValidateID(ok); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "-lead", "Upper", "dot.dot", "sla/sh", "sp ace", "..", strings.Repeat("x", 65)} {
		if err := ValidateID(bad); err == nil {
			t.Errorf("ValidateID(%q) = nil, want error", bad)
		}
	}
}

func TestParseManifest(t *testing.T) {
	src := `
# production tenants
aids
pubchem  gamma=30 supmin=0.3   # override the display budget
emol     workers=2 max-inflight=8 maintain-queue=16 seed=7
`
	entries, err := ParseManifest(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(entries))
	}
	if entries[0].ID != "aids" || entries[1].ID != "pubchem" || entries[2].ID != "emol" {
		t.Fatalf("ids = %v %v %v", entries[0].ID, entries[1].ID, entries[2].ID)
	}
	pc := entries[1].Overrides
	if pc.Gamma == nil || *pc.Gamma != 30 || pc.SupMin == nil || *pc.SupMin != 0.3 {
		t.Fatalf("pubchem overrides = %+v", pc)
	}
	em := entries[2].Overrides
	if em.Workers == nil || *em.Workers != 2 || em.MaxInflight == nil || *em.MaxInflight != 8 ||
		em.QueueSize == nil || *em.QueueSize != 16 || em.Seed == nil || *em.Seed != 7 {
		t.Fatalf("emol overrides = %+v", em)
	}

	for _, bad := range []string{
		"aids\naids\n",           // duplicate
		"BadID\n",                // invalid id
		"aids gamma\n",           // malformed override
		"aids gamma=x\n",         // malformed value
		"aids nonsense=3\n",      // unknown key
		"aids max-inflight=-1\n", // negative
	} {
		if _, err := ParseManifest(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseManifest(%q) succeeded, want error", bad)
		}
	}
}

// TestEngineOptionsKeepsZeroWorkers pins workers=0 (a manifest override
// or the process default) to the sequential reference path: the shard
// engine gets 0, not a pool as wide as the machine.
func TestEngineOptionsKeepsZeroWorkers(t *testing.T) {
	zero := 0
	o := &Options{Engine: midas.Options{Workers: 3}}
	if got := o.engineOptions(Overrides{Workers: &zero}).Workers; got != 0 {
		t.Fatalf("override workers=0: engine Workers = %d, want 0", got)
	}
	o = &Options{}
	if got := o.engineOptions(Overrides{}).Workers; got != 0 {
		t.Fatalf("process default workers=0: engine Workers = %d, want 0", got)
	}
}

func TestBudgetWeightedFIFO(t *testing.T) {
	b := NewBudget(4)
	ctx := context.Background()

	rel1, err := b.Acquire(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.InUse(); got != 3 {
		t.Fatalf("InUse = %d, want 3", got)
	}

	// A wide waiter queues; a narrow one that would fit must not
	// leapfrog it (strict FIFO, no starvation of wide batches).
	wideDone := make(chan struct{})
	narrowDone := make(chan struct{})
	ready := make(chan struct{}, 2)
	go func() {
		ready <- struct{}{}
		rel, err := b.Acquire(ctx, 4)
		if err != nil {
			t.Error(err)
		}
		close(wideDone)
		rel()
	}()
	<-ready
	waitFor(t, func() bool { return b.Waiting() == 1 })
	go func() {
		ready <- struct{}{}
		rel, err := b.Acquire(ctx, 1)
		if err != nil {
			t.Error(err)
		}
		close(narrowDone)
		rel()
	}()
	<-ready
	waitFor(t, func() bool { return b.Waiting() == 2 })
	select {
	case <-wideDone:
		t.Fatal("wide waiter admitted while capacity was held")
	case <-narrowDone:
		t.Fatal("narrow waiter leapfrogged the wide one")
	case <-time.After(20 * time.Millisecond):
	}

	rel1()
	<-wideDone
	<-narrowDone

	// Weight clamping: a batch wider than the whole budget still runs.
	rel, err := b.Acquire(ctx, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.InUse(); got != 4 {
		t.Fatalf("clamped InUse = %d, want 4", got)
	}
	rel()
	rel() // idempotent
	if got := b.InUse(); got != 0 {
		t.Fatalf("after release InUse = %d, want 0", got)
	}

	// Context cancellation removes the waiter.
	relHold, _ := b.Acquire(ctx, 4)
	cctx, cancel := context.WithCancel(ctx)
	errCh := make(chan error, 1)
	go func() {
		_, err := b.Acquire(cctx, 1)
		errCh <- err
	}()
	waitFor(t, func() bool { return b.Waiting() == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Acquire = %v, want context.Canceled", err)
	}
	if got := b.Waiting(); got != 0 {
		t.Fatalf("Waiting after cancel = %d, want 0", got)
	}
	relHold()

	// nil budget admits everything.
	var nb *Budget
	rel, err = nb.Acquire(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPlacementStableAndBalanced(t *testing.T) {
	p3 := NewPlacement(3)
	tenants := make([]string, 200)
	counts := make([]int, 3)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
		slot := p3.Slot(tenants[i])
		if slot < 0 || slot > 2 {
			t.Fatalf("slot out of range: %d", slot)
		}
		counts[slot]++
		if again := p3.Slot(tenants[i]); again != slot {
			t.Fatalf("placement not deterministic for %s: %d vs %d", tenants[i], slot, again)
		}
	}
	for slot, n := range counts {
		if n == 0 {
			t.Fatalf("slot %d received no tenants: %v", slot, counts)
		}
	}

	// Consistency: growing the ring 3→4 must only move tenants, never
	// shuffle tenants between surviving slots arbitrarily — every
	// tenant either keeps its slot or moves to the new one.
	p4 := NewPlacement(4)
	moved := 0
	for _, id := range tenants {
		from, to := p3.Slot(id), p4.Slot(id)
		if from == to {
			continue
		}
		moved++
		if to != 3 {
			t.Fatalf("tenant %s moved %d→%d when only slot 3 was added", id, from, to)
		}
	}
	if moved == 0 || moved == len(tenants) {
		t.Fatalf("adding a slot moved %d/%d tenants — consistent hashing should move roughly 1/4", moved, len(tenants))
	}

	// One-slot ring pins everything to 0.
	p1 := NewPlacement(1)
	for _, id := range tenants[:10] {
		if p1.Slot(id) != 0 {
			t.Fatal("one-slot ring must place everything on slot 0")
		}
	}
}

func TestRegistryAddGetRemove(t *testing.T) {
	r := NewRegistry(memoryOptions())
	shA := addTenant(t, r, "aids")
	if got, ok := r.Get("aids"); !ok || got != shA {
		t.Fatal("Get must return the attached shard")
	}
	if _, err := r.Add("aids", Overrides{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Add = %v, want ErrExists", err)
	}
	if _, err := r.Add("Bad/ID", Overrides{}); err == nil {
		t.Fatal("invalid id must be rejected")
	}
	addTenant(t, r, "emol")
	if ids := r.IDs(); len(ids) != 2 || ids[0] != "aids" || ids[1] != "emol" {
		t.Fatalf("IDs = %v", ids)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Remove(ctx, "aids"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, ok := r.Get("aids"); ok {
		t.Fatal("removed tenant still routable")
	}
	if err := r.Remove(ctx, "aids"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("second Remove = %v, want ErrUnknown", err)
	}
	// Re-add after drain: the ID is free again.
	addTenant(t, r, "aids")
}

func TestRegistryPlacementScoping(t *testing.T) {
	opts := memoryOptions()
	opts.Placement = NewPlacement(2)
	// Find a tenant for each slot.
	var mine, other string
	for i := 0; mine == "" || other == ""; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		if opts.Placement.Slot(id) == 0 {
			if mine == "" {
				mine = id
			}
		} else if other == "" {
			other = id
		}
	}
	opts.Slot = 0
	r := NewRegistry(opts)
	addTenant(t, r, mine)
	if _, err := r.Add(other, Overrides{}); !errors.Is(err, ErrMisplaced) {
		t.Fatalf("Add(%s) on wrong slot = %v, want ErrMisplaced", other, err)
	}

	// The router answers 421 for misplaced tenants, 404 for unknowns.
	rt := NewRouter(r, nil, nil)
	if w := get(t, rt, "/t/"+other+"/patterns", nil); w.Code != http.StatusMisdirectedRequest {
		t.Fatalf("misplaced tenant status = %d, want 421", w.Code)
	}
}

func TestRouterDispatchAndHeaders(t *testing.T) {
	r := NewRegistry(memoryOptions())
	addTenant(t, r, "aids")
	addTenant(t, r, "emol")
	rt := NewRouter(r, nil, nil)

	// Path routing with the prefix stripped, response stamped.
	w := get(t, rt, "/t/aids/patterns", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/t/aids/patterns = %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Midas-Tenant"); got != "aids" {
		t.Fatalf("X-Midas-Tenant = %q, want aids", got)
	}
	if w.Header().Get("X-Midas-Generation") == "" {
		t.Fatal("shard headers must pass through the router")
	}

	// Bare /t/{id} serves the shard index.
	if w := get(t, rt, "/t/emol", nil); w.Code != http.StatusOK ||
		!strings.Contains(w.Body.String(), "Canned patterns") {
		t.Fatalf("/t/emol = %d", w.Code)
	}

	// Header fallback addresses the tenant without the path prefix.
	w = get(t, rt, "/quality", map[string]string{"X-Midas-Tenant": "emol"})
	if w.Code != http.StatusOK || w.Header().Get("X-Midas-Tenant") != "emol" {
		t.Fatalf("header-fallback = %d tenant=%q", w.Code, w.Header().Get("X-Midas-Tenant"))
	}

	// Unknown tenants 404 with the contract message.
	w = get(t, rt, "/t/nope/patterns", nil)
	if w.Code != http.StatusNotFound || !strings.Contains(w.Body.String(), "unknown tenant") {
		t.Fatalf("unknown tenant = %d %q", w.Code, w.Body.String())
	}
	if w := get(t, rt, "/untenanted", nil); w.Code != http.StatusNotFound {
		t.Fatalf("no tenant, no header = %d, want 404", w.Code)
	}

	// Process index lists both tenants.
	w = get(t, rt, "/", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"aids"`) ||
		!strings.Contains(w.Body.String(), `"emol"`) {
		t.Fatalf("index = %d %s", w.Code, w.Body.String())
	}

	// Distinct shards, distinct engines: different pattern payloads.
	a := get(t, rt, "/t/aids/patterns", nil).Body.String()
	e := get(t, rt, "/t/emol/patterns", nil).Body.String()
	if a == e {
		t.Fatal("two tenants with different seeds served identical pattern sets")
	}

	// /healthz and aggregated /readyz.
	if w := get(t, rt, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatal("healthz")
	}
	w = get(t, rt, "/readyz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("readyz = %d", w.Code)
	}
	body := w.Body.String()
	if !strings.HasPrefix(body, "ok (2 tenant(s))") ||
		!strings.Contains(body, "aids: ok") || !strings.Contains(body, "emol: ok") {
		t.Fatalf("readyz body:\n%s", body)
	}
	rt.SetDraining(true)
	if w := get(t, rt, "/readyz", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", w.Code)
	}
}

func TestRouterAdminLifecycle(t *testing.T) {
	r := NewRegistry(memoryOptions())
	rt := NewRouter(r, nil, nil)

	do := func(method, path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, nil)
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, req)
		return w
	}

	// Admin off: mutations are forbidden, listing still works.
	if w := do(http.MethodPost, "/admin/tenants/aids"); w.Code != http.StatusForbidden {
		t.Fatalf("admin-off POST = %d, want 403", w.Code)
	}
	rt.EnableAdmin()

	if w := do(http.MethodPost, "/admin/tenants/aids?gamma=4"); w.Code != http.StatusCreated {
		t.Fatalf("POST add = %d: %s", w.Code, w.Body.String())
	}
	sh, ok := r.Get("aids")
	if !ok {
		t.Fatal("admin-added tenant not routable")
	}
	if got := sh.opts.Budget.Count; got != 4 {
		t.Fatalf("gamma override not applied: %d", got)
	}
	if w := do(http.MethodPost, "/admin/tenants/aids"); w.Code != http.StatusConflict {
		t.Fatalf("duplicate POST = %d, want 409", w.Code)
	}
	if w := do(http.MethodPost, "/admin/tenants/aids?gamma=oops"); w.Code != http.StatusConflict {
		// Overrides parse before Add; an existing tenant still conflicts
		// only when the overrides are valid.
		if w.Code != http.StatusBadRequest {
			t.Fatalf("bad override POST = %d", w.Code)
		}
	}
	if w := do(http.MethodGet, "/admin/tenants/aids"); w.Code != http.StatusOK ||
		!strings.Contains(w.Body.String(), `"state": "ok"`) {
		t.Fatalf("GET status = %d %s", w.Code, w.Body.String())
	}
	if w := do(http.MethodGet, "/admin/tenants"); !strings.Contains(w.Body.String(), `"aids"`) {
		t.Fatalf("GET list: %s", w.Body.String())
	}

	if w := do(http.MethodDelete, "/admin/tenants/aids"); w.Code != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", w.Code, w.Body.String())
	}
	if _, ok := r.Get("aids"); ok {
		t.Fatal("deleted tenant still routable")
	}
	if w := do(http.MethodDelete, "/admin/tenants/aids"); w.Code != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", w.Code)
	}
}

// TestSharedBudgetSerializesMaintenance pins the isolation mechanism:
// with a budget of exactly one worker, two tenants' batches must run
// one at a time — the gate is actually acquired through the pipeline.
// The Commit hook runs after each apply, inside the gate, so it sees
// any overlap.
func TestSharedBudgetSerializesMaintenance(t *testing.T) {
	var inFlight, maxInFlight atomic.Int64
	opts := memoryOptions()
	opts.Budget = NewBudget(1)
	opts.Commit = func(snapshot.Batch) (map[string]string, error) {
		if v := inFlight.Add(1); v > maxInFlight.Load() {
			maxInFlight.Store(v)
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
		return nil, nil
	}
	r := NewRegistry(opts)
	shA := addTenant(t, r, "aids")
	shB := addTenant(t, r, "emol")

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for _, sh := range []*Shard{shA, shB} {
			wg.Add(1)
			go func(sh *Shard, i int) {
				defer wg.Done()
				body := strings.NewReader("t 0\nv 0 C\nv 1 C\ne 0 1\n")
				req := httptest.NewRequest(http.MethodPost, "/maintain", body)
				w := httptest.NewRecorder()
				sh.Handler().ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("maintain on %s = %d: %s", sh.ID, w.Code, w.Body.String())
				}
			}(sh, i)
		}
	}
	wg.Wait()
	if got := maxInFlight.Load(); got != 1 {
		t.Fatalf("max concurrent commit hooks = %d, want 1 under a 1-worker budget", got)
	}
}

// TestPerTenantTelemetryLabels asserts the acceptance criterion: every
// panel/snapshot/pipeline family carries the tenant label, once per
// shard, on one shared registry.
func TestPerTenantTelemetryLabels(t *testing.T) {
	opts := memoryOptions()
	opts.Telemetry = telemetry.NewRegistry()
	r := NewRegistry(opts)
	addTenant(t, r, "aids")
	addTenant(t, r, "emol")
	rt := NewRouter(r, opts.Telemetry, nil)

	// Generate some traffic so request-counter children exist.
	if w := get(t, rt, "/t/aids/patterns", nil); w.Code != http.StatusOK {
		t.Fatalf("patterns = %d", w.Code)
	}
	if w := get(t, rt, "/t/emol/quality", nil); w.Code != http.StatusOK {
		t.Fatalf("quality = %d", w.Code)
	}

	w := get(t, rt, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", w.Code)
	}
	doc := w.Body.String()
	for _, want := range []string{
		// snapshot/pipeline families, one child per tenant
		`midas_snapshot_generation{tenant="aids"}`,
		`midas_snapshot_generation{tenant="emol"}`,
		`midas_maintain_queue_depth{tenant="aids"}`,
		`midas_maintain_batch_ewma_seconds{tenant="aids"}`,
		// panel HTTP families keep their own labels after the constant one
		`panel_http_requests_total{tenant="aids",route="patterns",class="2xx"}`,
		`panel_http_requests_total{tenant="emol",route="quality",class="2xx"}`,
		// registry-level gauges
		`midas_tenants 2`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(doc, "panel_http_requests_total{route=") {
		t.Error("found unlabelled panel family — tenant label missing")
	}
}
