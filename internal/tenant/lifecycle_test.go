package tenant

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/vfs"
)

// diskOptions builds registry options for real on-disk shards: state
// bundles and spool watchers under root.
func diskOptions(root string) Options {
	return Options{
		Root:          root,
		Engine:        testEngineOptions(),
		Retries:       2,
		Backoff:       time.Millisecond,
		WatchInterval: 10 * time.Millisecond,
	}
}

// seedTenantDB writes a bootstrap db.graphs into the tenant's
// directory before its first cold start.
func seedTenantDB(t *testing.T, root, id string, n int, seed int64) {
	t.Helper()
	dir := filepath.Join(root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	db := dataset.EMolLike().GenerateDB(n, seed)
	graphs := make([]*graph.Graph, 0, db.Len())
	for _, g := range db.Graphs() {
		graphs = append(graphs, g)
	}
	if err := os.WriteFile(filepath.Join(dir, "db.graphs"), []byte(graph.Marshal(graphs)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTenantLifecycleAddDrainReadd is the lifecycle satellite, meant
// to run under -race: add a tenant, put it under concurrent maintain +
// read load, drain it mid-load, and verify the drain contract — the
// save bundle holds the final generation, no goroutines leak — then
// re-add the same tenant and check it restores the drained state.
func TestTenantLifecycleAddDrainReadd(t *testing.T) {
	root := t.TempDir()
	seedTenantDB(t, root, "aids", 16, 3)
	r := NewRegistry(diskOptions(root))

	baseline := runtime.NumGoroutine()
	sh := addTenant(t, r, "aids")
	if got := sh.Engine().DB().Len(); got != 16 {
		t.Fatalf("bootstrap DB len = %d, want 16", got)
	}

	// Load: writers stream maintain batches and readers poll patterns
	// while the drain lands mid-flight. Rejections (429/503 during the
	// drain) are part of the contract, not errors.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				body := strings.NewReader("t 0\nv 0 C\nv 1 N\ne 0 1\n")
				req := httptest.NewRequest(http.MethodPost, "/maintain", body)
				w := httptest.NewRecorder()
				sh.Handler().ServeHTTP(w, req)
				switch w.Code {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable,
					http.StatusGatewayTimeout, http.StatusConflict:
				default:
					t.Errorf("maintain during lifecycle = %d: %s", w.Code, w.Body.String())
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := httptest.NewRecorder()
			sh.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/patterns", nil))
		}
	}()

	// Let some batches land, then drain under load.
	waitFor(t, func() bool { return sh.Server().Handle().Generation() > 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Remove(ctx, "aids"); err != nil {
		t.Fatalf("Remove under load: %v", err)
	}
	close(stop)
	wg.Wait()

	finalGen := sh.Server().Handle().Generation()
	finalLen := sh.Engine().DB().Len()

	// Save-bundle contract: the bundle loads and matches the drained
	// engine.
	data, rep, err := store.LoadBundle(vfs.OS, filepath.Join(root, "aids", "state", "panel.state"), midas.VerifyState)
	if err != nil {
		t.Fatalf("loading drained bundle: %v", err)
	}
	if rep.Degraded() {
		t.Fatalf("drained bundle needed salvage: %+v", rep)
	}
	eng2, _, err := midas.LoadStateMeta(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.DB().Len(); got != finalLen {
		t.Fatalf("drained bundle DB len = %d, engine had %d", got, finalLen)
	}

	// Goroutine contract: the watcher, pipeline and waiters are gone.
	assertNoGoroutineLeak(t, baseline)

	// Re-add: the tenant cold-starts from its drained bundle, not the
	// seed db.graphs.
	sh2 := addTenant(t, r, "aids")
	if got := sh2.Engine().DB().Len(); got != finalLen {
		t.Fatalf("re-added DB len = %d, want restored %d", got, finalLen)
	}
	if sh2.Status().State != "ok" {
		t.Fatalf("re-added state = %s", sh2.Status().State)
	}
	if finalGen < 2 {
		t.Fatalf("test never maintained: final generation %d", finalGen)
	}

	// And the re-added shard serves.
	w := httptest.NewRecorder()
	sh2.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/patterns", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("re-added tenant /patterns = %d", w.Code)
	}
}

// TestDrainIdempotentAndRouterDetach covers the drain edges: a drained
// shard 404s through the router immediately, Drain is idempotent, and
// DrainAll retires every shard concurrently.
func TestDrainIdempotentAndRouterDetach(t *testing.T) {
	root := t.TempDir()
	r := NewRegistry(diskOptions(root))
	rt := NewRouter(r, nil, nil)
	baseline := runtime.NumGoroutine()
	addTenant(t, r, "aids")
	addTenant(t, r, "emol")

	if w := get(t, rt, "/t/aids/patterns", nil); w.Code != http.StatusOK {
		t.Fatalf("pre-drain read = %d", w.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Remove(ctx, "aids"); err != nil {
		t.Fatal(err)
	}
	if w := get(t, rt, "/t/aids/patterns", nil); w.Code != http.StatusNotFound {
		t.Fatalf("post-drain read = %d, want 404", w.Code)
	}
	if w := get(t, rt, "/t/emol/patterns", nil); w.Code != http.StatusOK {
		t.Fatalf("sibling read after drain = %d, want 200", w.Code)
	}

	if err := r.DrainAll(ctx); err != nil {
		t.Fatalf("DrainAll: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("Len after DrainAll = %d", r.Len())
	}
	assertNoGoroutineLeak(t, baseline)
}

// assertNoGoroutineLeak polls for the goroutine count to return to the
// baseline (with small slack for runtime background goroutines).
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
