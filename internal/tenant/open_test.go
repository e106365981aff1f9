package tenant

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/telemetry"
	"github.com/midas-graph/midas/internal/vfs"
)

// writeDB writes an n-graph text-format database to path.
func writeDB(t *testing.T, path string, n int, seed int64) {
	t.Helper()
	db := dataset.EMolLike().GenerateDB(n, seed)
	if err := os.WriteFile(path, []byte(graph.Marshal(db.Graphs())), 0o644); err != nil {
		t.Fatal(err)
	}
}

// openShard opens a single-tenant shard on p and drains it at cleanup.
func openShard(t *testing.T, p Paths) (*Shard, error) {
	t.Helper()
	sh, err := OpenShard("", p, Options{Engine: testEngineOptions(), Retries: 2, Backoff: time.Millisecond})
	if err == nil {
		t.Cleanup(func() { drainShard(t, sh) })
	}
	return sh, err
}

func drainShard(t *testing.T, sh *Shard) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sh.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestOpenShardBootOutcomes pins the single-tenant boot table through
// the shared open path: which source the engine comes from, and
// whether the shard is degraded, for every combination of bundle state
// (-state) and bootstrap database (-db).
func TestOpenShardBootOutcomes(t *testing.T) {
	dir := t.TempDir()
	bundleDB, flagDB := filepath.Join(dir, "bundle.graphs"), filepath.Join(dir, "flag.graphs")
	writeDB(t, bundleDB, 16, 3)
	writeDB(t, flagDB, 12, 5)
	valid := filepath.Join(dir, "valid.state")
	sh, err := openShard(t, Paths{Save: valid, DB: bundleDB})
	if err != nil {
		t.Fatal(err)
	}
	drainShard(t, sh)

	for _, tc := range []struct {
		name         string
		bundle       string // valid | corrupt | absent
		db           string
		wantLen      int
		wantDegraded bool
		wantErr      bool
	}{
		{"valid bundle, no db", "valid", "", 16, false, false},
		{"valid bundle, db set", "valid", flagDB, 16, false, false},
		{"corrupt bundle, db set", "corrupt", flagDB, 12, true, false},
		{"corrupt bundle, no db", "corrupt", "", 0, true, false},
		{"absent bundle, db set", "absent", flagDB, 12, false, false},
		{"absent bundle, no db", "absent", "", 0, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restore := filepath.Join(t.TempDir(), "panel.state")
			switch tc.bundle {
			case "valid":
				restore = valid
			case "corrupt":
				if err := os.WriteFile(restore, []byte("not a state bundle"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			sh, err := openShard(t, Paths{Restore: restore, DB: tc.db})
			if tc.wantErr {
				if err == nil {
					t.Fatal("open succeeded with no bundle and no database")
				}
				return
			}
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if got := sh.Engine().DB().Len(); got != tc.wantLen {
				t.Fatalf("DB len = %d, want %d", got, tc.wantLen)
			}
			if st := sh.Status(); st.Degraded != tc.wantDegraded {
				t.Fatalf("degraded = %v, want %v", st.Degraded, tc.wantDegraded)
			}
		})
	}
}

// TestOpenShardRestoresOneBundleSavesAnother covers -state A -save B:
// the state restores from A, every save goes to B, and A is left
// byte-for-byte untouched.
func TestOpenShardRestoresOneBundleSavesAnother(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "db.graphs")
	writeDB(t, db, 16, 3)
	a, b := filepath.Join(dir, "a.state"), filepath.Join(dir, "b.state")
	sh, err := openShard(t, Paths{Save: a, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	drainShard(t, sh)
	before, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}

	sh, err = openShard(t, Paths{Restore: a, Save: b})
	if err != nil {
		t.Fatal(err)
	}
	body := graph.Marshal(dataset.BoronicEsters().Generate(2, 5000, 7))
	w := httptest.NewRecorder()
	sh.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/maintain", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("maintain = %d: %s", w.Code, w.Body.String())
	}
	drainShard(t, sh)

	after, err := os.ReadFile(a)
	if err != nil || !bytes.Equal(before, after) {
		t.Fatalf("restored bundle changed (err %v)", err)
	}
	if _, err := os.Stat(a + ".prev"); err == nil {
		t.Fatal("a save rotated the restored bundle's generations")
	}
	data, _, err := store.LoadBundle(vfs.OS, b, midas.VerifyState)
	if err != nil {
		t.Fatalf("loading the save bundle: %v", err)
	}
	eng, _, err := midas.LoadStateMeta(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.DB().Len(); got != 18 {
		t.Fatalf("save bundle DB len = %d, want 18", got)
	}
}

// TestRegistryShardFallbacks pins the tenant side of the shared open
// path: a tenant without a valid bundle falls back to its db.graphs
// or, failing that, an empty database — degraded only when a bundle
// was lost to corruption.
func TestRegistryShardFallbacks(t *testing.T) {
	root := t.TempDir()
	seedTenantDB(t, root, "seeded", 16, 3)
	seedTenantDB(t, root, "mended", 12, 5)
	for _, id := range []string{"mended", "broken"} {
		state := filepath.Join(root, id, "state")
		if err := os.MkdirAll(state, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(state, "panel.state"), []byte("not a state bundle"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRegistry(diskOptions(root))
	for _, tc := range []struct {
		id           string
		wantLen      int
		wantDegraded bool
	}{
		{"seeded", 16, false},
		{"fresh", 0, false},
		{"mended", 12, true},
		{"broken", 0, true},
	} {
		sh := addTenant(t, r, tc.id)
		if got := sh.Engine().DB().Len(); got != tc.wantLen {
			t.Errorf("%s: DB len = %d, want %d", tc.id, got, tc.wantLen)
		}
		if st := sh.Status(); st.Degraded != tc.wantDegraded {
			t.Errorf("%s: degraded = %v, want %v", tc.id, st.Degraded, tc.wantDegraded)
		}
	}
}

// lockedBuffer is a log sink safe to read while shard goroutines write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSpoolBatchExactlyOnceAcrossReopen pins the bundle's last-batch
// record as the spool watcher's exactly-once record: a spool batch is
// named in the saved bundle, the record survives a later HTTP batch's
// save (a rejected one before it writes nothing), and a reopened
// tenant that finds the applied file back in its spool renames it
// without applying it again.
func TestSpoolBatchExactlyOnceAcrossReopen(t *testing.T) {
	root := t.TempDir()
	seedTenantDB(t, root, "aids", 16, 3)
	var logs lockedBuffer
	opts := diskOptions(root)
	opts.Logger = telemetry.NewLogger(&logs, telemetry.LevelInfo)
	r := NewRegistry(opts)
	sh := addTenant(t, r, "aids")

	w := httptest.NewRecorder()
	sh.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/maintain?delete=99999", nil))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("deleting an unknown graph = %d, want 400", w.Code)
	}

	spool := filepath.Join(root, "aids", "spool")
	batch := []byte(graph.Marshal(dataset.BoronicEsters().Generate(2, 5000, 7)))
	if err := os.WriteFile(filepath.Join(spool, "b1.graphs"), batch, 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		_, err := os.Stat(filepath.Join(spool, "b1.graphs.done"))
		return err == nil
	})
	w = httptest.NewRecorder()
	sh.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/maintain", strings.NewReader("t 0\nv 0 C\nv 1 N\ne 0 1\n")))
	if w.Code != http.StatusOK {
		t.Fatalf("HTTP batch = %d: %s", w.Code, w.Body.String())
	}
	wantLen := sh.Engine().DB().Len()
	if wantLen != 16+2+1 {
		t.Fatalf("DB len = %d, want %d", wantLen, 16+2+1)
	}
	patterns, quality := get(t, sh.Handler(), "/patterns", nil).Body.String(), get(t, sh.Handler(), "/quality", nil).Body.String()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Remove(ctx, "aids"); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(root, "aids", "state", "panel.state"))
	if err != nil {
		t.Fatal(err)
	}
	eng, meta, err := midas.LoadStateMeta(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	if eng.DB().Len() != wantLen {
		t.Fatalf("saved bundle has %d graphs, want %d (the HTTP batch's save)", eng.DB().Len(), wantLen)
	}
	if want := fmt.Sprintf("%08x", store.ChecksumBytes(batch)); meta[metaLastBatch] != "b1.graphs" || meta[metaLastBatchSum] != want {
		t.Fatalf("bundle record = %q %q, want b1.graphs %s", meta[metaLastBatch], meta[metaLastBatchSum], want)
	}

	// The applied file is back in the spool, as after a crash between
	// the bundle save and the rename.
	if err := os.WriteFile(filepath.Join(spool, "b1.graphs"), batch, 0o644); err != nil {
		t.Fatal(err)
	}
	sh = addTenant(t, r, "aids")
	waitFor(t, func() bool {
		_, err := os.Stat(filepath.Join(spool, "b1.graphs"))
		return os.IsNotExist(err)
	})
	if got := sh.Engine().DB().Len(); got != wantLen {
		t.Fatalf("reopened DB len = %d, want %d: the batch was applied again", got, wantLen)
	}
	if got := get(t, sh.Handler(), "/patterns", nil).Body.String(); got != patterns {
		t.Fatalf("/patterns changed across the reopen:\n%s\nwant\n%s", got, patterns)
	}
	if got := get(t, sh.Handler(), "/quality", nil).Body.String(); got != quality {
		t.Fatalf("/quality changed across the reopen:\n%s\nwant\n%s", got, quality)
	}
	if !strings.Contains(logs.String(), "recovered b1.graphs: already applied, renamed only") {
		t.Fatalf("no rename-only recovery in the log:\n%s", logs.String())
	}
}

// TestDrainErrorNamesOnlyTenants pins how a failed final save is
// reported: the single-tenant shard's error carries no tenant prefix,
// and a tenant's names the tenant.
func TestDrainErrorNamesOnlyTenants(t *testing.T) {
	for id, want := range map[string]string{"": "final save: ", "aids": "tenant aids: final save: "} {
		stateDir := filepath.Join(t.TempDir(), "state")
		if err := os.Mkdir(stateDir, 0o755); err != nil {
			t.Fatal(err)
		}
		sh, err := OpenShard(id, Paths{Save: filepath.Join(stateDir, "panel.state")}, memoryOptions())
		if err != nil {
			t.Fatal(err)
		}
		// The final save cannot be written once its directory is gone.
		if err := os.RemoveAll(stateDir); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = sh.Drain(ctx)
		cancel()
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("shard %q: drain err = %v, want prefix %q", id, err, want)
		}
	}
}
