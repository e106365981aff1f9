package panel

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/snapshot"
)

func watcherFixture(t *testing.T) (*Watcher, *midas.Engine, string) {
	t.Helper()
	eng := watcherEngine()
	dir := t.TempDir()
	return &Watcher{Dir: dir, Pipe: startPipeline(t, eng)}, eng, dir
}

// watcherEngine bootstraps the small engine the watcher tests spool
// batches into.
func watcherEngine() *midas.Engine {
	return midas.New(dataset.EMolLike().GenerateDB(15, 3), midas.Options{
		Budget:  midas.Budget{MinSize: 2, MaxSize: 4, Count: 4},
		SupMin:  0.4,
		Epsilon: 0.02,
		Walks:   30,
		Seed:    1,
	})
}

// startPipeline starts a maintenance pipeline over eng, stopped at
// cleanup.
func startPipeline(t *testing.T, eng *midas.Engine) *snapshot.Pipeline {
	t.Helper()
	pipe := snapshot.NewPipeline(eng, snapshot.NewHandle(), snapshot.Config{})
	pipe.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pipe.Stop(ctx)
	})
	return pipe
}

func TestWatcherAppliesInsertBatch(t *testing.T) {
	w, eng, dir := watcherFixture(t)
	before := eng.DB().Len()
	ins := dataset.BoronicEsters().Generate(5, 1000, 7)
	if err := os.WriteFile(filepath.Join(dir, "batch1.graphs"),
		[]byte(graph.Marshal(ins)), 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []string
	w.OnBatch = func(file string, rep midas.MaintenanceReport) { seen = append(seen, file) }
	n, err := w.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(seen) != 1 {
		t.Fatalf("applied = %d, seen = %v", n, seen)
	}
	if eng.DB().Len() != before+5 {
		t.Fatalf("db len = %d, want %d", eng.DB().Len(), before+5)
	}
	// Processed file renamed; a second scan is a no-op.
	if _, err := os.Stat(filepath.Join(dir, "batch1.graphs.done")); err != nil {
		t.Fatal("processed file not renamed")
	}
	n, err = w.Scan()
	if err != nil || n != 0 {
		t.Fatalf("rescan applied %d (err %v), want 0", n, err)
	}
}

func TestWatcherAppliesDeleteBatch(t *testing.T) {
	w, eng, dir := watcherFixture(t)
	if err := os.WriteFile(filepath.Join(dir, "b.delete"),
		[]byte("# drop two\n0\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Scan(); err != nil {
		t.Fatal(err)
	}
	if eng.DB().Has(0) || eng.DB().Has(1) {
		t.Fatal("deletions not applied")
	}
}

func TestWatcherOrdersByName(t *testing.T) {
	w, eng, dir := watcherFixture(t)
	// 01 inserts a graph; 02 deletes it again. Correct order = net zero.
	ins := []*graph.Graph{graph.Path(500, "B", "O")}
	os.WriteFile(filepath.Join(dir, "01.graphs"), []byte(graph.Marshal(ins)), 0o644)
	os.WriteFile(filepath.Join(dir, "02.delete"), []byte("500\n"), 0o644)
	before := eng.DB().Len()
	n, err := w.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("applied = %d, want 2", n)
	}
	if eng.DB().Len() != before {
		t.Fatalf("db len = %d, want unchanged %d", eng.DB().Len(), before)
	}
}

func TestWatcherBadBatchStops(t *testing.T) {
	w, _, dir := watcherFixture(t)
	os.WriteFile(filepath.Join(dir, "bad.graphs"), []byte("not a graph"), 0o644)
	if _, err := w.Scan(); err == nil {
		t.Fatal("malformed batch should error")
	}
	// The bad file stays for inspection.
	if _, err := os.Stat(filepath.Join(dir, "bad.graphs")); err != nil {
		t.Fatal("bad file should remain in place")
	}
}

func TestWatcherIDRemap(t *testing.T) {
	w, eng, dir := watcherFixture(t)
	// Insert with colliding ID 0.
	ins := []*graph.Graph{graph.Path(0, "B", "O")}
	os.WriteFile(filepath.Join(dir, "c.graphs"), []byte(graph.Marshal(ins)), 0o644)
	before := eng.DB().Len()
	if _, err := w.Scan(); err != nil {
		t.Fatal(err)
	}
	if eng.DB().Len() != before+1 {
		t.Fatal("colliding insert not remapped")
	}
}

func TestWatcherRunStops(t *testing.T) {
	w, _, dir := watcherFixture(t)
	_ = dir
	stop := make(chan struct{})
	done := make(chan struct{})
	var logs []string
	w.Logf = func(format string, args ...interface{}) { logs = append(logs, format) }
	go func() {
		w.Run(10*time.Millisecond, stop)
		close(done)
	}()
	time.Sleep(30 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop")
	}
	_ = strings.Join(logs, "")
}
