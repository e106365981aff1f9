package panel

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/store"
)

// journalFixture is watcherFixture plus an open journal wired into the
// watcher.
func journalFixture(t *testing.T) (*Watcher, *midas.Engine, string, *store.Journal) {
	t.Helper()
	w, eng, dir := watcherFixture(t)
	j, err := store.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	w.Journal = j
	return w, eng, dir, j
}

func writeBatch(t *testing.T, dir, name string, graphs []*graph.Graph) ([]byte, uint32) {
	t.Helper()
	data := []byte(graph.Marshal(graphs))
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data, store.ChecksumBytes(data)
}

func TestWatcherJournalHappyPath(t *testing.T) {
	w, _, dir, j := journalFixture(t)
	var persisted []string
	w.Persist = func(name string, sum uint32) error {
		persisted = append(persisted, name)
		return nil
	}
	writeBatch(t, dir, "b1.graphs", dataset.BoronicEsters().Generate(3, 1000, 7))
	n, err := w.Scan()
	if err != nil || n != 1 {
		t.Fatalf("scan = %d, %v", n, err)
	}
	if len(persisted) != 1 || persisted[0] != "b1.graphs" {
		t.Fatalf("persist calls = %v", persisted)
	}
	// Every entry done -> journal truncated to empty.
	if pending := j.Pending(); len(pending) != 0 {
		t.Fatalf("pending after clean scan = %v", pending)
	}
	if _, err := os.Stat(filepath.Join(dir, "b1.graphs.done")); err != nil {
		t.Fatal("spool file not renamed")
	}
}

// TestWatcherCrashAfterApplyIsExactlyOnce simulates the crash window
// between persisting the applied state and renaming the spool file: the
// journal says applied, the file is still pending. The restarted
// watcher must rename without re-applying.
func TestWatcherCrashAfterApplyIsExactlyOnce(t *testing.T) {
	w, eng, dir, j := journalFixture(t)
	ins := dataset.BoronicEsters().Generate(4, 2000, 9)
	_, sum := writeBatch(t, dir, "c1.graphs", ins)

	// First (crashing) run: apply the batch and journal through
	// "applied", but crash before the rename.
	u, err := w.parseBatchShape(filepath.Join(dir, "c1.graphs"), graph.Marshal(ins))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Begin("c1.graphs", sum); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Maintain(u); err != nil {
		t.Fatal(err)
	}
	if err := j.MarkApplied("c1.graphs"); err != nil {
		t.Fatal(err)
	}
	lenAfterApply := eng.DB().Len()

	// Restart: reopen the journal from disk, fresh watcher, same engine.
	j.Close()
	j2, err := store.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	w2 := &Watcher{Dir: dir, Pipe: w.Pipe, Journal: j2}
	n, err := w2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("recovered batch counted as applied again: n = %d", n)
	}
	if eng.DB().Len() != lenAfterApply {
		t.Fatalf("batch re-applied: db len %d, want %d", eng.DB().Len(), lenAfterApply)
	}
	if _, err := os.Stat(filepath.Join(dir, "c1.graphs.done")); err != nil {
		t.Fatal("recovery did not finish the rename")
	}
	if pending := j2.Pending(); len(pending) != 0 {
		t.Fatalf("pending after recovery = %v", pending)
	}
}

// TestWatcherCrashBeforeApplyReplays covers the other side of the
// window: a begin record without applied means the batch's effects are
// not in the persisted state, so the restarted watcher applies it.
func TestWatcherCrashBeforeApplyReplays(t *testing.T) {
	w, eng, dir, j := journalFixture(t)
	ins := dataset.BoronicEsters().Generate(4, 3000, 11)
	_, sum := writeBatch(t, dir, "d1.graphs", ins)
	if err := j.Begin("d1.graphs", sum); err != nil {
		t.Fatal(err)
	}
	before := eng.DB().Len()

	j.Close()
	j2, err := store.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	w2 := &Watcher{Dir: dir, Pipe: w.Pipe, Journal: j2}
	n, err := w2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("begun-only batch not replayed: n = %d", n)
	}
	if eng.DB().Len() != before+4 {
		t.Fatalf("db len = %d, want %d", eng.DB().Len(), before+4)
	}
}

// TestWatcherBundleMetaClosesWindow covers a crash between saving the
// state bundle (which records lastBatch) and journalling "applied": the
// bundle metadata alone must prevent re-application.
func TestWatcherBundleMetaClosesWindow(t *testing.T) {
	w, eng, dir := watcherFixture(t)
	ins := dataset.BoronicEsters().Generate(3, 4000, 13)
	_, sum := writeBatch(t, dir, "e1.graphs", ins)
	u, err := w.parseBatchShape(filepath.Join(dir, "e1.graphs"), graph.Marshal(ins))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Maintain(u); err != nil {
		t.Fatal(err)
	}
	lenAfterApply := eng.DB().Len()

	// Restart with the bundle's metadata but no journal record.
	w2 := &Watcher{Dir: dir, Pipe: w.Pipe, LastApplied: "e1.graphs", LastAppliedSum: sum}
	n, err := w2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || eng.DB().Len() != lenAfterApply {
		t.Fatalf("bundle-meta recovery re-applied: n=%d len=%d want %d",
			n, eng.DB().Len(), lenAfterApply)
	}
	if _, err := os.Stat(filepath.Join(dir, "e1.graphs.done")); err != nil {
		t.Fatal("recovery did not finish the rename")
	}
}

// TestWatcherChangedContentIsNewBatch: a same-named file with different
// bytes must not be skipped by recovery — the checksum distinguishes it.
func TestWatcherChangedContentIsNewBatch(t *testing.T) {
	w, eng, dir := watcherFixture(t)
	writeBatch(t, dir, "f1.graphs", dataset.BoronicEsters().Generate(2, 5000, 17))
	before := eng.DB().Len()
	w.LastApplied = "f1.graphs"
	w.LastAppliedSum = 0xBAD // stale checksum from an earlier life
	n, err := w.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || eng.DB().Len() != before+2 {
		t.Fatalf("changed-content batch skipped: n=%d len=%d", n, eng.DB().Len())
	}
}

func TestWatcherQuarantinesPoisonBatch(t *testing.T) {
	w, eng, dir := watcherFixture(t)
	w.MaxRetries = 2
	os.WriteFile(filepath.Join(dir, "aa-poison.graphs"), []byte("not a graph"), 0o644)
	writeBatch(t, dir, "zz-good.graphs", dataset.BoronicEsters().Generate(2, 6000, 19))
	before := eng.DB().Len()

	// First failure: scan errors, file stays (ordering preserved, the
	// good batch behind it is blocked).
	if _, err := w.Scan(); err == nil {
		t.Fatal("first scan should error")
	}
	if _, err := os.Stat(filepath.Join(dir, "aa-poison.graphs")); err != nil {
		t.Fatal("poison file should remain after first failure")
	}
	if eng.DB().Len() != before {
		t.Fatal("blocked batch applied out of order")
	}

	// Second failure hits MaxRetries: quarantined, scan continues and
	// applies the good batch.
	n, err := w.Scan()
	if err != nil {
		t.Fatalf("post-quarantine scan: %v", err)
	}
	if n != 1 {
		t.Fatalf("good batch not applied after quarantine: n = %d", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "aa-poison.graphs.failed")); err != nil {
		t.Fatal("poison file not renamed *.failed")
	}
	if eng.DB().Len() != before+2 {
		t.Fatalf("db len = %d, want %d", eng.DB().Len(), before+2)
	}
}

func TestWatcherRejectsJunkDeleteIDs(t *testing.T) {
	w, eng, dir := watcherFixture(t)
	// Sscanf-style parsing would read "12abc" as 12; Atoi must reject it.
	os.WriteFile(filepath.Join(dir, "g.delete"), []byte("12abc\n"), 0o644)
	_, err := w.Scan()
	if err == nil || !strings.Contains(err.Error(), "bad delete id") {
		t.Fatalf("junk delete line: err = %v", err)
	}
	if !eng.DB().Has(12) {
		t.Fatal("junk delete line was partially applied")
	}
}

func TestWatcherRejectsDuplicateInsertIDs(t *testing.T) {
	w, eng, dir := watcherFixture(t)
	// Two inserts with the same on-disk ID: shape validation must reject
	// the batch before collision remapping can mask the duplicate.
	dup := []*graph.Graph{graph.Path(700, "B", "O"), graph.Path(700, "B", "N")}
	writeBatch(t, dir, "h.graphs", dup)
	before := eng.DB().Len()
	if _, err := w.Scan(); err == nil {
		t.Fatal("duplicate insert IDs should be rejected")
	}
	if eng.DB().Len() != before {
		t.Fatal("invalid batch partially applied")
	}
}
