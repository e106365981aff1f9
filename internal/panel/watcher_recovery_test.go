package panel

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/vfs"
)

func writeBatch(t *testing.T, dir, name string, graphs []*graph.Graph) ([]byte, uint32) {
	t.Helper()
	data := []byte(graph.Marshal(graphs))
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data, store.ChecksumBytes(data)
}

// TestWatcherPersistsAndRenames: an applied batch hands its name and
// checksum to Persist, for the bundle record, and is renamed *.done.
func TestWatcherPersistsAndRenames(t *testing.T) {
	w, _, dir := watcherFixture(t)
	var persisted []string
	w.Persist = func(name string, sum uint32) error {
		persisted = append(persisted, fmt.Sprintf("%s %08x", name, sum))
		return nil
	}
	_, sum := writeBatch(t, dir, "b1.graphs", dataset.BoronicEsters().Generate(3, 1000, 7))
	n, err := w.Scan()
	if err != nil || n != 1 {
		t.Fatalf("scan = %d, %v", n, err)
	}
	if want := fmt.Sprintf("b1.graphs %08x", sum); len(persisted) != 1 || persisted[0] != want {
		t.Fatalf("persist calls = %v, want [%s]", persisted, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "b1.graphs.done")); err != nil {
		t.Fatal("spool file not renamed")
	}
}

// TestWatcherCrashBeforeApplyReplays covers a crash before the bundle
// save: the restored bundle names an earlier batch (or none), so the
// pending file's effects are not in the persisted state and the
// restarted watcher applies it.
func TestWatcherCrashBeforeApplyReplays(t *testing.T) {
	w, eng, dir := watcherFixture(t)
	_, prevSum := writeBatch(t, dir, "d0.graphs", dataset.BoronicEsters().Generate(2, 2900, 5))
	if err := os.Rename(filepath.Join(dir, "d0.graphs"), filepath.Join(dir, "d0.graphs.done")); err != nil {
		t.Fatal(err)
	}
	writeBatch(t, dir, "d1.graphs", dataset.BoronicEsters().Generate(4, 3000, 11))
	before := eng.DB().Len()

	w2 := &Watcher{Dir: dir, Pipe: w.Pipe, LastApplied: "d0.graphs", LastAppliedSum: prevSum}
	n, err := w2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("pending batch the bundle does not name not applied: n = %d", n)
	}
	if eng.DB().Len() != before+4 {
		t.Fatalf("db len = %d, want %d", eng.DB().Len(), before+4)
	}
	if w2.LastApplied != "d1.graphs" {
		t.Fatalf("LastApplied = %q after applying d1.graphs", w2.LastApplied)
	}
}

// TestWatcherFailedRenameDoesNotReapply: a batch whose rename fails
// stays in the spool, and the next scan in the same process must only
// retry the rename — the in-process LastApplied record, not a restart,
// is what stops the second apply.
func TestWatcherFailedRenameDoesNotReapply(t *testing.T) {
	w, eng, _ := watcherFixture(t)
	sim := vfs.NewSim()
	data := []byte(graph.Marshal(dataset.BoronicEsters().Generate(3, 7000, 23)))
	f, err := sim.OpenFile("spool/r1.graphs", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sim.SetDurable()
	// The rename is the scan's first mutating operation.
	sim.FailAt(0, errors.New("injected rename failure"))
	var logs []string
	w.Dir, w.FS = "spool", sim
	w.Logf = func(format string, args ...interface{}) { logs = append(logs, fmt.Sprintf(format, args...)) }
	before := eng.DB().Len()

	if _, err := w.Scan(); err == nil || !strings.Contains(err.Error(), "injected rename failure") {
		t.Fatalf("first scan: err = %v, want the injected rename failure", err)
	}
	if eng.DB().Len() != before+3 {
		t.Fatalf("db len after the first scan = %d, want %d", eng.DB().Len(), before+3)
	}
	if _, err := sim.Stat("spool/r1.graphs"); err != nil {
		t.Fatal("spool file gone although its rename failed")
	}

	n, err := w.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || eng.DB().Len() != before+3 {
		t.Fatalf("second scan re-applied: n = %d, db len %d, want %d", n, eng.DB().Len(), before+3)
	}
	if _, err := sim.Stat("spool/r1.graphs.done"); err != nil {
		t.Fatal("second scan did not finish the rename")
	}
	if last := logs[len(logs)-1]; last != "recovered r1.graphs: already applied, renamed only" {
		t.Fatalf("last log line = %q", last)
	}
}

// TestWatcherBundleMetaClosesWindow covers a crash between saving the
// state bundle (which records lastBatch) and renaming the spool file:
// the bundle metadata must prevent re-application.
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

	// Restart with the bundle's metadata naming the pending file.
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

// TestWatcherSettlesRecordedBatchFirst covers a crash between the
// bundle save and the rename while a lower-named file is pending too (a
// new file, or a *.failed one renamed back). The file the record names
// must be renamed before any other file is applied: applying a1 first
// would overwrite the record, and b2 would then be applied twice.
func TestWatcherSettlesRecordedBatchFirst(t *testing.T) {
	w, eng, dir := watcherFixture(t)
	ins := dataset.BoronicEsters().Generate(3, 4000, 13)
	_, sum := writeBatch(t, dir, "b2.graphs", ins)
	u, err := w.parseBatchShape(filepath.Join(dir, "b2.graphs"), graph.Marshal(ins))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Maintain(u); err != nil {
		t.Fatal(err)
	}
	writeBatch(t, dir, "a1.graphs", dataset.BoronicEsters().Generate(2, 4100, 29))
	lenAfterB2 := eng.DB().Len()

	var logs []string
	w2 := &Watcher{Dir: dir, Pipe: w.Pipe, LastApplied: "b2.graphs", LastAppliedSum: sum,
		Logf: func(format string, args ...interface{}) { logs = append(logs, fmt.Sprintf(format, args...)) }}
	n, err := w2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || eng.DB().Len() != lenAfterB2+2 {
		t.Fatalf("scan = %d, db len %d; want 1 and %d (a1 applied, b2 only renamed)",
			n, eng.DB().Len(), lenAfterB2+2)
	}
	if len(logs) == 0 || logs[0] != "recovered b2.graphs: already applied, renamed only" {
		t.Fatalf("log = %q, want b2.graphs settled first", logs)
	}
	for _, name := range []string{"a1.graphs.done", "b2.graphs.done"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s missing after the scan", name)
		}
	}
	if w2.LastApplied != "a1.graphs" {
		t.Fatalf("LastApplied = %q after applying a1.graphs", w2.LastApplied)
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
