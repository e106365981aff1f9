package panel

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/backoff"
	"github.com/midas-graph/midas/internal/snapshot"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/vfs"
)

// Watcher applies periodic batch updates from a spool directory — the
// deployment mode the paper motivates ("several real-world databases of
// small- or medium-sized data graphs are updated periodically (e.g.,
// daily)", §1). Each `*.graphs` file dropped into the directory is one
// Δ+ batch in the text format; a `*.delete` file lists Δ- graph IDs,
// one per line. Processed files are renamed with a ".done" suffix so a
// restart does not replay them.
//
// Every batch is applied through the maintenance pipeline (Pipe), one
// file at a time: apply → persist (the Persist hook records the batch's
// name and checksum, which the pipeline owner saves into the state
// bundle before the batch publishes) → rename to *.done. That record is
// the exactly-once guarantee across crashes: a pending file the
// restored bundle names, with the same checksum, was applied before the
// crash and is only renamed; any other pending file is applied, because
// Maintain is transactional and the saved bundle predates it.
type Watcher struct {
	Dir string
	// Pipe is the maintenance pipeline every batch is submitted to. The
	// Persist hook runs on the pipeline's single goroutine right after
	// the apply, so the bundle records spool batches in apply order even
	// when HTTP /maintain batches interleave with them. The scan blocks
	// until the batch is terminal, preserving spool ordering; a batch
	// the pipeline gave up on (its retry budget spent, or an
	// unretryable rejection) is parked as *.failed immediately — the
	// pipeline already retried, so the watcher's own budget is not
	// re-spun on a lost cause.
	Pipe *snapshot.Pipeline
	// OnBatch, if set, observes each applied batch's report.
	OnBatch func(file string, rep midas.MaintenanceReport)
	// Logf, if set, receives progress lines (e.g. log.Printf).
	Logf func(format string, args ...interface{})

	// Persist, if set, runs on the pipeline goroutine after every
	// successful Maintain, in the batch's After slot, before the
	// pipeline owner saves the state bundle; it receives the batch name
	// and content checksum for the bundle metadata.
	Persist func(name string, sum uint32) error
	// LastApplied/LastAppliedSum name the last batch this watcher knows
	// applied. They are seeded from the restored bundle's metadata, so
	// a batch whose effects are in the loaded bundle but whose rename
	// was lost is not re-applied, and are updated after every applied
	// batch, so a failed rename does not re-apply it on the next scan.
	LastApplied    string
	LastAppliedSum uint32

	// FS is the filesystem seam for all spool I/O (nil = the real
	// filesystem). Tests inject faults through a simulated one.
	FS vfs.FS

	// MaxRetries bounds the retry budget: how many failing attempts a
	// batch survives before it is parked (renamed *.failed with a
	// sibling .reason file) so it stops blocking the spool (0 = 3).
	// Backoff seeds the per-batch retry schedule: capped exponential
	// growth per consecutive failure plus a deterministic per-file
	// jitter (0 = retry immediately). It also drives Run's scan-level
	// backoff after a failing scan.
	MaxRetries int
	Backoff    time.Duration
	// Now, if set, replaces time.Now for the retry schedule (tests).
	Now func() time.Time

	retries  map[string]int
	nextTry  map[string]time.Time
	failures int // consecutive failing scans, drives Run's backoff
}

func (w *Watcher) fs() vfs.FS {
	if w.FS == nil {
		return vfs.OS
	}
	return w.FS
}

func (w *Watcher) now() time.Time {
	if w.Now == nil {
		return time.Now()
	}
	return w.Now()
}

func (w *Watcher) maxRetries() int {
	if w.MaxRetries <= 0 {
		return 3
	}
	return w.MaxRetries
}

// Scan applies every pending spool file once, oldest name first, and
// returns the number of batches applied; the file LastApplied names is
// settled before all others. It is the unit the polling loop calls;
// tests call it directly. A failing batch stops the scan (preserving
// batch order) and stays in place for inspection until it has failed
// MaxRetries scans, after which it is renamed *.failed and skipped. A
// batch the pipeline turns away — its queue full, or the pipeline
// stopped — also stops the scan, but is not a failure: it keeps its
// retry budget.
func (w *Watcher) Scan() (int, error) {
	entries, err := w.fs().ReadDir(w.Dir)
	if err != nil {
		return 0, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir {
			continue
		}
		if strings.HasSuffix(e.Name, ".graphs") || strings.HasSuffix(e.Name, ".delete") {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	names = w.settleFirst(names)
	applied := 0
	now := w.now()
	for _, name := range names {
		if t, ok := w.nextTry[name]; ok && now.Before(t) {
			// The head batch is still in its backoff window; stop here
			// so batch order is preserved.
			break
		}
		ok, err := w.processBatch(name)
		if errors.Is(err, snapshot.ErrQueueFull) || errors.Is(err, snapshot.ErrStopped) {
			// Backpressure or shutdown turned the batch away; the batch
			// did not fail. Stop here, preserving batch order, and leave
			// its retry budget alone.
			w.failures++
			return applied, fmt.Errorf("panel: batch %s: %w", name, err)
		}
		if err != nil {
			if w.noteFailure(name, err) {
				continue // parked; the spool is unblocked
			}
			return applied, fmt.Errorf("panel: batch %s: %w", name, err)
		}
		delete(w.retries, name)
		delete(w.nextTry, name)
		if ok {
			applied++
		}
	}
	w.failures = 0
	return applied, nil
}

// settleFirst moves the pending file LastApplied names to the front of
// names when its content still matches LastAppliedSum. That batch is
// applied already and only its rename is outstanding (a crash or a
// failed rename came between the save and the rename). Applying any
// other file before it would overwrite the record and apply it twice.
func (w *Watcher) settleFirst(names []string) []string {
	for i, name := range names {
		if name != w.LastApplied {
			continue
		}
		data, err := w.fs().ReadFile(filepath.Join(w.Dir, name))
		if err == nil && store.ChecksumBytes(data) == w.LastAppliedSum {
			copy(names[1:i+1], names[:i])
			names[0] = name
		}
		break
	}
	return names
}

// retryDelay is the backoff before the named batch's next attempt after
// its attempt'th consecutive failure: the shared capped-exponential
// schedule with deterministic per-file jitter (internal/backoff), a
// pure function of (name, attempt) so recovery behaviour stays
// reproducible.
func (w *Watcher) retryDelay(name string, attempt int) time.Duration {
	return backoff.Delay(w.Backoff, name, attempt)
}

// noteFailure counts a batch failure, schedules its next retry, and
// parks the file (*.failed plus a .reason sibling) once the retry
// budget is spent. Reports whether the batch was parked.
func (w *Watcher) noteFailure(name string, cause error) bool {
	if w.retries == nil {
		w.retries = make(map[string]int)
	}
	if w.nextTry == nil {
		w.nextTry = make(map[string]time.Time)
	}
	w.retries[name]++
	w.failures++
	attempt := w.retries[name]
	if attempt < w.maxRetries() {
		w.nextTry[name] = w.now().Add(w.retryDelay(name, attempt))
		return false
	}
	if !w.park(name, attempt, cause) {
		return false
	}
	delete(w.retries, name)
	delete(w.nextTry, name)
	return true
}

// park renames the exhausted batch to *.failed and writes a *.failed.reason
// file recording why, so the operator sees the cause without digging
// through logs. Reports whether the rename succeeded.
func (w *Watcher) park(name string, attempts int, cause error) bool {
	fsys := w.fs()
	path := filepath.Join(w.Dir, name)
	if err := fsys.Rename(path, path+".failed"); err != nil {
		if w.Logf != nil {
			w.Logf("parking %s: %v", name, err)
		}
		return false
	}
	reason := fmt.Sprintf("batch: %s\nattempts: %d\nerror: %v\n", name, attempts, cause)
	if err := writeFileSync(fsys, path+".failed.reason", []byte(reason)); err != nil && w.Logf != nil {
		w.Logf("writing reason for %s: %v", name, err)
	}
	if err := fsys.SyncDir(w.Dir); err != nil && w.Logf != nil {
		w.Logf("syncing spool dir: %v", err)
	}
	if w.Logf != nil {
		w.Logf("parked %s after %d attempts: %v", name, attempts, cause)
	}
	return true
}

// writeFileSync durably writes a small file through the seam.
func writeFileSync(fsys vfs.FS, path string, b []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// processBatch runs one spool file through parse → maintain → persist
// → rename. Reports whether the batch was applied in this call (false
// when recovery found it already applied and only the rename was
// replayed).
func (w *Watcher) processBatch(name string) (bool, error) {
	path := filepath.Join(w.Dir, name)
	data, err := w.fs().ReadFile(path)
	if err != nil {
		return false, err
	}
	sum := store.ChecksumBytes(data)

	if w.alreadyApplied(name, sum) {
		// Crash between persisting the bundle and renaming the spool
		// file: finish the rename without re-applying.
		if err := w.finishBatch(path); err != nil {
			return false, err
		}
		if w.Logf != nil {
			w.Logf("recovered %s: already applied, renamed only", name)
		}
		return false, nil
	}

	return w.apply(name, path, string(data), sum)
}

// alreadyApplied reports whether the named batch's effects are already
// in the engine state: it is the last batch applied, by the restored
// bundle's metadata or by this watcher since. The checksum ties the
// verdict to the file contents — a same-named batch with different
// content is new work.
func (w *Watcher) alreadyApplied(name string, sum uint32) bool {
	return name == w.LastApplied && sum == w.LastAppliedSum
}

// finishBatch renames the spool file out of the way and makes the
// rename durable with a directory sync.
func (w *Watcher) finishBatch(path string) error {
	if err := w.fs().Rename(path, path+".done"); err != nil {
		return err
	}
	return w.fs().SyncDir(w.Dir)
}

// apply runs one spool batch through the maintenance pipeline: parse
// here, then maintain → persist on the pipeline goroutine, then rename
// back here once the result arrives. Blocking on the result keeps
// spool ordering; the pipeline owns the retry/backoff budget, so a
// terminal failure parks the file immediately rather than re-spinning
// the watcher's budget.
func (w *Watcher) apply(name, path, data string, sum uint32) (bool, error) {
	u, err := w.parseBatchShape(path, data)
	if err != nil {
		return false, err
	}
	tkt, err := w.Pipe.Submit(snapshot.Batch{
		Name:   name,
		Update: u,
		After: func(midas.MaintenanceReport) error {
			if w.Persist != nil {
				return w.Persist(name, sum)
			}
			return nil
		},
	})
	if err != nil {
		// Queue full (HTTP traffic has the pipeline saturated) or
		// shutdown: leave the file in place for the next scan.
		return false, err
	}
	res := <-tkt.Done
	if res.Err != nil {
		if errors.Is(res.Err, snapshot.ErrStopped) ||
			errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
			// Shutdown withdrew the batch, it did not fail: keep the file
			// for the next process lifetime.
			return false, res.Err
		}
		if !w.park(name, res.Attempts, res.Err) {
			return false, res.Err
		}
		delete(w.retries, name)
		delete(w.nextTry, name)
		return false, nil
	}
	// The batch is applied: should the rename below fail, the next scan
	// must only retry the rename.
	w.LastApplied, w.LastAppliedSum = name, sum
	if err := w.finishBatch(path); err != nil {
		return false, err
	}
	if w.Logf != nil {
		w.Logf("applied %s (generation %d): +%d/-%d graphs, major=%v, swaps=%d, pmt=%v",
			name, res.Generation, len(u.Insert), len(u.Delete), res.Report.Major, res.Report.Swaps, res.Report.PMT)
	}
	if w.OnBatch != nil {
		w.OnBatch(name, res.Report)
	}
	return true, nil
}

// parseBatchShape parses and shape-validates one spool file without
// touching the engine; the pipeline remaps colliding insert IDs on its
// own goroutine, the one place the live database may be read.
func (w *Watcher) parseBatchShape(path, data string) (graph.Update, error) {
	var u graph.Update
	if strings.HasSuffix(path, ".delete") {
		for _, line := range strings.Split(data, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			// Atoi, not Sscanf: "12abc" must be rejected, not read as 12.
			id, err := strconv.Atoi(line)
			if err != nil {
				return u, fmt.Errorf("bad delete id %q", line)
			}
			u.Delete = append(u.Delete, id)
		}
		if err := midas.ValidateShape(u); err != nil {
			return u, err
		}
		return u, nil
	}
	ins, err := graph.Unmarshal(data)
	if err != nil {
		return u, err
	}
	u.Insert = ins
	if err := midas.ValidateShape(u); err != nil {
		return u, err
	}
	return u, nil
}

// Run polls the spool directory until stop is closed. Errors are
// reported through Logf and do not stop the loop (a malformed batch
// file stays in place for the operator to inspect — and blocks later
// files so ordering is preserved — until quarantined after MaxRetries).
// Consecutive failures back off exponentially from Backoff.
func (w *Watcher) Run(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = time.Minute
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		if _, err := w.Scan(); err != nil {
			if w.Logf != nil {
				w.Logf("watcher: %v", err)
			}
			if d := w.backoffDelay(); d > 0 {
				select {
				case <-stop:
					return
				case <-time.After(d):
				}
			}
		}
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
	}
}

// backoffDelay doubles Backoff per consecutive failing scan, capped at
// 32× so a poison batch cannot push the delay unboundedly.
func (w *Watcher) backoffDelay() time.Duration {
	return backoff.Scan(w.Backoff, w.failures)
}
