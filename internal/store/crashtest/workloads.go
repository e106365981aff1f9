package crashtest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/vfs"
)

// The on-disk layout every workload uses.
const (
	statePath   = "d/state"
	journalPath = "d/journal"
	spoolDir    = "d/spool"
	batchName   = "b1.graphs"
)

// Workloads returns the durable-work scenarios the sweep covers: the
// generational bundle save, the journal record protocol (append through
// all-done truncation), journal checkpoint compaction, and the full
// spool batch protocol with its restart recovery.
func Workloads() []Workload {
	return []Workload{
		saveBundleWorkload(),
		journalAppendWorkload(),
		journalCheckpointWorkload(),
		spoolBatchWorkload(),
		followerInstallWorkload(),
	}
}

// --- toy bundle format -------------------------------------------------
//
// The sweep needs a bundle format whose torn or bit-rotted forms are
// detectable, like the real MIDAS-STATE v2 envelope, but cheap enough
// to validate thousands of times. Layout (one line):
//
//	<crc32 hex of rest> last=<batch|-> sum=<crc32 hex> state=<content>
//
// "last"/"sum" mirror the server's bundle metadata (the last applied
// spool batch), which closes the crash window between saving state and
// journalling the batch as applied.

type bundleMeta struct {
	last    string
	lastSum uint32
	content string
}

func encodeBundle(m bundleMeta) []byte {
	last := m.last
	if last == "" {
		last = "-"
	}
	line := fmt.Sprintf("last=%s sum=%08x state=%s", last, m.lastSum, m.content)
	return []byte(fmt.Sprintf("%08x %s\n", store.ChecksumBytes([]byte(line)), line))
}

func decodeBundle(b []byte) (bundleMeta, error) {
	var m bundleMeta
	text := strings.TrimSuffix(string(b), "\n")
	crcHex, line, ok := strings.Cut(text, " ")
	if !ok {
		return m, fmt.Errorf("bundle: no checksum field: %w", store.ErrCorrupt)
	}
	var want uint32
	if _, err := fmt.Sscanf(crcHex, "%08x", &want); err != nil {
		return m, fmt.Errorf("bundle: bad checksum %q: %w", crcHex, store.ErrCorrupt)
	}
	if got := store.ChecksumBytes([]byte(line)); got != want {
		return m, fmt.Errorf("bundle: checksum %08x, header says %08x: %w", got, want, store.ErrCorrupt)
	}
	fields := strings.SplitN(line, " ", 3)
	if len(fields) != 3 {
		return m, fmt.Errorf("bundle: %d fields: %w", len(fields), store.ErrCorrupt)
	}
	if _, err := fmt.Sscanf(fields[0], "last=%s", &m.last); err != nil {
		return m, fmt.Errorf("bundle: bad last field: %w", store.ErrCorrupt)
	}
	if m.last == "-" {
		m.last = ""
	}
	if _, err := fmt.Sscanf(fields[1], "sum=%08x", &m.lastSum); err != nil {
		return m, fmt.Errorf("bundle: bad sum field: %w", store.ErrCorrupt)
	}
	m.content = strings.TrimPrefix(fields[2], "state=")
	return m, nil
}

func validateBundle(b []byte) error {
	_, err := decodeBundle(b)
	return err
}

// --- workload: generational bundle save --------------------------------

func saveBundleWorkload() Workload {
	save := func(fsys vfs.FS, m bundleMeta) error {
		return store.SaveBundle(fsys, statePath, func(w io.Writer) error {
			_, err := w.Write(encodeBundle(m))
			return err
		})
	}
	return Workload{
		Name: "save-bundle",
		Prepare: func(fsys vfs.FS) error {
			// Two generations on disk, as in steady state.
			if err := save(fsys, bundleMeta{content: "v0"}); err != nil {
				return err
			}
			return save(fsys, bundleMeta{content: "v1"})
		},
		Steps: []Step{
			func(fsys vfs.FS) error { return save(fsys, bundleMeta{content: "v2"}) },
		},
		Recover: func(fsys vfs.FS) (string, error) {
			data, _, err := store.LoadBundle(fsys, statePath, validateBundle)
			if err != nil {
				return "", err
			}
			m, err := decodeBundle(data)
			if err != nil {
				return "", err
			}
			return "state=" + m.content, nil
		},
	}
}

// --- workload: journal record protocol ---------------------------------

// journalStep opens the journal, applies one record, and closes it.
// Opening a clean journal adds no mutating operations, so the crash
// points are exactly the appends.
func journalStep(do func(j *store.Journal) error) Step {
	return func(fsys vfs.FS) error {
		j, err := store.OpenJournalFS(fsys, journalPath)
		if err != nil {
			return err
		}
		defer j.Close()
		return do(j)
	}
}

// journalFingerprint is the journal's logical recovery state: the
// entries that still demand action. Done entries (and the truncation
// that eventually drops them) are invisible by design.
func journalFingerprint(j *store.Journal) string {
	var parts []string
	for _, name := range j.Pending() {
		st, sum, _ := j.State(name)
		parts = append(parts, fmt.Sprintf("%s=%s:%08x", name, st, sum))
	}
	return "journal{" + strings.Join(parts, ",") + "}"
}

func recoverJournal(fsys vfs.FS) (string, error) {
	j, err := store.OpenJournalFS(fsys, journalPath)
	if err != nil {
		return "", err
	}
	defer j.Close()
	return journalFingerprint(j), nil
}

func journalAppendWorkload() Workload {
	return Workload{
		Name: "journal-append",
		Prepare: func(fsys vfs.FS) error {
			j, err := store.OpenJournalFS(fsys, journalPath)
			if err != nil {
				return err
			}
			return j.Close()
		},
		Steps: []Step{
			journalStep(func(j *store.Journal) error { return j.Begin("b1", 0x1111) }),
			journalStep(func(j *store.Journal) error { return j.MarkApplied("b1") }),
			journalStep(func(j *store.Journal) error { return j.Begin("b2", 0x2222) }),
			journalStep(func(j *store.Journal) error { return j.MarkApplied("b2") }),
			journalStep(func(j *store.Journal) error { return j.MarkDone("b1") }),
			// The final MarkDone leaves no pending entries and
			// truncates the journal in place.
			journalStep(func(j *store.Journal) error { return j.MarkDone("b2") }),
		},
		Recover: recoverJournal,
	}
}

// --- workload: journal checkpoint compaction ---------------------------

func journalCheckpointWorkload() Workload {
	return Workload{
		Name: "journal-checkpoint",
		Prepare: func(fsys vfs.FS) error {
			j, err := store.OpenJournalFS(fsys, journalPath)
			if err != nil {
				return err
			}
			defer j.Close()
			// Steady-state mix: one applied, one done (compactable),
			// one begun.
			for _, op := range []func() error{
				func() error { return j.Begin("b0", 0x0a0a) },
				func() error { return j.MarkApplied("b0") },
				func() error { return j.Begin("b1", 0x1b1b) },
				func() error { return j.MarkApplied("b1") },
				func() error { return j.MarkDone("b1") },
				func() error { return j.Begin("b2", 0x2c2c) },
			} {
				if err := op(); err != nil {
					return err
				}
			}
			return nil
		},
		Steps: []Step{
			journalStep(func(j *store.Journal) error {
				j.SetCheckpointThreshold(1)
				ran, err := j.MaybeCheckpoint()
				if err == nil && !ran {
					return errors.New("checkpoint did not run")
				}
				return err
			}),
		},
		// Compaction must never change recovery decisions: pre and
		// post fingerprints are identical, so every crash point must
		// land on that single state.
		Recover: recoverJournal,
	}
}

// --- workload: spool batch protocol ------------------------------------

// processBatch is the store-level model of the panel watcher's batch
// protocol: begin → apply (here: append the batch text to the bundle
// content, a deliberately non-idempotent operation so double-apply is
// visible) → save bundle with last-batch metadata → applied → rename
// the spool file away → done.
func processBatch(fsys vfs.FS, name string) error {
	j, err := store.OpenJournalFS(fsys, journalPath)
	if err != nil {
		return err
	}
	defer j.Close()
	spool := spoolDir + "/" + name
	data, err := fsys.ReadFile(spool)
	if err != nil {
		return err
	}
	sum := store.ChecksumBytes(data)
	if err := j.Begin(name, sum); err != nil {
		return err
	}
	return applyAndFinish(fsys, j, name, sum, data)
}

// applyAndFinish runs the batch protocol from after Begin: apply, save,
// mark applied, retire the spool file, mark done.
func applyAndFinish(fsys vfs.FS, j *store.Journal, name string, sum uint32, data []byte) error {
	cur, _, err := store.LoadBundle(fsys, statePath, validateBundle)
	if err != nil {
		return err
	}
	m, err := decodeBundle(cur)
	if err != nil {
		return err
	}
	m.content += "+" + string(data)
	m.last, m.lastSum = name, sum
	if err := store.SaveBundle(fsys, statePath, func(w io.Writer) error {
		_, err := w.Write(encodeBundle(m))
		return err
	}); err != nil {
		return err
	}
	if err := j.MarkApplied(name); err != nil {
		return err
	}
	return finishBatch(fsys, j, name)
}

// finishBatch retires the spool file and records done.
func finishBatch(fsys vfs.FS, j *store.Journal, name string) error {
	spool := spoolDir + "/" + name
	if _, err := fsys.Stat(spool); err == nil {
		if err := fsys.Rename(spool, spool+".done"); err != nil {
			return err
		}
		if err := fsys.SyncDir(spoolDir); err != nil {
			return err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return j.MarkDone(name)
}

// recoverSpool is the restart path: salvage bundle + journal via
// store.Recover, settle every pending journal entry (using the bundle's
// last-batch metadata to avoid double-applying a batch whose applied
// record was lost), then scan the spool for batches the journal never
// saw. It converges: every crash state recovers to the fully-processed
// state.
func recoverSpool(fsys vfs.FS) (string, error) {
	res, err := store.Recover(fsys, statePath, journalPath, validateBundle)
	if err != nil {
		return "", err
	}
	j := res.Journal
	defer j.Close()
	if res.Bundle == nil {
		return "", errors.New("spool recovery: bundle lost")
	}
	m, err := decodeBundle(res.Bundle)
	if err != nil {
		return "", err
	}

	// Settle entries the journal knows about.
	for _, name := range j.Pending() {
		st, sum, _ := j.State(name)
		data, rerr := fsys.ReadFile(spoolDir + "/" + name)
		switch st {
		case store.Applied:
			// Bundle is saved; just retire the spool file (if its
			// rename was lost) and close out.
			if err := finishBatch(fsys, j, name); err != nil {
				return "", err
			}
		case store.Begun:
			if rerr != nil {
				return "", fmt.Errorf("spool recovery: begun entry %s has no spool file: %w", name, rerr)
			}
			if m.last == name && m.lastSum == sum && store.ChecksumBytes(data) == sum {
				// The bundle already contains this batch: the crash hit
				// between the bundle save and the applied record.
				if err := j.MarkApplied(name); err != nil {
					return "", err
				}
				if err := finishBatch(fsys, j, name); err != nil {
					return "", err
				}
				continue
			}
			if err := applyAndFinish(fsys, j, name, store.ChecksumBytes(data), data); err != nil {
				return "", err
			}
		}
	}

	// Scan for spool files the journal never recorded — including a
	// batch whose entire journal lifecycle was lost but whose apply
	// survived in the bundle metadata.
	entries, err := fsys.ReadDir(spoolDir)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if e.IsDir || !strings.HasSuffix(e.Name, ".graphs") {
			continue
		}
		if _, _, ok := j.State(e.Name); ok {
			continue
		}
		data, err := fsys.ReadFile(spoolDir + "/" + e.Name)
		if err != nil {
			return "", err
		}
		sum := store.ChecksumBytes(data)
		if err := j.Begin(e.Name, sum); err != nil {
			return "", err
		}
		if m.last == e.Name && m.lastSum == sum {
			if err := j.MarkApplied(e.Name); err != nil {
				return "", err
			}
			if err := finishBatch(fsys, j, e.Name); err != nil {
				return "", err
			}
			continue
		}
		if err := applyAndFinish(fsys, j, e.Name, sum, data); err != nil {
			return "", err
		}
	}

	// Fingerprint: bundle content + journal decisions + spool listing.
	final, _, err := store.LoadBundle(fsys, statePath, validateBundle)
	if err != nil {
		return "", err
	}
	fm, err := decodeBundle(final)
	if err != nil {
		return "", err
	}
	list, err := fsys.ReadDir(spoolDir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range list {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return fmt.Sprintf("state=%s last=%s %s spool=[%s]",
		fm.content, fm.last, journalFingerprint(j), strings.Join(names, ",")), nil
}

// --- workload: follower bundle-fetch + journal-suffix install -----------

// The on-disk layout of a replication follower (internal/replica):
// a state bundle plus the replication log it tails.
const (
	followerState = "d/fstate"
	followerLog   = "d/freplog"
)

// followerInstallWorkload models the follower's cold start in the
// order replica.Node.Start runs it: fetch the primary's bundle (here a
// constant — the upstream is not on the swept filesystem), seed a
// fresh replication log at the bundle's position, save the bundle
// there (the boot save), then per streamed record append it to the log
// and roll the bundle forward. A crash at any point must leave the
// follower able to restart the catch-up with no manual repair: the
// recovery path is open-with-salvage on both artifacts, then replay
// the log suffix past the bundle's LSN — the node's boot discipline.
func followerInstallWorkload() Workload {
	const (
		upLSN   = 2 // the upstream bundle's position
		upEpoch = 1
	)
	// The streamed journal suffix: two committed batches past the
	// bundle.
	recs := []store.RepRecord{
		{Kind: store.RecData, LSN: 3, Epoch: upEpoch, Name: "r3", Data: []byte("r3")},
		{Kind: store.RecData, LSN: 4, Epoch: upEpoch, Name: "r4", Data: []byte("r4")},
	}

	// The bundle's last/sum fields carry the replication position, as
	// the real bundle's metadata does.
	saveAt := func(fsys vfs.FS, content string, lsn uint64) error {
		return store.SaveBundle(fsys, followerState, func(w io.Writer) error {
			_, err := w.Write(encodeBundle(bundleMeta{
				content: content, last: fmt.Sprintf("lsn%d", lsn), lastSum: uint32(lsn)}))
			return err
		})
	}
	appendRec := func(fsys vfs.FS, rec store.RepRecord) error {
		l, err := store.OpenRepLogFS(fsys, followerLog)
		if err != nil {
			return err
		}
		defer l.Close()
		return l.AppendRecord(rec)
	}

	return Workload{
		Name:    "follower-install",
		Prepare: func(fsys vfs.FS) error { return nil },
		Steps: []Step{
			// Seed a fresh log at the fetched bundle's position. A crash
			// here leaves a seeded log and no bundle.
			func(fsys vfs.FS) error {
				l, err := store.OpenRepLogFS(fsys, followerLog)
				if err != nil {
					return err
				}
				defer l.Close()
				return l.Seed(upLSN, upEpoch)
			},
			// The boot save: the fetched bundle at its position.
			func(fsys vfs.FS) error { return saveAt(fsys, "u", upLSN) },
			// Per record: durable log append, then roll the bundle
			// forward. A crash between the two leaves the log ahead of
			// the bundle — the replay suffix closes the gap.
			func(fsys vfs.FS) error { return appendRec(fsys, recs[0]) },
			func(fsys vfs.FS) error { return saveAt(fsys, "u+r3", 3) },
			func(fsys vfs.FS) error { return appendRec(fsys, recs[1]) },
			func(fsys vfs.FS) error { return saveAt(fsys, "u+r3+r4", 4) },
		},
		Recover: recoverFollower,
	}
}

// recoverFollower is the follower's restart path: salvage the
// replication log (torn tail quarantined and truncated) and the bundle
// (torn save rolled back to the previous generation), seed an empty
// log at the bundle's position, replay the log suffix past the
// bundle's LSN and persist the rolled-forward bundle — or, with no
// suffix, save the bundle at its position (the boot save) — so a
// second recovery lands on the same state. A follower with no bundle
// at all restarts the catch-up from scratch — a legal state, never an
// error.
func recoverFollower(fsys vfs.FS) (string, error) {
	l, err := store.OpenRepLogFS(fsys, followerLog)
	if err != nil {
		return "", err
	}
	defer l.Close()

	data, _, err := store.LoadBundle(fsys, followerState, validateBundle)
	if errors.Is(err, os.ErrNotExist) || errors.Is(err, store.ErrCorrupt) {
		// Nothing installed before the crash (at most a seeded log) —
		// or the very first install was torn with no previous generation
		// to salvage.
		// Unlike a primary's state, the follower's is reproducible: it
		// re-fetches the upstream bundle and restarts the catch-up from
		// scratch.
		return "fresh", nil
	}
	if err != nil {
		return "", err
	}
	m, err := decodeBundle(data)
	if err != nil {
		return "", err
	}
	lsn := uint64(m.lastSum)

	if l.LastLSN() == 0 {
		// An empty log starts at the bundle's position, as Start seeds
		// it.
		if err := l.Seed(lsn, 1); err != nil {
			return "", err
		}
	}
	suffix, err := l.ReadFrom(lsn, 0)
	if err != nil {
		return "", err
	}
	for _, rec := range suffix {
		if rec.Kind != store.RecData {
			continue
		}
		m.content += "+" + string(rec.Data)
		lsn = rec.LSN
	}
	if err := store.SaveBundle(fsys, followerState, func(w io.Writer) error {
		_, err := w.Write(encodeBundle(bundleMeta{
			content: m.content, last: fmt.Sprintf("lsn%d", lsn), lastSum: uint32(lsn)}))
		return err
	}); err != nil {
		return "", err
	}
	return fmt.Sprintf("state=%s lsn=%d log=%d..%d@%d",
		m.content, lsn, l.FirstLSN(), l.LastLSN(), l.Epoch()), nil
}

func spoolBatchWorkload() Workload {
	return Workload{
		Name: "spool-batch",
		Prepare: func(fsys vfs.FS) error {
			if err := store.SaveBundle(fsys, statePath, func(w io.Writer) error {
				_, err := w.Write(encodeBundle(bundleMeta{content: "v1"}))
				return err
			}); err != nil {
				return err
			}
			j, err := store.OpenJournalFS(fsys, journalPath)
			if err != nil {
				return err
			}
			if err := j.Close(); err != nil {
				return err
			}
			f, err := fsys.OpenFile(spoolDir+"/"+batchName, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				return err
			}
			if _, err := io.WriteString(f, "g1"); err != nil {
				return err
			}
			if err := f.Sync(); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			return fsys.SyncDir(spoolDir)
		},
		Steps: []Step{
			func(fsys vfs.FS) error { return processBatch(fsys, batchName) },
		},
		// Spool recovery converges: both step boundaries recover to the
		// same fully-processed state, so every crash point must too —
		// with the batch applied exactly once.
		Recover: recoverSpool,
	}
}
