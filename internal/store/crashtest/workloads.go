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
	statePath = "d/state"
	spoolDir  = "d/spool"
	batchName = "b1.graphs"
	// lateName sorts before batchName and arrives after the watcher
	// listed the spool, so the swept step does not take it: recovery
	// finds it pending beside whatever the crash left of batchName.
	lateName = "a0.graphs"
)

// Workloads returns the durable-work scenarios the sweep covers: the
// generational bundle save, the full spool batch protocol with its
// restart recovery, and a replication follower's install.
func Workloads() []Workload {
	return []Workload{
		saveBundleWorkload(),
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
// spool batch), the record that settles a spool batch after a crash
// between saving state and renaming the spool file.

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

// save writes m as the next generation of the bundle at statePath.
func save(fsys vfs.FS, m bundleMeta) error {
	return store.SaveBundle(fsys, statePath, func(w io.Writer) error {
		_, err := w.Write(encodeBundle(m))
		return err
	})
}

// --- workload: generational bundle save --------------------------------

func saveBundleWorkload() Workload {
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

// --- workload: spool batch protocol ------------------------------------

// processBatch is the store-level model of the panel watcher's batch
// protocol: apply (here: append the batch text to the bundle content, a
// deliberately non-idempotent operation so double-apply is visible) →
// save the bundle with the batch's name and checksum as its last-batch
// record → rename the spool file to *.done → sync the spool directory.
func processBatch(fsys vfs.FS, name string) error {
	data, err := fsys.ReadFile(spoolDir + "/" + name)
	if err != nil {
		return err
	}
	if err := applyBatch(fsys, name, data); err != nil {
		return err
	}
	return retireBatch(fsys, name)
}

// applyBatch applies the batch to the bundle and saves it with the
// batch's last-batch record.
func applyBatch(fsys vfs.FS, name string, data []byte) error {
	cur, _, err := store.LoadBundle(fsys, statePath, validateBundle)
	if err != nil {
		return err
	}
	m, err := decodeBundle(cur)
	if err != nil {
		return err
	}
	m.content += "+" + string(data)
	m.last, m.lastSum = name, store.ChecksumBytes(data)
	return save(fsys, m)
}

// retireBatch renames the spool file to *.done and makes the rename
// durable.
func retireBatch(fsys vfs.FS, name string) error {
	spool := spoolDir + "/" + name
	if err := fsys.Rename(spool, spool+".done"); err != nil {
		return err
	}
	return fsys.SyncDir(spoolDir)
}

// recoverSpool is the restart path: load the bundle with salvage, then
// scan the spool as the watcher does. A pending file that the bundle's
// last-batch record names, with the same checksum, is already applied
// (the crash hit between the save and the rename), so it is only
// renamed, and before any other file: applying another first would
// overwrite the record. Every other pending file is applied, in name
// order. Every crash state recovers to a fully processed state.
func recoverSpool(fsys vfs.FS) (string, error) {
	data, _, err := store.LoadBundle(fsys, statePath, validateBundle)
	if err != nil {
		return "", err
	}
	m, err := decodeBundle(data)
	if err != nil {
		return "", err
	}
	entries, err := fsys.ReadDir(spoolDir)
	if err != nil {
		return "", err
	}
	var pending []string
	for _, e := range entries {
		if e.IsDir || !strings.HasSuffix(e.Name, ".graphs") {
			continue
		}
		if e.Name == m.last {
			batch, err := fsys.ReadFile(spoolDir + "/" + e.Name)
			if err != nil {
				return "", err
			}
			if store.ChecksumBytes(batch) == m.lastSum {
				if err := retireBatch(fsys, e.Name); err != nil {
					return "", err
				}
				continue
			}
		}
		pending = append(pending, e.Name)
	}
	sort.Strings(pending)
	for _, name := range pending {
		if err := processBatch(fsys, name); err != nil {
			return "", err
		}
	}

	// Fingerprint: bundle content and record plus the spool listing.
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
	return fmt.Sprintf("state=%s last=%s spool=[%s]",
		fm.content, fm.last, strings.Join(names, ",")), nil
}

// --- workload: follower bundle-fetch + log-suffix install ---------------

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
	// The streamed log suffix: two committed batches past the
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

// spoolBatchWorkload sweeps one spool batch through step. The real
// protocol is processBatch; the sweep's teeth test passes a broken one.
func spoolBatchWorkload() Workload {
	return spoolWorkload("spool-batch", processBatch)
}

func spoolWorkload(name string, step func(fsys vfs.FS, name string) error) Workload {
	return Workload{
		Name: name,
		Prepare: func(fsys vfs.FS) error {
			if err := save(fsys, bundleMeta{content: "v1"}); err != nil {
				return err
			}
			for _, b := range []struct{ name, data string }{{batchName, "g1"}, {lateName, "g0"}} {
				f, err := fsys.OpenFile(spoolDir+"/"+b.name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
				if err != nil {
					return err
				}
				if _, err := io.WriteString(f, b.data); err != nil {
					return err
				}
				if err := f.Sync(); err != nil {
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
			return fsys.SyncDir(spoolDir)
		},
		Steps: []Step{
			func(fsys vfs.FS) error { return step(fsys, batchName) },
		},
		// Recovery from the pre-batch boundary applies a0 then b1, from
		// the post-batch boundary b1 then a0; every crash point must
		// recover to one of the two, with each batch applied once.
		Recover: recoverSpool,
	}
}
