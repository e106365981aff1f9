package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/midas-graph/midas/internal/vfs"
)

// ErrCorrupt marks on-disk bytes that failed validation (checksum
// mismatch, truncation, unparseable structure). Errors returned by the
// bundle recovery path wrap it together with the offending path, so
// callers can errors.Is(err, store.ErrCorrupt) and still see which file
// died.
var ErrCorrupt = errors.New("corrupt data")

// Suffixes of the generational bundle scheme. For a bundle at "state":
//
//	state        — the current generation
//	state.tmp    — a generation being written (adopted by recovery if
//	               complete and valid when "state" is missing)
//	state.prev   — the previous generation (rollback target)
//	*.corrupt    — quarantined bytes that failed validation
const (
	tmpSuffix     = ".tmp"
	prevSuffix    = ".prev"
	corruptSuffix = ".corrupt"
)

// SalvageReport describes what recovery had to do beyond the happy
// path. The zero value means a clean load.
type SalvageReport struct {
	// Quarantined lists files that failed validation and were moved
	// aside to *.corrupt for post-mortem.
	Quarantined []string
	// RolledForward: the current generation was missing but a complete,
	// valid new generation was found under the .tmp name (crash between
	// the two renames of SaveBundle) and adopted.
	RolledForward bool
	// RolledBack: the current generation was missing or corrupt and the
	// previous generation was restored.
	RolledBack bool
}

// Degraded reports whether the recovered state may be older than the
// latest successful save — the operator signal to inspect *.corrupt
// files and re-submit recent batches if needed.
func (r SalvageReport) Degraded() bool {
	return r.RolledBack || len(r.Quarantined) > 0
}

// SaveBundle durably replaces the bundle at path with the bytes
// produced by write, keeping the previous generation at path+".prev"
// as a rollback target. The sequence is:
//
//  1. write path+".tmp" (truncate, write, fsync, close)
//  2. rename path → path+".prev" (if path exists)
//  3. rename path+".tmp" → path
//  4. fsync the parent directory
//
// A crash at any step leaves a state LoadBundle recovers from: the old
// generation (steps 1–2 undone or lost), the new generation reachable
// under .tmp with path absent (between steps 2 and 3 — rolled
// forward), or the new generation in place.
func SaveBundle(fsys vfs.FS, path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmpName := path + tmpSuffix
	tmp, err := fsys.OpenFile(tmpName, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmpName, err)
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return fmt.Errorf("store: write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return fmt.Errorf("store: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return fmt.Errorf("store: close %s: %w", tmpName, err)
	}
	if _, err := fsys.Stat(path); err == nil {
		if err := fsys.Rename(path, path+prevSuffix); err != nil {
			return fmt.Errorf("store: retire %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: stat %s: %w", path, err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return fmt.Errorf("store: rename %s: %w", path, err)
	}
	return fsys.SyncDir(dir)
}

// LoadBundle reads the bundle at path, validating each candidate
// generation with validate (nil means any readable file is valid) and
// salvaging whatever a crash or corruption left behind:
//
//   - path valid → returned as-is; a leftover .tmp is deleted.
//   - path corrupt → quarantined to path+".corrupt"; recovery continues.
//   - path absent, .tmp valid → the interrupted save is rolled forward
//     (renamed into place).
//   - otherwise, .prev valid → rolled back to the previous generation.
//
// Invalid candidates are quarantined to <name>+".corrupt". If no valid
// generation remains but corrupt ones existed, the error wraps
// ErrCorrupt and names the bundle path; if nothing existed at all, the
// error wraps os.ErrNotExist.
func LoadBundle(fsys vfs.FS, path string, validate func([]byte) error) ([]byte, SalvageReport, error) {
	var rep SalvageReport
	dir := filepath.Dir(path)
	quarantine := func(p string) error {
		if err := fsys.Rename(p, p+corruptSuffix); err != nil {
			return fmt.Errorf("store: quarantine %s: %w", p, err)
		}
		if err := fsys.SyncDir(dir); err != nil {
			return err
		}
		rep.Quarantined = append(rep.Quarantined, p+corruptSuffix)
		salvageStats.events.Add(1)
		salvageStats.quarantinedFiles.Add(1)
		return nil
	}
	sawAny := false
	var firstBad error

	// Current generation.
	data, err := fsys.ReadFile(path)
	switch {
	case err == nil:
		sawAny = true
		verr := error(nil)
		if validate != nil {
			verr = validate(data)
		}
		if verr == nil {
			// Clean load. A leftover .tmp is debris from a save that
			// never reached its renames; the durable truth is path.
			if _, err := fsys.Stat(path + tmpSuffix); err == nil {
				fsys.Remove(path + tmpSuffix)
			}
			return data, rep, nil
		}
		firstBad = verr
		if err := quarantine(path); err != nil {
			return nil, rep, err
		}
	case !errors.Is(err, os.ErrNotExist):
		return nil, rep, fmt.Errorf("store: read %s: %w", path, err)
	}

	// Interrupted save: adopt a complete new generation left at .tmp.
	tmpName := path + tmpSuffix
	if data, err := fsys.ReadFile(tmpName); err == nil {
		sawAny = true
		verr := error(nil)
		if validate != nil {
			verr = validate(data)
		}
		if verr == nil {
			if err := fsys.Rename(tmpName, path); err != nil {
				return nil, rep, fmt.Errorf("store: roll forward %s: %w", path, err)
			}
			if err := fsys.SyncDir(dir); err != nil {
				return nil, rep, err
			}
			rep.RolledForward = true
			salvageStats.events.Add(1)
			salvageStats.rollForwards.Add(1)
			return data, rep, nil
		}
		if firstBad == nil {
			firstBad = verr
		}
		if err := quarantine(tmpName); err != nil {
			return nil, rep, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, rep, fmt.Errorf("store: read %s: %w", tmpName, err)
	}

	// Fall back to the previous generation.
	prevName := path + prevSuffix
	if data, err := fsys.ReadFile(prevName); err == nil {
		sawAny = true
		verr := error(nil)
		if validate != nil {
			verr = validate(data)
		}
		if verr == nil {
			if err := fsys.Rename(prevName, path); err != nil {
				return nil, rep, fmt.Errorf("store: roll back %s: %w", path, err)
			}
			if err := fsys.SyncDir(dir); err != nil {
				return nil, rep, err
			}
			rep.RolledBack = true
			salvageStats.events.Add(1)
			salvageStats.rollBacks.Add(1)
			return data, rep, nil
		}
		if firstBad == nil {
			firstBad = verr
		}
		if err := quarantine(prevName); err != nil {
			return nil, rep, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, rep, fmt.Errorf("store: read %s: %w", prevName, err)
	}

	if sawAny {
		return nil, rep, fmt.Errorf("store: bundle %s: no valid generation: %w (%w)",
			path, ErrCorrupt, firstBad)
	}
	return nil, rep, fmt.Errorf("store: bundle %s: %w", path, os.ErrNotExist)
}
