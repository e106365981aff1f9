// Package store provides the durability primitives of the serving
// layer: atomic checksummed file writes (tmp + fsync + rename + parent
// fsync), a generational state-bundle scheme with salvage-mode
// recovery, and the replication log, an append-fsync framed log with
// torn-tail salvage. The spool watcher's exactly-once record is the
// last applied batch's name and checksum in the bundle metadata, so
// the bundle alone settles a spool batch after a crash.
//
// Every file operation in this package goes through the vfs seam
// (internal/vfs) — never the os package directly — so the
// crash-consistency sweep in internal/store/crashtest can replay every
// prefix of the recorded operation trace into a simulated filesystem
// and prove that recovery always lands on the complete pre-crash or
// complete post-crash state. The fsyncdiscipline lint analyzer enforces
// the seam.
package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"github.com/midas-graph/midas/internal/vfs"
)

// WriteAtomic durably replaces the file at path with the bytes produced
// by write, using the production filesystem. See WriteAtomicFS.
func WriteAtomic(path string, write func(w io.Writer) error) error {
	return WriteAtomicFS(vfs.OS, path, write)
}

// WriteAtomicFS durably replaces the file at path with the bytes
// produced by write: the content goes to a temporary file in the same
// directory, is fsynced, renamed over path, and the parent directory is
// fsynced so the rename itself survives a crash. On any error the
// temporary file is removed and path is left untouched.
func WriteAtomicFS(fsys vfs.FS, path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: create temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			tmp.Close()
			fsys.Remove(tmpName)
		}
	}()
	if err := write(tmp); err != nil {
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		tmpName = ""
		return fmt.Errorf("store: rename %s: %w", path, err)
	}
	tmpName = "" // renamed; nothing to clean up
	return fsys.SyncDir(dir)
}

// ChecksumBytes returns the IEEE CRC32 of b — the checksum family used
// for both state bundles and the spool batch checksum the bundle
// metadata records.
func ChecksumBytes(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// ChecksumFile returns the IEEE CRC32 of the file's contents.
func ChecksumFile(path string) (uint32, error) {
	return ChecksumFileFS(vfs.OS, path)
}

// ChecksumFileFS is ChecksumFile through the vfs seam.
func ChecksumFileFS(fsys vfs.FS, path string) (uint32, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}
