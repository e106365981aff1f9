package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle")
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v1")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "v2")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "v2" {
		t.Fatalf("content = %q, want v2", b)
	}
}

func TestWriteAtomicFailureLeavesOriginal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle")
	if err := os.WriteFile(path, []byte("orig"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "orig" {
		t.Fatalf("original clobbered: %q", b)
	}
	// No temp litter.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("left %d files, want 1", len(entries))
	}
}

func TestChecksums(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	os.WriteFile(path, []byte("hello"), 0o644)
	fromFile, err := ChecksumFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile != ChecksumBytes([]byte("hello")) {
		t.Fatal("file and byte checksums disagree")
	}
	if ChecksumBytes([]byte("hello")) == ChecksumBytes([]byte("hellp")) {
		t.Fatal("checksum collision on near-identical input")
	}
}
