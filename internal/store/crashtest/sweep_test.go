package crashtest

import (
	"os"
	"strings"
	"testing"

	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/vfs"
)

// TestCrashSweep is the exhaustive crash-consistency model check: every
// crash point of every workload trace, friendly and lossy, with every
// torn length of a final write. `make crashtest` runs the full
// enumeration; -short samples crash points and tear lengths so the
// default `go test ./...` path stays fast.
func TestCrashSweep(t *testing.T) {
	var opt Options
	if testing.Short() {
		opt = Options{MaxCrashPoints: 10, MaxTearLengths: 4}
	}
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := Sweep(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d crash points, %d scenarios", w.Name, res.CrashPoints, res.Cases)
			for _, v := range res.Violations {
				t.Error(v)
			}
		})
	}
}

// TestSweepCatchesBrokenDiscipline pins the checker's teeth: a bundle
// "save" that skips the temp-file indirection and rewrites the file in
// place must produce hybrid states the sweep reports.
func TestSweepCatchesBrokenDiscipline(t *testing.T) {
	w := brokenSaveWorkload()
	res, err := Sweep(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("sweep accepted an in-place overwrite; the checker has no teeth")
	}
}

// TestSweepCatchesBrokenSpoolOrder pins the checker's teeth for the
// spool protocol: a watcher that renames the spool file before saving
// the bundle loses the batch when it crashes between the two — the
// file is already *.done, so recovery has nothing to apply, and the
// bundle never took it.
func TestSweepCatchesBrokenSpoolOrder(t *testing.T) {
	renameFirst := func(fsys vfs.FS, name string) error {
		data, err := fsys.ReadFile(spoolDir + "/" + name)
		if err != nil {
			return err
		}
		if err := retireBatch(fsys, name); err != nil {
			return err
		}
		return applyBatch(fsys, name, data)
	}
	res, err := Sweep(spoolWorkload("broken-spool-order", renameFirst), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lost := false
	for _, v := range res.Violations {
		if v.Err == nil && strings.HasPrefix(v.Fingerprint, "state=v1+g0 ") {
			lost = true
		}
	}
	if !lost {
		t.Fatalf("sweep accepted a rename before the bundle save (%d violations, none a lost batch); the checker has no teeth",
			len(res.Violations))
	}
}

// brokenSaveWorkload "saves" the bundle by truncating and rewriting it
// in place — the classic torn-write bug the real SaveBundle exists to
// prevent. There is no .prev generation to fall back to, so a crash
// mid-write strands an invalid bundle.
func brokenSaveWorkload() Workload {
	overwrite := func(fsys vfs.FS, m bundleMeta) error {
		f, err := fsys.OpenFile(statePath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(encodeBundle(m)); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return Workload{
		Name:    "broken-save",
		Prepare: func(fsys vfs.FS) error { return overwrite(fsys, bundleMeta{content: "v1"}) },
		Steps: []Step{
			func(fsys vfs.FS) error { return overwrite(fsys, bundleMeta{content: "v2-longer-content"}) },
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
