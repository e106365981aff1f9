package midas

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/vfs"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := dataset.EMolLike().GenerateDB(25, 3)
	opts := smallOptions()
	e := New(db, opts)
	wantPatterns := e.Patterns()
	wantQuality := e.Quality()

	var buf strings.Builder
	if err := SaveState(&buf, e); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadState(strings.NewReader(buf.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Patterns()
	if len(got) != len(wantPatterns) {
		t.Fatalf("patterns = %d, want %d", len(got), len(wantPatterns))
	}
	for i := range got {
		if got[i].ID != wantPatterns[i].ID {
			t.Fatalf("pattern %d ID changed: %d vs %d", i, got[i].ID, wantPatterns[i].ID)
		}
		if graph.Signature(got[i]) != graph.Signature(wantPatterns[i]) {
			t.Fatalf("pattern %d structure changed", i)
		}
	}
	if loaded.DB().Len() != 25 {
		t.Fatalf("db len = %d, want 25", loaded.DB().Len())
	}
	q := loaded.Quality()
	if q.Scov != wantQuality.Scov || q.Cog != wantQuality.Cog {
		t.Fatalf("quality drifted: %+v vs %+v", q, wantQuality)
	}
}

func TestLoadedEngineMaintains(t *testing.T) {
	db := dataset.EMolLike().GenerateDB(20, 5)
	opts := smallOptions()
	opts.Epsilon = 0.02
	e := New(db, opts)
	var buf strings.Builder
	if err := SaveState(&buf, e); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadState(strings.NewReader(buf.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	ins := dataset.BoronicEsters().Generate(15, loaded.DB().NextID(), 6)
	rep, err := loaded.Maintain(graph.Update{Insert: ins})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PMT <= 0 {
		t.Fatal("maintenance on loaded engine produced no report")
	}
	if loaded.DB().Len() != 35 {
		t.Fatalf("db len = %d, want 35", loaded.DB().Len())
	}
}

// TestRestoreThenSaveKeepsOptions pins the bundle header to the
// engine: a restored engine saves the options it was restored with, so
// New(γ=5) → save → LoadState → save is byte-identical. Saving with
// the caller's options instead would record whatever flags the
// restoring process happened to run with.
func TestRestoreThenSaveKeepsOptions(t *testing.T) {
	opts := smallOptions()
	opts.Budget = Budget{MinSize: 2, MaxSize: 5, Count: 5}
	opts.Workers = 2
	e := New(dataset.EMolLike().GenerateDB(15, 9), opts)
	var first strings.Builder
	if err := SaveState(&first, e); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadState(strings.NewReader(first.String()), 1)
	if err != nil {
		t.Fatal(err)
	}
	var second strings.Builder
	if err := SaveState(&second, loaded); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		a, _, _ := strings.Cut(first.String(), "== database ==")
		b, _, _ := strings.Cut(second.String(), "== database ==")
		t.Fatalf("restore-then-save rewrote the bundle\nfirst:  %s\nsecond: %s", a, b)
	}
}

func TestLoadStateErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"empty", ""},
		{"bad magic", "WRONG v9\n{}\n"},
		{"bad header", stateMagic + "\nnot-json\n== database ==\n== patterns ==\n"},
		{"missing sections", stateMagic + "\n{\"graphs\":0,\"patterns\":0}\n"},
		{"count mismatch", stateMagic + "\n{\"graphs\":5,\"patterns\":0}\n== database ==\n== patterns ==\n"},
		{"bad db section", stateMagic + "\n{\"graphs\":1,\"patterns\":0}\n== database ==\ngarbage\n== patterns ==\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := LoadState(strings.NewReader(c.text), 0); err == nil {
				t.Fatalf("LoadState(%q) succeeded, want error", c.name)
			}
		})
	}
}

func TestSearcherAfterLoad(t *testing.T) {
	db := dataset.EMolLike().GenerateDB(15, 7)
	opts := smallOptions()
	e := New(db, opts)
	var buf strings.Builder
	if err := SaveState(&buf, e); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadState(strings.NewReader(buf.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := loaded.Searcher()
	q := graph.Path(0, "C", "C")
	if s.Count(q) == 0 {
		t.Fatal("searcher over loaded engine found nothing for C-C")
	}
}

// TestVerifyStateDetectsDamage pins VerifyState as the cheap bundle
// validator: truncation and bit flips anywhere in a v2 bundle must
// surface as store.ErrCorrupt, and a bundle with no surviving
// generation must name the offending path in the error.
func TestVerifyStateDetectsDamage(t *testing.T) {
	db := dataset.EMolLike().GenerateDB(12, 11)
	opts := smallOptions()
	e := New(db, opts)
	var buf strings.Builder
	if err := SaveState(&buf, e); err != nil {
		t.Fatal(err)
	}
	good := []byte(buf.String())
	if err := VerifyState(good); err != nil {
		t.Fatalf("pristine bundle rejected: %v", err)
	}

	// Truncation at representative depths: mid-header, mid-database,
	// just before the final marker.
	for _, cut := range []int{len(good) / 10, len(good) / 2, len(good) - 3} {
		if err := VerifyState(good[:cut]); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("truncated at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
	// A single flipped bit breaks the payload checksum.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01
	if err := VerifyState(flipped); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}

	// Through the generational loader: with no valid generation left the
	// error unwraps to ErrCorrupt and names the path; the damage is
	// quarantined for post-mortem.
	dir := t.TempDir()
	path := filepath.Join(dir, "panel.state")
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := store.LoadBundle(vfs.OS, path, VerifyState)
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("LoadBundle err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error does not name the offending path: %v", err)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined = %v", rep.Quarantined)
	}

	// With an intact previous generation the loader rolls back instead.
	if err := os.WriteFile(path+".prev", good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	data, rep, err := store.LoadBundle(vfs.OS, path, VerifyState)
	if err != nil {
		t.Fatalf("rollback load: %v", err)
	}
	if !rep.RolledBack {
		t.Fatal("salvage did not report a rollback")
	}
	if eng, loadErr := LoadState(strings.NewReader(string(data)), 0); loadErr != nil {
		t.Fatalf("rolled-back bundle unusable: %v", loadErr)
	} else if eng.DB().Len() != 12 {
		t.Fatalf("rolled-back db len = %d, want 12", eng.DB().Len())
	}
}
