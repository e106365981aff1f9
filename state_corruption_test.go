package midas

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/store"
)

func corruptionFixture(t *testing.T) (*Engine, string) {
	t.Helper()
	db := dataset.EMolLike().GenerateDB(20, 5)
	opts := smallOptions()
	e := New(db, opts)
	var buf strings.Builder
	if err := SaveState(&buf, e); err != nil {
		t.Fatal(err)
	}
	return e, buf.String()
}

func TestLoadStateRejectsTruncation(t *testing.T) {
	_, bundle := corruptionFixture(t)
	// Chop bytes off the payload tail: the checksum must catch it even
	// when the cut lands between section markers.
	for _, cut := range []int{1, 10, len(bundle) / 3} {
		if cut >= len(bundle) {
			continue
		}
		if _, err := LoadState(strings.NewReader(bundle[:len(bundle)-cut]), 0); err == nil {
			t.Fatalf("truncated bundle (cut %d bytes) loaded without error", cut)
		}
	}
}

func TestLoadStateRejectsBitFlip(t *testing.T) {
	_, bundle := corruptionFixture(t)
	// Flip one payload byte well past the header.
	headerEnd := strings.Index(bundle, "\n")
	headerEnd += strings.Index(bundle[headerEnd+1:], "\n") + 2
	pos := headerEnd + (len(bundle)-headerEnd)/2
	mutated := []byte(bundle)
	mutated[pos] ^= 0x40
	_, err := LoadState(strings.NewReader(string(mutated)), 0)
	if err == nil {
		t.Fatal("bit-flipped bundle loaded without error")
	}
	if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "decoding") {
		t.Fatalf("unexpected error kind: %v", err)
	}
}

// v2Fixture is a v2 bundle written by the last release that saved v2
// (20 EMol-like graphs, smallOptions): the compatibility tests derive
// their v1 and v2 inputs from it.
func v2Fixture(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "state-v2.bundle"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), stateMagicV2+"\n") {
		t.Fatal("testdata/state-v2.bundle is not a v2 bundle")
	}
	return string(b)
}

func TestLoadStateRejectsMissingChecksum(t *testing.T) {
	_, v3 := corruptionFixture(t)
	for name, bundle := range map[string]string{"v2": v2Fixture(t), "v3": v3} {
		lines := strings.SplitN(bundle, "\n", 3)
		// Strip the crc32 field from the header: must be rejected.
		hdr := strings.Replace(lines[1], `"crc32":"`, `"nocrc":"`, 1)
		doctored := lines[0] + "\n" + hdr + "\n" + lines[2]
		if _, err := LoadState(strings.NewReader(doctored), 0); err == nil ||
			!strings.Contains(err.Error(), "checksum") {
			t.Fatalf("%s bundle without checksum: err = %v, want missing-checksum error", name, err)
		}
	}
}

func TestLoadStateAcceptsV1(t *testing.T) {
	bundle := v2Fixture(t)
	// A v1 bundle has no checksum and the old magic; it must still load.
	lines := strings.SplitN(bundle, "\n", 3)
	hdr := strings.Replace(lines[1], `"crc32":"`, `"ignored":"`, 1)
	v1 := stateMagicV1 + "\n" + hdr + "\n" + lines[2]
	e, err := LoadState(strings.NewReader(v1), 0)
	if err != nil {
		t.Fatalf("v1 bundle rejected: %v", err)
	}
	if e.DB().Len() == 0 || len(e.Patterns()) == 0 {
		t.Fatal("v1 bundle loaded empty")
	}
	if e.Decoded() {
		t.Fatal("a v1 bundle cannot be decoded; it must be rebuilt")
	}
}

// TestLoadStateUpgradesV2: a v2 bundle loads through the rebuild path
// with its database and patterns intact, its first save writes v3, and
// that v3 bundle decodes and saves back byte for byte.
func TestLoadStateUpgradesV2(t *testing.T) {
	bundle := v2Fixture(t)
	e, err := LoadState(strings.NewReader(bundle), 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Decoded() {
		t.Fatal("a v2 bundle cannot be decoded; it must be rebuilt")
	}
	var v3 bytes.Buffer
	if err := SaveState(&v3, e); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v3.String(), stateMagic+"\n") {
		t.Fatalf("first save after a v2 load wrote %q", strings.SplitN(v3.String(), "\n", 2)[0])
	}
	old, err := parseStateEnvelope(strings.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	upgraded, err := parseStateEnvelope(bytes.NewReader(v3.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if upgraded.hdr.Options != old.hdr.Options || upgraded.sections[0] != old.sections[0] ||
		upgraded.sections[1] != old.sections[1] {
		t.Fatal("the rebuilt engine's database, patterns or options differ from the v2 bundle's")
	}
	r, err := LoadState(bytes.NewReader(v3.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Decoded() {
		t.Fatal("the upgraded bundle was rebuilt, not decoded")
	}
	var again bytes.Buffer
	if err := SaveState(&again, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), v3.Bytes()) {
		t.Fatal("the upgraded v3 bundle did not round-trip")
	}
}

// TestLoadStateGraphAllocator pins the v3 header's nextGraphID: it
// restores an allocator above a deleted highest ID, a value at or below
// the highest live ID is rejected as corrupt, and a v3 bundle without
// the field (as older binaries wrote it) restores highest + 1.
func TestLoadStateGraphAllocator(t *testing.T) {
	e, _ := corruptionFixture(t)
	ids := e.DB().IDs()
	if _, err := e.Maintain(graph.Update{Delete: ids[len(ids)-1:]}); err != nil {
		t.Fatal(err)
	}
	highest, next := ids[len(ids)-2], ids[len(ids)-1]+1
	var buf strings.Builder
	if err := SaveState(&buf, e); err != nil {
		t.Fatal(err)
	}
	// withHeader rewrites the header line, which the payload checksum
	// does not cover.
	withHeader := func(edit func(h map[string]any)) string {
		lines := strings.SplitN(buf.String(), "\n", 3)
		var h map[string]any
		if err := json.Unmarshal([]byte(lines[1]), &h); err != nil {
			t.Fatal(err)
		}
		edit(h)
		enc, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		return lines[0] + "\n" + string(enc) + "\n" + lines[2]
	}
	for _, tc := range []struct {
		name   string
		bundle string
		want   int
	}{
		{"saved", buf.String(), next},
		{"without the field", withHeader(func(h map[string]any) { delete(h, "nextGraphID") }), highest + 1},
	} {
		r, err := LoadState(strings.NewReader(tc.bundle), 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := r.DB().NextID(); got != tc.want {
			t.Fatalf("%s: restored NextID = %d, want %d", tc.name, got, tc.want)
		}
	}
	for _, bad := range []int{highest, -1} {
		_, err := LoadState(strings.NewReader(withHeader(func(h map[string]any) { h["nextGraphID"] = bad })), 0)
		if !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("nextGraphID %d (highest live ID %d): err = %v, want store.ErrCorrupt", bad, highest, err)
		}
	}
}

func TestSaveStateMetaRoundTrip(t *testing.T) {
	e, _ := corruptionFixture(t)
	meta := map[string]string{"lastBatch": "b1.graphs", "lastBatchSum": "00c0ffee"}
	var buf strings.Builder
	if err := SaveStateMeta(&buf, e, meta); err != nil {
		t.Fatal(err)
	}
	_, got, err := LoadStateMeta(strings.NewReader(buf.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got["lastBatch"] != "b1.graphs" || got["lastBatchSum"] != "00c0ffee" {
		t.Fatalf("meta round trip = %v", got)
	}
}

// TestLoadMaintainSaveEquivalence drives the full persistence cycle:
// an engine restored from a bundle must maintain identically to the
// engine that wrote it, and the bundle it saves afterwards must restore
// to the same state again.
func TestLoadMaintainSaveEquivalence(t *testing.T) {
	direct, bundle := corruptionFixture(t)

	loaded, err := LoadState(strings.NewReader(bundle), 0)
	if err != nil {
		t.Fatal(err)
	}
	u := graph.Update{Insert: dataset.BoronicEsters().Generate(6, 1000, 3), Delete: []int{0, 1}}
	u2 := graph.Update{Insert: dataset.BoronicEsters().Generate(6, 1000, 3), Delete: []int{0, 1}}
	if _, err := direct.Maintain(u); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Maintain(u2); err != nil {
		t.Fatal(err)
	}

	sig := func(e *Engine) []string {
		var out []string
		for _, p := range e.Patterns() {
			out = append(out, graph.Signature(p))
		}
		return out
	}
	a, b := sig(direct), sig(loaded)
	if len(a) != len(b) {
		t.Fatalf("pattern counts diverged: %d vs %d", len(a), len(b))
	}
	got, want := map[string]int{}, map[string]int{}
	for i := range a {
		want[a[i]]++
		got[b[i]]++
	}
	for s, n := range want {
		if got[s] != n {
			t.Fatalf("pattern multiset diverged at %q: %d vs %d", s, got[s], n)
		}
	}

	// Second round trip: save the maintained loaded engine and restore.
	var buf strings.Builder
	if err := SaveState(&buf, loaded); err != nil {
		t.Fatal(err)
	}
	again, err := LoadState(strings.NewReader(buf.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.DB().Len() != loaded.DB().Len() || len(again.Patterns()) != len(loaded.Patterns()) {
		t.Fatal("second round trip diverged")
	}
}
