package midas

import (
	"strings"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
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

func TestLoadStateRejectsMissingChecksum(t *testing.T) {
	_, bundle := corruptionFixture(t)
	lines := strings.SplitN(bundle, "\n", 3)
	// Strip the crc32 field from the v2 header: must be rejected.
	hdr := strings.Replace(lines[1], `"crc32":"`, `"nocrc":"`, 1)
	doctored := lines[0] + "\n" + hdr + "\n" + lines[2]
	if _, err := LoadState(strings.NewReader(doctored), 0); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("v2 bundle without checksum: err = %v, want missing-checksum error", err)
	}
}

func TestLoadStateAcceptsV1(t *testing.T) {
	_, bundle := corruptionFixture(t)
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
