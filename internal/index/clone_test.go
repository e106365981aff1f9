package index

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/tree"
)

// TestCloneIsolatedFromDeltaMaintenance protects the rollback
// invariant: a snapshot clone and the live index share no mutable
// structure, so driving the live copy through every delta-maintenance
// event — graph columns, pattern columns, feature churn (which inserts
// and removes trie rows) — must leave the clone's matrices, trie and
// cover sets bit-unchanged, and vice versa.
func TestCloneIsolatedFromDeltaMaintenance(t *testing.T) {
	d, set := fixture()
	p := graph.Path(100, "C", "O", "C")
	ix := Build(set, d, []*graph.Graph{p})
	ix.RegisterPattern(p)

	snapSet := set.Clone()
	clone := ix.Clone(snapSet)
	before := clone.Fingerprint()
	liveBefore := ix.Fingerprint()
	if !bytes.Equal(before, liveBefore) {
		t.Fatal("clone does not reproduce the original bytes")
	}
	coverBefore := clone.CoverSet(p, d)

	// Mutate the live index through the full delta-event alphabet.
	ins := []*graph.Graph{
		graph.Path(10, "C", "N"),
		graph.Path(11, "C", "N"),
		graph.Path(12, "C", "N", "C"),
	}
	after, err := d.ApplyToCopy(graph.Update{Insert: ins, Delete: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	set.Update(after, graph.Update{Insert: ins, Delete: []int{1}})
	ix.RemoveGraph(1)
	for _, g := range ins {
		ix.AddGraph(g)
	}
	ix.UnregisterPattern(100)
	p2 := graph.Path(101, "C", "N")
	ix.RegisterPattern(p2)
	// C.N turns frequent here: SyncFeatures inserts new trie rows and
	// deletes the IFE row — the churn that motivates this regression.
	rowsBefore := append(ix.FeatureKeys(), ix.IFELabels()...)
	ix.SyncFeatures(set, after, []*graph.Graph{p2})
	if reflect.DeepEqual(append(ix.FeatureKeys(), ix.IFELabels()...), rowsBefore) {
		t.Fatal("fixture produced no feature churn; the test lost its teeth")
	}

	if got := clone.Fingerprint(); !bytes.Equal(got, before) {
		t.Fatalf("delta maintenance on the live index mutated the clone\nbefore:\n%s\nafter:\n%s", before, got)
	}
	cover := clone.CoverSet(p, d)
	if len(cover) != len(coverBefore) {
		t.Fatalf("clone cover set changed: %v -> %v", coverBefore, cover)
	}
	for id := range coverBefore {
		if _, ok := cover[id]; !ok {
			t.Fatalf("clone cover set changed: %v -> %v", coverBefore, cover)
		}
	}

	// And the other direction: mutating the clone leaves the live index
	// untouched.
	liveNow := ix.Fingerprint()
	clone.AddGraph(graph.Path(50, "C", "O", "C"))
	clone.UnregisterPattern(100)
	clone.RegisterPattern(graph.Path(102, "C", "O"))
	clone.Trie.Insert([]string{"zz", "fabricated"}, "zz-fabricated-key")
	if got := ix.Fingerprint(); !bytes.Equal(got, liveNow) {
		t.Fatal("mutating the clone changed the live index")
	}
}

// TestTrieCloneDeep pins Trie.Clone as a structural deep copy: inserts
// and removals on either side are invisible to the other.
func TestTrieCloneDeep(t *testing.T) {
	d, set := fixture()
	ix := Build(set, d, nil)
	orig := ix.Trie
	cl := orig.Clone()
	if orig.Len() == 0 {
		t.Fatal("fixture trie empty")
	}
	// Use a real feature's token path so Remove prunes shared suffixes.
	var tokens []string
	var key string
	for _, fk := range ix.FeatureKeys() {
		f := ix.Feature(fk)
		tokens = tree.CanonicalTokens(f.G)
		key = fk
		break
	}
	nodes, terms := orig.NodeCount(), orig.Len()

	if !cl.Remove(tokens) {
		t.Fatalf("clone missing fixture key %q", key)
	}
	cl.Insert([]string{"only", "in", "clone"}, "only-in-clone")
	if orig.NodeCount() != nodes || orig.Len() != terms {
		t.Fatalf("clone mutation changed original: nodes %d->%d terms %d->%d", nodes, orig.NodeCount(), terms, orig.Len())
	}
	if got, ok := orig.Lookup(tokens); !ok || got != key {
		t.Fatalf("removed key vanished from original: %q %v", got, ok)
	}

	orig.Insert([]string{"only", "in", "original"}, "only-in-original")
	if _, ok := cl.Lookup([]string{"only", "in", "original"}); ok {
		t.Fatal("original insert leaked into clone")
	}
}
