package cluster

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/tree"
)

// TestEncodeDecodeRoundTrip: a maintained clustering decodes to the
// same clusters, members, feature vectors, centroid sums, owners and
// ID allocator, and encodes to the same text.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	db := dataset.PubChemLike().GenerateDB(24, 1)
	set := tree.Mine(db, 0.4, 3)
	cfg := Config{K: 3, MaxSize: 6}
	cl := Build(db, set, cfg, rand.New(rand.NewSource(1)))
	for _, id := range []int{0, 5, 9} {
		cl.Remove(id)
		db.Remove(id)
	}
	for _, g := range dataset.BoronicEsters().Generate(5, 100, 2) {
		cl.Assign(g, set)
		if err := db.Add(g); err != nil {
			t.Fatal(err)
		}
	}
	cl.RefineOversized()

	var buf bytes.Buffer
	if err := cl.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := Decode(buf.String(), cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	if d.nextID != cl.nextID || !reflect.DeepEqual(d.keys, cl.keys) ||
		!reflect.DeepEqual(d.owner, cl.owner) || d.cfg != cl.cfg {
		t.Fatal("clustering header, owners or config did not round-trip")
	}
	if len(d.clusters) != len(cl.clusters) || len(cl.clusters) < 2 {
		t.Fatalf("decoded %d clusters, want %d (at least 2)", len(d.clusters), len(cl.clusters))
	}
	for id, want := range cl.clusters {
		got := d.clusters[id]
		if got == nil || !reflect.DeepEqual(got.members, want.members) ||
			!reflect.DeepEqual(got.vecs, want.vecs) || !reflect.DeepEqual(got.sum, want.sum) {
			t.Fatalf("cluster %d did not round-trip", id)
		}
	}
	var again bytes.Buffer
	if err := d.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("re-encoding the decoded clustering changed the text")
	}
}

func TestDecodeRejectsContradictions(t *testing.T) {
	db := dataset.PubChemLike().GenerateDB(10, 1)
	cl := Build(db, tree.Mine(db, 0.4, 3), Config{}, rand.New(rand.NewSource(1)))
	var buf bytes.Buffer
	if err := cl.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	small := graph.NewDatabase()
	for _, g := range db.Graphs()[1:] {
		if err := small.Add(g); err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range map[string]struct {
		text string
		db   *graph.Database
	}{
		"member not in database": {text, small},
		"graph in no cluster":    {strings.Replace(text, "member 3", "member 99", 1), db},
		"graph in two clusters":  {text + "cluster 999\nmember 3\n", db},
		"feature out of range":   {strings.Replace(text, "member 3", "member 3 9999", 1), db},
		"garbage":                {text + "bogus\n", db},
	} {
		if _, err := Decode(c.text, Config{}, c.db); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
