package csg

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/cluster"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/tree"
)

func encodeFixture(t *testing.T) (*Manager, *cluster.Clustering, *graph.Database) {
	t.Helper()
	db := dataset.PubChemLike().GenerateDB(24, 1)
	cl := cluster.Build(db, tree.Mine(db, 0.4, 3), cluster.Config{K: 3, MaxSize: 8}, rand.New(rand.NewSource(1)))
	m := NewManager(0)
	m.BuildAll(cl)
	// Shed some support, leaving isolated vertices and adjacency lists
	// that are no longer sorted.
	for _, id := range []int{0, 5, 9, 13} {
		m.OnRemove(cl.Remove(id), id)
		db.Remove(id)
	}
	return m, cl, db
}

// TestEncodeDecodeRoundTrip: summaries decode with the same vertices,
// edge order, adjacency order and per-edge support, and encode to the
// same text.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, cl, db := encodeFixture(t)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := DecodeManager(buf.String(), 0, cl, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.csgs) != len(m.csgs) || len(m.csgs) < 2 {
		t.Fatalf("decoded %d summaries, want %d (at least 2)", len(d.csgs), len(m.csgs))
	}
	for id, want := range m.csgs {
		got := d.csgs[id]
		if got == nil || got.ClusterID != want.ClusterID || got.budget != want.budget ||
			!reflect.DeepEqual(got.support, want.support) {
			t.Fatalf("summary %d did not round-trip", id)
		}
		g, w := got.G, want.G
		if g.ID != w.ID || !reflect.DeepEqual(g.Labels(), w.Labels()) || !reflect.DeepEqual(g.Edges(), w.Edges()) {
			t.Fatalf("summary %d: graph did not round-trip", id)
		}
		for v := 0; v < w.Order(); v++ {
			if len(g.Neighbors(v)) != len(w.Neighbors(v)) ||
				(len(w.Neighbors(v)) > 0 && !reflect.DeepEqual(g.Neighbors(v), w.Neighbors(v))) {
				t.Fatalf("summary %d vertex %d: neighbours %v, want %v", id, v, g.Neighbors(v), w.Neighbors(v))
			}
		}
	}
	var again bytes.Buffer
	if err := d.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("re-encoding the decoded summaries changed the text")
	}
}

func TestDecodeRejectsContradictions(t *testing.T) {
	m, cl, db := encodeFixture(t)
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	head, body := graph.CutGraphs(text)
	for name, bad := range map[string]string{
		"support not in database": strings.Replace(text, "s ", "s 999 ", 1),
		"summary without cluster": head + body + "t 999\nv 0 C\n",
		"two summaries":           head + body + body[:strings.Index(body[2:], "\nt ")+3],
		"missing support":         head[strings.Index(head, "\n")+1:] + body,
		"extra support":           "s 1\n" + text,
		"empty support":           "s\n" + text,
	} {
		if _, err := DecodeManager(bad, 0, cl, db); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
