package tree

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
)

// sameGraph reports whether a and b match in ID, labels, edge order and
// every adjacency list's order.
func sameGraph(a, b *graph.Graph) bool {
	if a.ID != b.ID || !reflect.DeepEqual(a.Labels(), b.Labels()) || !reflect.DeepEqual(a.Edges(), b.Edges()) {
		return false
	}
	for v := 0; v < a.Order(); v++ {
		if len(a.Neighbors(v)) != len(b.Neighbors(v)) {
			return false
		}
		for i, w := range a.Neighbors(v) {
			if b.Neighbors(v)[i] != w {
				return false
			}
		}
	}
	return true
}

// TestEncodeDecodeRoundTrip: a maintained set decodes to the same trees,
// postings, graphs and tree/edge aliasing, and encodes to the same text.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	db := dataset.PubChemLike().GenerateDB(20, 1)
	s := Mine(db, 0.4, 3)
	ins := dataset.BoronicEsters().Generate(8, 100, 2)
	u := graph.Update{Insert: ins, Delete: []int{0, 1, 2}}
	if err := db.Apply(u); err != nil {
		t.Fatal(err)
	}
	s.Update(db, u)

	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := Decode(buf.String(), s.SupMin, s.MaxEdges, db)
	if err != nil {
		t.Fatal(err)
	}
	if d.dbSize != s.dbSize || len(d.trees) != len(s.trees) || len(d.edges) != len(s.edges) {
		t.Fatalf("decoded %d trees, %d edges, |D| %d; want %d, %d, %d",
			len(d.trees), len(d.edges), d.dbSize, len(s.trees), len(s.edges), s.dbSize)
	}
	aliased := 0
	for k, want := range s.trees {
		got := d.trees[k]
		if got == nil || got.Key != want.Key || !reflect.DeepEqual(got.Post, want.Post) || !sameGraph(got.G, want.G) {
			t.Fatalf("tree %q did not round-trip", k)
		}
		if want.Size() == 1 {
			label := edgeLabelOf(want.G)
			if (s.edges[label] == want) != (d.edges[label] == got) {
				t.Fatalf("tree %q: aliasing with the edge tree not restored", k)
			}
			aliased++
		}
	}
	if aliased == 0 {
		t.Fatal("fixture has no single-edge trees")
	}
	for l, want := range s.edges {
		got := d.edges[l]
		if got == nil || got.Key != want.Key || !reflect.DeepEqual(got.Post, want.Post) || !sameGraph(got.G, want.G) {
			t.Fatalf("edge tree %q did not round-trip", l)
		}
	}
	var again bytes.Buffer
	if err := d.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("re-encoding the decoded set changed the text")
	}
}

func TestDecodeRejectsContradictions(t *testing.T) {
	db := dataset.PubChemLike().GenerateDB(10, 1)
	s := Mine(db, 0.4, 3)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	head, body := graph.CutGraphs(text)
	for name, bad := range map[string]string{
		"size":          strings.Replace(text, "size 10\n", "size 11\n", 1),
		"unknown graph": strings.Replace(text, "size 10\n", "size 10\nedge Q.Q 999\n", 1),
		"not a tree":    head + "tree Q(Q,Q) 0\n" + body + "t -1\nv 0 Q\nv 1 Q\nv 2 Q\ne 0 1\ne 1 2\ne 0 2\n",
		"wrong key":     head + "tree Q(Q,Q) 0\n" + body + "t -1\nv 0 Q\nv 1 Q\ne 0 1\n",
		"missing graph": head + "tree Q(Q) 0\n" + body,
		"bad alias":     strings.Replace(text, "size 10\n", "size 10\nalias Q(Q) Q.Q\n", 1),
		"garbage":       strings.Replace(text, "size 10\n", "size 10\nbogus\n", 1),
	} {
		if _, err := Decode(bad, 0.4, 3, db); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
