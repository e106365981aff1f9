package tree

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/midas-graph/midas/graph"
)

// Encode writes the set in the line format a state bundle stores, so a
// restart decodes the maintained trees instead of re-mining them.
// Records, one per line:
//
//	size <|D|>
//	edge <label> <posting>   every edge label, sorted
//	alias <key> <label>      a tree that is the edge tree of label
//	tree <key> <posting>     every other tree, sorted by key
//
// followed by the graphs of the tree records, in the same order, in the
// graph text format. Postings are written as sorted graph IDs. The
// aliases record the identity sharing between the trees and edges maps
// that Add relies on (see Clone).
func (s *Set) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "size %d\n", s.dbSize)
	labelOf := make(map[*Tree]string, len(s.edges))
	for _, et := range s.sortedEdges() {
		label := edgeLabelOf(et.G)
		labelOf[et] = label
		bw.WriteString("edge " + label)
		writePosting(bw, et.Post)
	}
	keys := make([]string, 0, len(s.trees))
	for k := range s.trees {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var graphs []*graph.Graph
	for _, k := range keys {
		t := s.trees[k]
		if label, ok := labelOf[t]; ok {
			fmt.Fprintf(bw, "alias %s %s\n", k, label)
			continue
		}
		bw.WriteString("tree " + k)
		writePosting(bw, t.Post)
		graphs = append(graphs, t.G)
	}
	if err := graph.Write(bw, graphs); err != nil {
		return err
	}
	return bw.Flush()
}

// writePosting appends the sorted IDs of post to the current line and
// ends it.
func writePosting(bw *bufio.Writer, post map[int]struct{}) {
	ids := make([]int, 0, len(post))
	for id := range post {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var buf []byte
	for _, id := range ids {
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(id), 10)
	}
	buf = append(buf, '\n')
	bw.Write(buf)
}

// Decode rebuilds a set written by Encode. supMin and maxEdges are the
// set's thresholds, which the section does not store. db is the
// database the set was maintained against: |D| must match and every
// posting may name only its graphs. Each tree must be a tree with at
// least one edge whose canonical key is the one recorded. Malformed or
// contradicting input is an error, never a panic.
func Decode(text string, supMin float64, maxEdges int, db *graph.Database) (*Set, error) {
	head, body := graph.CutGraphs(text)
	s := &Set{
		SupMin:   supMin,
		MaxEdges: maxEdges,
		trees:    make(map[string]*Tree),
		edges:    make(map[string]*Tree),
		dbSize:   -1,
	}
	var pending []*Tree // tree records awaiting their graphs
	for n, line := range strings.Split(head, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		bad := func(why string) error {
			return fmt.Errorf("tree: line %d: %s: %q", n+1, why, line)
		}
		switch {
		case f[0] == "size" && len(f) == 2 && s.dbSize < 0:
			size, err := strconv.Atoi(f[1])
			if err != nil || size != db.Len() {
				return nil, bad(fmt.Sprintf("size does not match the database's %d graphs", db.Len()))
			}
			s.dbSize = size
		case f[0] == "edge" && len(f) >= 2:
			label := f[1]
			a, b := splitEdgeLabel(label)
			if a == "" || b == "" || graph.EdgeLabelOf(a, b) != label {
				return nil, bad("not a canonical edge label")
			}
			if s.edges[label] != nil {
				return nil, bad("duplicate edge label")
			}
			et := newTree(edgeGraph(label))
			if err := readPosting(f[2:], et.Post, db); err != nil {
				return nil, bad(err.Error())
			}
			s.edges[label] = et
		case f[0] == "alias" && len(f) == 3:
			et := s.edges[f[2]]
			if et == nil || et.Key != f[1] {
				return nil, bad("alias of an unknown edge tree")
			}
			if s.trees[f[1]] != nil {
				return nil, bad("duplicate tree key")
			}
			s.trees[f[1]] = et
		case f[0] == "tree" && len(f) >= 2:
			if s.trees[f[1]] != nil {
				return nil, bad("duplicate tree key")
			}
			t := &Tree{Key: f[1], Post: make(map[int]struct{})}
			if err := readPosting(f[2:], t.Post, db); err != nil {
				return nil, bad(err.Error())
			}
			s.trees[t.Key] = t
			pending = append(pending, t)
		default:
			return nil, bad("unknown record")
		}
	}
	if s.dbSize < 0 {
		return nil, fmt.Errorf("tree: missing size record")
	}
	graphs, err := graph.ReadInOrder(strings.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("tree: %w", err)
	}
	if len(graphs) != len(pending) {
		return nil, fmt.Errorf("tree: %d tree records but %d graphs", len(pending), len(graphs))
	}
	for i, t := range pending {
		g := graphs[i]
		if g.Size() < 1 || !g.IsTree() || CanonicalKey(g) != t.Key {
			return nil, fmt.Errorf("tree: graph %d is not the tree %q", i, t.Key)
		}
		t.G = g
	}
	return s, nil
}

// readPosting parses sorted graph IDs into post; every ID must name a
// graph of db.
func readPosting(fields []string, post map[int]struct{}, db *graph.Database) error {
	prev := 0
	for i, f := range fields {
		id, err := strconv.Atoi(f)
		if err != nil {
			return fmt.Errorf("bad graph ID %q", f)
		}
		if i > 0 && id <= prev {
			return fmt.Errorf("posting not sorted at %d", id)
		}
		if !db.Has(id) {
			return fmt.Errorf("graph %d is not in the database", id)
		}
		post[id] = struct{}{}
		prev = id
	}
	return nil
}
