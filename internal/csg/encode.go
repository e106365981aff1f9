package csg

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/cluster"
)

// Encode writes the summaries in the line format a state bundle stores,
// so a restart decodes them instead of re-running the alignments that
// built them. One record per summary edge,
//
//	s <member IDs>   the edge's support, sorted
//
// for the summaries in cluster-ID order and each summary's edges in its
// edge order, followed by the summary graphs in the same order, in the
// graph text format (graph ID = cluster ID). Isolated vertices are
// written too, and edges in insertion order, so a decoded summary has
// the same adjacency lists, whose order decides which alignment the
// VF2 and MCCS searches of later integrations find.
func (m *Manager) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	ids := m.ClusterIDs()
	graphs := make([]*graph.Graph, len(ids))
	var buf []byte
	for i, id := range ids {
		s := m.csgs[id]
		graphs[i] = s.G
		for _, e := range s.G.Edges() {
			buf = append(buf[:0], 's')
			for _, gid := range s.EdgeSupport(e) {
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, int64(gid), 10)
			}
			buf = append(buf, '\n')
			bw.Write(buf)
		}
	}
	if err := graph.Write(bw, graphs); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeManager rebuilds a manager written by Encode, with the given
// alignment budget (as NewManager). Every summary must belong to a
// cluster of cl, and every supporting ID must be a graph of db.
// Malformed or contradicting input is an error, never a panic.
func DecodeManager(text string, budget int, cl *cluster.Clustering, db *graph.Database) (*Manager, error) {
	head, body := graph.CutGraphs(text)
	var supports [][]int
	for n, line := range strings.Split(head, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if f[0] != "s" || len(f) < 2 {
			return nil, fmt.Errorf("csg: line %d: want a non-empty support record: %q", n+1, line)
		}
		sup := make([]int, len(f)-1)
		for i, s := range f[1:] {
			id, err := strconv.Atoi(s)
			if err != nil || (i > 0 && id <= sup[i-1]) || !db.Has(id) {
				return nil, fmt.Errorf("csg: line %d: bad, unsorted or unknown graph ID %q", n+1, s)
			}
			sup[i] = id
		}
		supports = append(supports, sup)
	}
	graphs, err := graph.ReadInOrder(strings.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("csg: %w", err)
	}
	m := NewManager(budget)
	for _, g := range graphs {
		if cl.Cluster(g.ID) == nil {
			return nil, fmt.Errorf("csg: summary for cluster %d, which does not exist", g.ID)
		}
		if m.csgs[g.ID] != nil {
			return nil, fmt.Errorf("csg: two summaries for cluster %d", g.ID)
		}
		if g.Size() > len(supports) {
			return nil, fmt.Errorf("csg: summary edges outnumber support records")
		}
		s := newCSG(g.ID, g, budget, nil, false)
		for i, e := range g.Edges() {
			sup := make(map[int]struct{}, len(supports[i]))
			for _, id := range supports[i] {
				sup[id] = struct{}{}
			}
			s.support[e] = sup
		}
		supports = supports[g.Size():]
		m.csgs[g.ID] = s
	}
	if len(supports) != 0 {
		return nil, fmt.Errorf("csg: %d support records without a summary edge", len(supports))
	}
	return m, nil
}
