package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The text format is the line-oriented transactional format commonly used
// for graph-mining datasets:
//
//	# free-form comment
//	t <graph-id>
//	v <vertex-id> <label>
//	e <u> <v>
//
// Vertex IDs inside one graph must be 0..n-1 in order of appearance.

// Write serialises the graphs to w in the text format.
func Write(w io.Writer, graphs []*Graph) error {
	bw := bufio.NewWriter(w)
	for _, g := range graphs {
		if _, err := fmt.Fprintf(bw, "t %d\n", g.ID); err != nil {
			return err
		}
		for v := 0; v < g.Order(); v++ {
			if _, err := fmt.Fprintf(bw, "v %d %s\n", v, g.Label(v)); err != nil {
				return err
			}
		}
		for _, e := range g.Edges() {
			if _, err := fmt.Fprintf(bw, "e %d %d\n", e.U, e.V); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadDatabaseFile reads a database file in the text format. Graph IDs
// must be unique.
func ReadDatabaseFile(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	graphs, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	d := NewDatabase()
	for _, g := range graphs {
		if err := d.Add(g); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Read parses graphs in the text format from r. It validates that vertex
// IDs are dense and that edge endpoints exist, and sorts every adjacency
// list ascending.
func Read(r io.Reader) ([]*Graph, error) {
	graphs, err := ReadInOrder(r)
	if err != nil {
		return nil, err
	}
	for _, g := range graphs {
		g.SortAdjacency()
	}
	return graphs, nil
}

// ReadInOrder is Read without the adjacency sort: each adjacency list
// lists its neighbours in the order their edges appear. A graph built
// by AddEdge and RemoveEdge alone keeps that order itself, so it
// round-trips through Write and ReadInOrder with identical neighbour
// lists — which the search kernels (VF2, MCCS) visit in order.
func ReadInOrder(r io.Reader) ([]*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var graphs []*Graph
	var cur *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "t":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: want \"t <id>\", got %q", line, text)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad graph id: %w", line, err)
			}
			cur = New(id)
			graphs = append(graphs, cur)
		case "v":
			if cur == nil {
				return nil, fmt.Errorf("graph: line %d: vertex before first t record", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want \"v <id> <label>\", got %q", line, text)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad vertex id: %w", line, err)
			}
			if id != cur.Order() {
				return nil, fmt.Errorf("graph: line %d: vertex id %d out of order (want %d)", line, id, cur.Order())
			}
			cur.AddVertex(fields[2])
		case "e":
			if cur == nil {
				return nil, fmt.Errorf("graph: line %d: edge before first t record", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want \"e <u> <v>\", got %q", line, text)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad endpoint: %w", line, err)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad endpoint: %w", line, err)
			}
			if !cur.AddEdge(u, v) {
				return nil, fmt.Errorf("graph: line %d: invalid or duplicate edge (%d,%d)", line, u, v)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return graphs, nil
}

// CutGraphs splits text at its first graph record (a "t" line) into
// the lines before it and the graph text from there on, for formats
// that lead a block of graphs with records of their own.
func CutGraphs(text string) (head, graphs string) {
	if strings.HasPrefix(text, "t ") {
		return "", text
	}
	if i := strings.Index(text, "\nt "); i >= 0 {
		return text[:i+1], text[i+1:]
	}
	return text, ""
}

// Marshal renders graphs to a string in the text format.
func Marshal(graphs []*Graph) string {
	var b strings.Builder
	_ = Write(&b, graphs)
	return b.String()
}

// Unmarshal parses graphs from a string in the text format.
func Unmarshal(s string) ([]*Graph, error) {
	return Read(strings.NewReader(s))
}
