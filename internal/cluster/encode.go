package cluster

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/midas-graph/midas/graph"
)

// Encode writes the clustering in the line format a state bundle
// stores, so a restart decodes the maintained clusters instead of
// re-clustering. Records, one per line:
//
//	next <next cluster ID>
//	key <feature key>          one per feature dimension, in order
//	cluster <ID>               clusters in ID order, each followed by
//	member <graph ID> <bits>   its members in ID order
//
// A member's feature vector is written as the indices of its 1 entries.
// Vectors reflect the tree set at the time the member was inserted, so
// they cannot be recomputed; the centroid sums are exact integer sums
// of them and are recomputed on decode.
func (cl *Clustering) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "next %d\n", cl.nextID)
	for _, k := range cl.keys {
		bw.WriteString("key " + k + "\n")
	}
	var buf []byte
	for _, c := range cl.Clusters() {
		fmt.Fprintf(bw, "cluster %d\n", c.ID)
		for _, id := range c.MemberIDs() {
			buf = append(buf[:0], "member "...)
			buf = strconv.AppendInt(buf, int64(id), 10)
			for i, x := range c.vecs[id] {
				if x != 0 {
					buf = append(buf, ' ')
					buf = strconv.AppendInt(buf, int64(i), 10)
				}
			}
			buf = append(buf, '\n')
			bw.Write(buf)
		}
	}
	return bw.Flush()
}

// Decode rebuilds a clustering written by Encode over db, with cfg as
// the clustering configuration (it is not stored in the section). Every
// graph of db must be a member of exactly one cluster, and every member
// must be a graph of db. Malformed or contradicting input is an error,
// never a panic.
func Decode(text string, cfg Config, db *graph.Database) (*Clustering, error) {
	cl := &Clustering{
		cfg:      cfg.withDefaults(db.Len()),
		clusters: make(map[int]*Cluster),
		owner:    make(map[int]int),
		nextID:   -1,
	}
	var cur *Cluster
	for n, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		bad := func(why string) error {
			return fmt.Errorf("cluster: line %d: %s: %q", n+1, why, line)
		}
		switch {
		case f[0] == "next" && len(f) == 2 && cl.nextID < 0:
			next, err := strconv.Atoi(f[1])
			if err != nil || next < 0 {
				return nil, bad("bad next cluster ID")
			}
			cl.nextID = next
		case f[0] == "key" && len(f) == 2 && cl.nextID >= 0 && len(cl.clusters) == 0:
			cl.keys = append(cl.keys, f[1])
		case f[0] == "cluster" && len(f) == 2 && cl.nextID >= 0:
			id, err := strconv.Atoi(f[1])
			if err != nil || id < 0 || id >= cl.nextID || cl.clusters[id] != nil {
				return nil, bad("bad or duplicate cluster ID")
			}
			cur = newCluster(id, len(cl.keys))
			cl.clusters[id] = cur
		case f[0] == "member" && len(f) >= 2 && cur != nil:
			id, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, bad("bad graph ID")
			}
			g := db.Get(id)
			if g == nil {
				return nil, bad("graph is not in the database")
			}
			if _, dup := cl.owner[id]; dup {
				return nil, bad("graph is in two clusters")
			}
			vec := make([]float64, len(cl.keys))
			prev := -1
			for _, s := range f[2:] {
				i, err := strconv.Atoi(s)
				if err != nil || i <= prev || i >= len(vec) {
					return nil, bad("bad feature index")
				}
				vec[i] = 1
				prev = i
			}
			cur.add(g, vec)
			cl.owner[id] = cur.ID
		default:
			return nil, bad("unknown or misplaced record")
		}
	}
	if cl.nextID < 0 {
		return nil, fmt.Errorf("cluster: missing next record")
	}
	if len(cl.owner) != db.Len() {
		return nil, fmt.Errorf("cluster: %d of the database's %d graphs are in no cluster",
			db.Len()-len(cl.owner), db.Len())
	}
	return cl, nil
}
