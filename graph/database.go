package graph

import (
	"fmt"
	"sort"
)

// Database is a collection of small- or medium-sized data graphs, each
// with a unique ID (the paper's D, §2.1). It preserves insertion order
// for deterministic iteration and supports the batch unit updates of the
// CPM problem: graph insertion and graph deletion (§3.1).
type Database struct {
	graphs []*Graph
	byID   map[int]int // graph ID -> index into graphs
	nextID int
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{byID: make(map[int]int)}
}

// DatabaseOf builds a database from the given graphs. Graph IDs must be
// unique; DatabaseOf panics otherwise so that fixtures fail loudly.
func DatabaseOf(graphs ...*Graph) *Database {
	d := NewDatabase()
	for _, g := range graphs {
		if err := d.Add(g); err != nil {
			panic(err)
		}
	}
	return d
}

// Len returns |D|, the number of data graphs.
func (d *Database) Len() int { return len(d.graphs) }

// Graphs returns the data graphs in insertion order. The slice is owned
// by the database and must not be mutated.
func (d *Database) Graphs() []*Graph { return d.graphs }

// Get returns the graph with the given ID, or nil if absent.
func (d *Database) Get(id int) *Graph {
	if i, ok := d.byID[id]; ok {
		return d.graphs[i]
	}
	return nil
}

// Has reports whether a graph with the given ID is present.
func (d *Database) Has(id int) bool {
	_, ok := d.byID[id]
	return ok
}

// Add inserts g. It fails if a graph with the same ID already exists.
func (d *Database) Add(g *Graph) error {
	if _, dup := d.byID[g.ID]; dup {
		return fmt.Errorf("graph: database already contains graph %d", g.ID)
	}
	d.byID[g.ID] = len(d.graphs)
	d.graphs = append(d.graphs, g)
	if g.ID >= d.nextID {
		d.nextID = g.ID + 1
	}
	return nil
}

// Remove deletes the graph with the given ID, reporting whether it was
// present.
func (d *Database) Remove(id int) bool {
	i, ok := d.byID[id]
	if !ok {
		return false
	}
	copy(d.graphs[i:], d.graphs[i+1:])
	d.graphs = d.graphs[:len(d.graphs)-1]
	delete(d.byID, id)
	for j := i; j < len(d.graphs); j++ {
		d.byID[d.graphs[j].ID] = j
	}
	return true
}

// NextID returns an ID larger than every ID ever inserted, for minting
// new graphs.
func (d *Database) NextID() int { return d.nextID }

// SetNextID restores an allocator saved with the database, so IDs of
// graphs deleted before the save are not minted again. It reports
// false, changing nothing, when next is below NextID: at or below a
// live ID, or below what an earlier call set.
func (d *Database) SetNextID(next int) bool {
	if next < d.nextID {
		return false
	}
	d.nextID = next
	return true
}

// Clone returns a deep copy of the database, allocator included.
func (d *Database) Clone() *Database {
	c := NewDatabase()
	for _, g := range d.graphs {
		if err := c.Add(g.Clone()); err != nil {
			panic(err) // unreachable: source IDs are unique
		}
	}
	c.nextID = d.nextID
	return c
}

// IDs returns the sorted graph IDs.
func (d *Database) IDs() []int {
	ids := make([]int, 0, len(d.graphs))
	for _, g := range d.graphs {
		ids = append(ids, g.ID)
	}
	sort.Ints(ids)
	return ids
}

// TotalEdges returns the sum of |E| over all data graphs.
func (d *Database) TotalEdges() int {
	total := 0
	for _, g := range d.graphs {
		total += g.Size()
	}
	return total
}

// Update is a batch update ΔD: a set of graphs to insert (Δ+) and graph
// IDs to delete (Δ-) (paper §3.1).
type Update struct {
	Insert []*Graph
	Delete []int
}

// Apply applies the update to d in place: deletions first, then
// insertions. It returns an error (leaving previously-applied unit
// updates in place) if an inserted ID collides.
func (d *Database) Apply(u Update) error {
	for _, id := range u.Delete {
		d.Remove(id)
	}
	for _, g := range u.Insert {
		if err := d.Add(g); err != nil {
			return err
		}
	}
	return nil
}

// ApplyToCopy returns a copy of d with the update applied (D ⊕ ΔD),
// sharing graph storage with d for untouched graphs. The copy's
// allocator starts from d's.
func (d *Database) ApplyToCopy(u Update) (*Database, error) {
	c := NewDatabase()
	c.nextID = d.nextID
	del := make(map[int]struct{}, len(u.Delete))
	for _, id := range u.Delete {
		del[id] = struct{}{}
	}
	for _, g := range d.graphs {
		if _, gone := del[g.ID]; gone {
			continue
		}
		if err := c.Add(g); err != nil {
			return nil, err
		}
	}
	for _, g := range u.Insert {
		if err := c.Add(g); err != nil {
			return nil, err
		}
	}
	return c, nil
}
