package graph

import (
	"testing"
)

func TestDatabaseAddRemove(t *testing.T) {
	d := NewDatabase()
	g1 := Path(1, "C", "O")
	g2 := Path(2, "C", "N")
	if err := d.Add(g1); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(g2); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(Path(1, "X", "Y")); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Get(1) != g1 || d.Get(2) != g2 {
		t.Fatal("Get returned wrong graph")
	}
	if d.Get(3) != nil {
		t.Fatal("Get(3) should be nil")
	}
	if !d.Remove(1) {
		t.Fatal("Remove(1) failed")
	}
	if d.Remove(1) {
		t.Fatal("Remove(1) succeeded twice")
	}
	if d.Len() != 1 || !d.Has(2) || d.Has(1) {
		t.Fatal("state wrong after removal")
	}
	// Index map must be consistent after compaction.
	if d.Get(2) != g2 {
		t.Fatal("Get(2) broken after Remove")
	}
}

func TestDatabaseNextID(t *testing.T) {
	d := DatabaseOf(Path(10, "C", "O"))
	if d.NextID() != 11 {
		t.Fatalf("NextID = %d, want 11", d.NextID())
	}
	d.Remove(10)
	if d.NextID() != 11 {
		t.Fatalf("NextID after remove = %d, want 11 (IDs never reused)", d.NextID())
	}
	// Copies keep the allocator, although ID 10 is gone.
	if c := d.Clone(); c.NextID() != 11 {
		t.Fatalf("Clone NextID = %d, want 11", c.NextID())
	}
	if c, err := d.ApplyToCopy(Update{}); err != nil || c.NextID() != 11 {
		t.Fatalf("ApplyToCopy NextID = %d, %v; want 11", c.NextID(), err)
	}
	d.Add(Path(3, "C", "N"))
	if d.SetNextID(3) || d.SetNextID(10) || d.NextID() != 11 {
		t.Fatalf("SetNextID accepted a value below the allocator: NextID = %d", d.NextID())
	}
	if !d.SetNextID(20) || d.NextID() != 20 {
		t.Fatalf("SetNextID(20) left NextID = %d", d.NextID())
	}
}

func TestDatabaseApply(t *testing.T) {
	d := DatabaseOf(Path(0, "C", "O"), Path(1, "C", "N"), Path(2, "O", "S"))
	u := Update{
		Insert: []*Graph{Path(3, "B", "O")},
		Delete: []int{1},
	}
	if err := d.Apply(u); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 || d.Has(1) || !d.Has(3) {
		t.Fatalf("Apply result wrong: ids=%v", d.IDs())
	}
}

func TestDatabaseApplyToCopy(t *testing.T) {
	d := DatabaseOf(Path(0, "C", "O"), Path(1, "C", "N"))
	u := Update{Insert: []*Graph{Path(5, "B", "O")}, Delete: []int{0}}
	c, err := d.ApplyToCopy(u)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || !d.Has(0) {
		t.Fatal("ApplyToCopy mutated the original")
	}
	if c.Len() != 2 || c.Has(0) || !c.Has(5) || !c.Has(1) {
		t.Fatalf("copy wrong: ids=%v", c.IDs())
	}
}

func TestDatabaseApplyCollision(t *testing.T) {
	d := DatabaseOf(Path(0, "C", "O"))
	if err := d.Apply(Update{Insert: []*Graph{Path(0, "X", "Y")}}); err == nil {
		t.Fatal("inserting colliding ID should fail")
	}
}

func TestDatabaseClone(t *testing.T) {
	d := DatabaseOf(Path(0, "C", "O"))
	c := d.Clone()
	c.Get(0).AddVertex("Z")
	if d.Get(0).Order() != 2 {
		t.Fatal("Clone shares graph storage")
	}
}

func TestDatabaseTotalEdges(t *testing.T) {
	d := DatabaseOf(Path(0, "C", "O", "N"), Cycle(1, "C", "C", "C"))
	if d.TotalEdges() != 5 {
		t.Fatalf("TotalEdges = %d, want 5", d.TotalEdges())
	}
}
