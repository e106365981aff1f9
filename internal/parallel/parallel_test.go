package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/midas-graph/midas/graph"
)

func TestDoRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16, 100} {
		n := 57
		counts := make([]atomic.Int32, n)
		Do(workers, n, nil, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestDoOrderedSlots(t *testing.T) {
	// The invariant callers rely on: each task writes its own slot, and
	// after Do returns the slots read exactly as the sequential loop
	// would have left them — at every worker count.
	want := make([]int, 200)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{0, 1, 2, 8} {
		got := Map(workers, len(want), nil, func(i int) int { return i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestDoZeroAndNegativeN(t *testing.T) {
	ran := false
	Do(4, 0, nil, func(int) { ran = true })
	Do(4, -3, nil, func(int) { ran = true })
	if ran {
		t.Fatal("task ran for n <= 0")
	}
}

func TestDoCancelSkipsRemaining(t *testing.T) {
	// A hook that fires after the first execution: the sequential
	// degenerate path must stop, and the pooled path must skip every
	// undispatched task while still joining all workers.
	for _, workers := range []int{1, 4} {
		var fired atomic.Bool
		var ran atomic.Int32
		cancel := func() bool { return fired.Load() }
		Do(workers, 1000, cancel, func(i int) {
			ran.Add(1)
			fired.Store(true)
		})
		if got := ran.Load(); got < 1 || got > int32(workers) {
			t.Fatalf("workers=%d: %d tasks ran; want between 1 and %d", workers, got, workers)
		}
	}
}

func TestDoCancelledBeforeStart(t *testing.T) {
	ran := false
	Do(4, 100, func() bool { return true }, func(int) { ran = true })
	if ran {
		t.Fatal("task ran under a pre-fired cancel hook")
	}
}

func TestDoPanicLowestIndexWins(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected re-raised panic")
		}
		// Every panicking task must have been captured, and the one
		// re-raised must be the lowest index — a deterministic choice.
		if v != "task-0" {
			t.Fatalf("re-raised %v, want task-0", v)
		}
	}()
	Do(4, 8, nil, func(i int) {
		if i%2 == 0 {
			panic(fmt.Sprintf("task-%d", i))
		}
	})
}

func TestCacheBasics(t *testing.T) {
	c := NewCache[int]("test", 8)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	c.Put("a", 1) // idempotent
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
}

func TestCacheBoundedByGenerationReset(t *testing.T) {
	c := NewCache[int]("test", 4)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
		if c.Len() > 4 {
			t.Fatalf("cache grew to %d entries past cap 4", c.Len())
		}
	}
	// The latest entry always survives its own Put.
	if v, ok := c.Get("k99"); !ok || v != 99 {
		t.Fatalf("latest entry lost: %d,%v", v, ok)
	}
}

func TestCacheConcurrentFill(t *testing.T) {
	c := NewCache[int]("test", 1<<10)
	Do(8, 500, nil, func(i int) {
		key := fmt.Sprintf("k%d", i%50)
		if v, ok := c.Get(key); ok && v != i%50 {
			t.Errorf("key %s held %d", key, v)
		}
		c.Put(key, i%50)
	})
	for i := 0; i < 50; i++ {
		if v, ok := c.Get(fmt.Sprintf("k%d", i)); !ok || v != i {
			t.Fatalf("k%d = %d,%v", i, v, ok)
		}
	}
}

func TestSnapshotCounters(t *testing.T) {
	before := Snapshot()
	Do(4, 32, nil, func(int) {})
	c := NewCache[int]("test", 8)
	c.Put("x", 1)
	c.Get("x")
	c.Get("y")
	after := Snapshot()
	if after.Batches <= before.Batches {
		t.Fatal("pooled batch not counted")
	}
	if after.Tasks-before.Tasks < 32 {
		t.Fatalf("tasks delta %d < 32", after.Tasks-before.Tasks)
	}
	if after.CacheHits <= before.CacheHits || after.CacheMisses <= before.CacheMisses {
		t.Fatal("cache hit/miss not counted")
	}
}

func TestSequentialPathBypassesPoolCounters(t *testing.T) {
	before := Snapshot()
	Do(1, 100, nil, func(int) {})
	Do(0, 100, nil, func(int) {})
	after := Snapshot()
	if after.Batches != before.Batches {
		t.Fatal("degenerate path must not count pooled batches")
	}
}

func line(n int, label string) *graph.Graph {
	g := graph.New(0)
	for i := 0; i < n; i++ {
		g.AddVertex(label)
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestGraphKeyInstanceExact(t *testing.T) {
	a := line(4, "C")
	b := line(4, "C")
	if GraphKey(a) != GraphKey(b) {
		t.Fatal("identical instances must share a key")
	}
	b.ID = 99
	if GraphKey(a) != GraphKey(b) {
		t.Fatal("the graph ID must not enter the key")
	}
	if GraphKey(line(4, "C")) == GraphKey(line(4, "N")) {
		t.Fatal("labels must distinguish keys")
	}
	if GraphKey(line(4, "C")) == GraphKey(line(5, "C")) {
		t.Fatal("order must distinguish keys")
	}
	// Same structure, different stored edge order: distinct instances to
	// a budget-capped kernel, so distinct keys.
	c := graph.New(0)
	for i := 0; i < 3; i++ {
		c.AddVertex("C")
	}
	c.AddEdge(1, 2)
	c.AddEdge(0, 1)
	d := graph.New(0)
	for i := 0; i < 3; i++ {
		d.AddVertex("C")
	}
	d.AddEdge(0, 1)
	d.AddEdge(1, 2)
	if GraphKey(c) == GraphKey(d) {
		t.Fatal("stored edge order must distinguish keys")
	}
	// Label content must not collide with separators.
	e := graph.New(0)
	e.AddVertex("a;1:b")
	f := graph.New(0)
	f.AddVertex("a")
	f.AddVertex("b") // distinct split of similar bytes
	if GraphKey(e) == GraphKey(f) {
		t.Fatal("length prefixes must keep labels unambiguous")
	}
}

func TestPairKeyDirectional(t *testing.T) {
	a, b := line(3, "C"), line(4, "C")
	if PairKey(a, b) == PairKey(b, a) {
		t.Fatal("pair keys must preserve direction")
	}
	if PairKey(a, b) != PairKey(a, b) {
		t.Fatal("pair keys must be stable")
	}
}
