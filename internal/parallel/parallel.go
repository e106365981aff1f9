// Package parallel provides the deterministic fan-out primitives used
// by the maintenance and serving hot paths: a bounded worker pool whose
// results are always reduced in submission order, and a bounded
// concurrency-safe memoization cache for pairwise kernel results.
//
// The package enforces one invariant end to end: running a computation
// through Do/Map at any worker count produces exactly the results of
// the plain sequential loop. Tasks are index-addressed — each writes
// only its own slot — so the caller's reduction happens sequentially
// over slots in submission order (ordered fan-in), never in completion
// order. No map iteration, no channel arrival order, no tie-breaking by
// scheduler whim.
//
// Cancellation uses the repo-wide `func() bool` hook convention (core
// installs ctx.Err() != nil). The hook must be monotonic: once it
// reports true it must keep reporting true. Do polls it before every
// dispatch; a fired hook skips the remaining tasks, which is safe
// because every cancelled maintenance call rolls back wholesale.
//
// Do never returns before every started task has finished, even when
// cancelled or panicking — callers may mutate shared state immediately
// after it returns without racing in-flight workers (the rollback path
// of core.MaintainContext depends on this).
package parallel

import (
	"sync"
	"sync/atomic"
)

// Do runs n index-addressed tasks, run(0) .. run(n-1), over at most
// `workers` goroutines. workers <= 1 degenerates to the plain
// sequential loop on the calling goroutine (no pool, no overhead), so
// callers use one code path for both modes.
//
// Tasks must be independent and write results only to caller-owned,
// index-addressed slots. Do returns after every started task has
// finished. If tasks panic, the panic with the lowest task index is
// re-raised on the calling goroutine after the join (a deterministic
// choice), with the others discarded.
func Do(workers, n int, cancel func() bool, run func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if cancel != nil && cancel() {
				return
			}
			run(i)
		}
		return
	}

	poolStats.batches.Add(1)
	poolStats.tasks.Add(uint64(n))
	poolStats.queued.Add(int64(n))

	var (
		next  atomic.Int64 // next undispatched index
		wg    sync.WaitGroup
		panMu sync.Mutex
		pans  []taskPanic
	)
	worker := func() {
		defer wg.Done()
		poolStats.active.Add(1)
		defer poolStats.active.Add(-1)
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			poolStats.queued.Add(-1)
			if cancel != nil && cancel() {
				poolStats.skipped.Add(1)
				continue // drain remaining indices without running them
			}
			runOne(i, run, &panMu, &pans)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()

	if len(pans) > 0 {
		poolStats.panics.Add(uint64(len(pans)))
		first := pans[0]
		for _, p := range pans[1:] {
			if p.index < first.index {
				first = p
			}
		}
		panic(first.value)
	}
}

// taskPanic records a captured task panic for deterministic re-raise.
type taskPanic struct {
	index int
	value interface{}
}

// runOne executes one task, capturing a panic instead of unwinding the
// worker goroutine (which would strand the join).
func runOne(i int, run func(int), panMu *sync.Mutex, pans *[]taskPanic) {
	defer func() {
		if v := recover(); v != nil {
			panMu.Lock()
			*pans = append(*pans, taskPanic{index: i, value: v})
			panMu.Unlock()
		}
	}()
	run(i)
}

// Map computes out[i] = fn(i) for i in [0,n) over the pool and returns
// the slice in submission order. Indices skipped by a fired cancel hook
// keep their zero value; cancelled maintenance rolls back, so partial
// results never reach durable state.
func Map[T any](workers, n int, cancel func() bool, fn func(i int) T) []T {
	out := make([]T, n)
	Do(workers, n, cancel, func(i int) { out[i] = fn(i) })
	return out
}
