package parallel

import (
	"sync/atomic"

	"github.com/midas-graph/midas/internal/telemetry"
)

// Process-wide pool and cache counters, following the iso/ged kernel
// convention: accumulate with atomics, expose snapshots for per-batch
// diffing, and register lazily on whatever registry the binary uses.
// The speedup-relevant signals are tasks vs batches (fan-out width),
// active/queued gauges (pool saturation) and cache hits vs misses
// (memoised kernel work avoided).
var poolStats struct {
	batches atomic.Uint64 // Do invocations that actually pooled (workers > 1)
	tasks   atomic.Uint64 // tasks submitted to pooled batches
	skipped atomic.Uint64 // tasks skipped by a fired cancel hook
	panics  atomic.Uint64 // task panics captured and re-raised
	active  atomic.Int64  // workers currently running (gauge)
	queued  atomic.Int64  // submitted tasks not yet dispatched (gauge)
}

var cacheStats struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64 // entries dropped by generation resets
	entries   atomic.Int64  // live entries across all caches (gauge)
}

// Stats is a snapshot of the package counters.
type Stats struct {
	// Batches counts pooled Do invocations; Tasks the tasks they ran;
	// Skipped the tasks a fired cancel hook suppressed; Panics the task
	// panics captured.
	Batches, Tasks, Skipped, Panics uint64
	// CacheHits/CacheMisses/CacheEvictions aggregate over every Cache.
	CacheHits, CacheMisses, CacheEvictions uint64
	// CacheEntries is the current live entry count across caches.
	CacheEntries int64
}

// Snapshot returns the current counters.
func Snapshot() Stats {
	return Stats{
		Batches:        poolStats.batches.Load(),
		Tasks:          poolStats.tasks.Load(),
		Skipped:        poolStats.skipped.Load(),
		Panics:         poolStats.panics.Load(),
		CacheHits:      cacheStats.hits.Load(),
		CacheMisses:    cacheStats.misses.Load(),
		CacheEvictions: cacheStats.evictions.Load(),
		CacheEntries:   cacheStats.entries.Load(),
	}
}

// RegisterMetrics exposes the pool and cache counters on reg in
// Prometheus form. Registration is idempotent; a Nop registry is a
// no-op.
func RegisterMetrics(reg *telemetry.Registry) {
	reg.NewCounterFunc("midas_parallel_batches_total",
		"Pooled fan-out batches executed (Do with workers > 1).",
		func() float64 { return float64(poolStats.batches.Load()) })
	reg.NewCounterFunc("midas_parallel_tasks_total",
		"Tasks submitted to pooled fan-out batches.",
		func() float64 { return float64(poolStats.tasks.Load()) })
	reg.NewCounterFunc("midas_parallel_tasks_skipped_total",
		"Fan-out tasks skipped because the cancellation hook fired.",
		func() float64 { return float64(poolStats.skipped.Load()) })
	reg.NewCounterFunc("midas_parallel_task_panics_total",
		"Task panics captured by the pool and re-raised after the join.",
		func() float64 { return float64(poolStats.panics.Load()) })
	reg.NewGaugeFunc("midas_parallel_workers_active",
		"Pool workers currently executing tasks.",
		func() float64 { return float64(poolStats.active.Load()) })
	reg.NewGaugeFunc("midas_parallel_queue_depth",
		"Submitted fan-out tasks not yet dispatched to a worker.",
		func() float64 { return float64(poolStats.queued.Load()) })
	reg.NewCounterFunc("midas_parallel_cache_hits_total",
		"Kernel memo-cache hits (pairwise MCCS and VF2 embedding results reused).",
		func() float64 { return float64(cacheStats.hits.Load()) })
	reg.NewCounterFunc("midas_parallel_cache_misses_total",
		"Kernel memo-cache misses.",
		func() float64 { return float64(cacheStats.misses.Load()) })
	reg.NewCounterFunc("midas_parallel_cache_evictions_total",
		"Memo-cache entries dropped by capacity generation resets.",
		func() float64 { return float64(cacheStats.evictions.Load()) })
	reg.NewGaugeFunc("midas_parallel_cache_entries",
		"Live memo-cache entries across all kernel caches.",
		func() float64 { return float64(cacheStats.entries.Load()) })
}
