package store

import (
	"sync/atomic"

	"github.com/midas-graph/midas/internal/telemetry"
)

// Process-wide salvage counters, following the accumulate-atomically /
// expose-via-CounterFunc idiom of internal/iso. They are bumped by
// LoadBundle and OpenRepLogFS regardless of which vfs.FS is underneath,
// so both production and the crash sweep observe them.
var salvageStats struct {
	events           atomic.Uint64
	quarantinedFiles atomic.Uint64
	rollForwards     atomic.Uint64
	rollBacks        atomic.Uint64
}

// Stats is a snapshot of the store's salvage counters.
type Stats struct {
	// SalvageEvents counts recovery actions beyond a clean load:
	// quarantines, roll-forwards, roll-backs and log tail repairs.
	SalvageEvents uint64
	// QuarantinedFiles counts files moved or written aside as *.corrupt.
	QuarantinedFiles uint64
	// RollForwards counts interrupted saves adopted from .tmp.
	RollForwards uint64
	// RollBacks counts restarts that fell back to the .prev generation.
	RollBacks uint64
}

// Snapshot returns the current counters.
func Snapshot() Stats {
	return Stats{
		SalvageEvents:    salvageStats.events.Load(),
		QuarantinedFiles: salvageStats.quarantinedFiles.Load(),
		RollForwards:     salvageStats.rollForwards.Load(),
		RollBacks:        salvageStats.rollBacks.Load(),
	}
}

// RegisterMetrics exposes the store counters on reg in Prometheus form.
// Registration is idempotent; a Nop registry is a no-op.
func RegisterMetrics(reg *telemetry.Registry) {
	reg.NewCounterFunc("store_salvage_total",
		"Salvage actions taken by bundle and replication-log recovery (quarantine, roll-forward, roll-back, torn-tail repair).",
		func() float64 { return float64(salvageStats.events.Load()) })
	reg.NewCounterFunc("store_quarantined_files_total",
		"Files moved or written aside as *.corrupt for post-mortem.",
		func() float64 { return float64(salvageStats.quarantinedFiles.Load()) })
	reg.NewCounterFunc("store_bundle_rollforward_total",
		"Interrupted bundle saves adopted from the .tmp generation.",
		func() float64 { return float64(salvageStats.rollForwards.Load()) })
	reg.NewCounterFunc("store_bundle_rollback_total",
		"Recoveries that fell back to the .prev bundle generation.",
		func() float64 { return float64(salvageStats.rollBacks.Load()) })
}
