// Package tenant is the golden-test stand-in for the real
// internal/tenant package: lockscope treats its exported entry points
// (shard cold starts, drains) as unbounded work — a drain finishes
// queued batches and saves a bundle, which must never run under a mutex.
package tenant

import "example.com/lintdata/snapshot"

// Drain retires a shard: unbounded work (queued batches, bundle
// save, pipeline drain).
func Drain(id string) error { return nil }

// Add cold-starts a shard: unbounded work (bundle load, bootstrap).
func Add(id string) error { return nil }

// internal helpers may call exported siblings under their own locks;
// the same-package exemption keeps registry-internal bookkeeping
// clean. (Exercised from the real package; here Status just reads.)
func Status(s *snapshot.Snapshot) uint64 {
	// Reading a published snapshot is the tenant package's bread and
	// butter and must not trip snapshotimmutability.
	total := s.Generation
	for _, p := range s.Patterns {
		total += uint64(p)
	}
	return total
}
