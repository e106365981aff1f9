package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/internal/telemetry"
	"github.com/midas-graph/midas/internal/tenant"
)

// tenantsConfig carries the multi-tenant flags into runTenants.
type tenantsConfig struct {
	dir       string
	manifest  string
	addr      string
	admin     bool
	slots     int
	slot      int
	timeout   time.Duration
	inflight  int
	queueSize int
	retries   int
	backoff   time.Duration
	watchIvl  time.Duration
	workers   int
	engine    midas.Options
	// conflicts maps single-tenant flag names to whether they were set;
	// tenant mode owns state paths itself, so any of them is a boot error.
	conflicts map[string]bool
}

// runTenants is midas-serve's multi-tenant mode: one Registry of
// shards under -tenants-dir, one Router in front of them, one shared
// maintenance-worker budget, one metrics registry with per-tenant
// labels. Tenants listed in the -tenants manifest cold-start at boot;
// with -admin, POST/DELETE /admin/tenants/{id} attach and drain them
// at runtime without disturbing the others.
func runTenants(logger *telemetry.Logger, cfg tenantsConfig) {
	var conflicting []string
	for name, set := range cfg.conflicts {
		if set {
			conflicting = append(conflicting, name)
		}
	}
	if len(conflicting) > 0 {
		sort.Strings(conflicting)
		logger.Fatalf("midas-serve: -tenants-dir is incompatible with %v (tenant state lives under <tenants-dir>/<tenant>/)", conflicting)
	}
	if cfg.slot < 0 || cfg.slot >= cfg.slots {
		logger.Fatalf("midas-serve: -slot %d out of range for -slots %d", cfg.slot, cfg.slots)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		logger.Fatalf("midas-serve: %v", err)
	}

	// One registry backs /metrics for every shard; shard families carry
	// a tenant label through the per-tenant views, and the process-wide
	// families register once, unlabelled.
	reg := newMetrics()

	registry := tenant.NewRegistry(tenant.Options{
		Root:           cfg.dir,
		Engine:         cfg.engine,
		RequestTimeout: cfg.timeout,
		MaxInflight:    cfg.inflight,
		QueueSize:      cfg.queueSize,
		Retries:        cfg.retries,
		Backoff:        cfg.backoff,
		WatchInterval:  cfg.watchIvl,
		Budget:         tenant.NewBudget(cfg.workers),
		Telemetry:      reg,
		Logger:         logger,
		Placement:      tenant.NewPlacement(cfg.slots),
		Slot:           cfg.slot,
	})

	if cfg.manifest != "" {
		f, err := os.Open(cfg.manifest)
		if err != nil {
			logger.Fatalf("midas-serve: %v", err)
		}
		entries, err := tenant.ParseManifest(f)
		f.Close()
		if err != nil {
			logger.Fatalf("midas-serve: %v", err)
		}
		for _, e := range entries {
			if _, err := registry.Add(e.ID, e.Overrides); err != nil {
				// A fleet shares one manifest; tenants placed on other
				// slots are simply not ours. Anything else is a bad boot.
				if errors.Is(err, tenant.ErrMisplaced) {
					logger.Infof("tenant %s: %v (skipped)", e.ID, err)
					continue
				}
				logger.Fatalf("midas-serve: tenant %s: %v", e.ID, err)
			}
		}
	}

	router := tenant.NewRouter(registry, reg, logger)
	if cfg.admin {
		router.EnableAdmin()
		logger.Infof("tenant admin endpoints enabled on /admin/tenants")
	}

	logger.Infof("serving %d tenant(s) on %s (slot %d/%d)", registry.Len(), cfg.addr, cfg.slot, cfg.slots)
	// Graceful shutdown drains every shard concurrently — each one
	// stops its watcher, finishes queued batches and saves its final
	// bundle.
	serve(logger, &http.Server{Addr: cfg.addr, Handler: router},
		func() { router.SetDraining(true) },
		func(ctx context.Context) error {
			if err := registry.DrainAll(ctx); err != nil {
				return fmt.Errorf("draining tenants: %w", err)
			}
			logger.Infof("bye")
			return nil
		})
}
