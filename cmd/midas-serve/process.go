package main

import (
	"context"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/midas-graph/midas/internal/catapult"
	"github.com/midas-graph/midas/internal/ged"
	"github.com/midas-graph/midas/internal/iso"
	"github.com/midas-graph/midas/internal/parallel"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/telemetry"
)

// newMetrics returns the registry behind /metrics with the families
// every mode exports: the process-wide kernel and storage counters,
// and midas_serve_uptime_seconds.
func newMetrics() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	iso.RegisterMetrics(reg)
	ged.RegisterMetrics(reg)
	catapult.RegisterMetrics(reg)
	store.RegisterMetrics(reg)
	parallel.RegisterMetrics(reg)
	start := time.Now()
	reg.NewGaugeFunc("midas_serve_uptime_seconds",
		"Seconds since the serving process started.",
		func() float64 { return time.Since(start).Seconds() })
	return reg
}

// serve runs server until SIGINT or SIGTERM, then shuts down
// gracefully: drain flips readiness to draining, the listener finishes
// in-flight requests, and stop retires the serving stack (watchers,
// maintenance queues, final saves). A listener failure or a
// failed stop exits 1; a clean shutdown returns, and the process exits
// 0.
func serve(logger *telemetry.Logger, server *http.Server, drain func(), stop func(context.Context) error) {
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	select {
	case err := <-errCh:
		logger.Fatalf("midas-serve: %v", err)
	case <-ctx.Done():
	}

	logger.Infof("signal received; draining...")
	drain()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer shutCancel()
	if err := server.Shutdown(shutCtx); err != nil {
		logger.Warnf("midas-serve: shutdown: %v", err)
	}
	// Past the deadline the in-flight batch is cancelled and rolls back
	// cleanly.
	stopCtx, stopCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer stopCancel()
	if err := stop(stopCtx); err != nil {
		logger.Fatalf("midas-serve: %v", err)
	}
}
