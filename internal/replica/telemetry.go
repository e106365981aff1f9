package replica

import "github.com/midas-graph/midas/internal/telemetry"

// nodeTelemetry holds the replication metric families. nil until
// telemetry is installed; every record site nil-checks.
type nodeTelemetry struct {
	committed    *telemetry.Counter // midas_replica_commits_total
	shipped      *telemetry.Counter // midas_replica_records_shipped_total
	installed    *telemetry.Counter // midas_replica_records_installed_total
	shipErrors   *telemetry.Counter // midas_replica_ship_errors_total
	pullErrors   *telemetry.Counter // midas_replica_pull_errors_total
	fenced       *telemetry.Counter // midas_replica_fenced_pushes_total
	divergences  *telemetry.Counter // midas_replica_divergences_total
	rebootstraps *telemetry.Counter // midas_replica_rebootstraps_total
	promotions   *telemetry.Counter // midas_replica_promotions_total
	demotions    *telemetry.Counter // midas_replica_demotions_total
}

// setTelemetry registers the replication families on reg: role, epoch
// and position gauges (lock-free atomic reads), plus the event
// counters.
func (n *Node) setTelemetry(reg *telemetry.Registry) {
	if reg == nil || reg == telemetry.Nop {
		return
	}
	reg.NewGaugeFunc("midas_replica_role",
		"Replication role of this node (0 = primary, 1 = follower).",
		func() float64 { return float64(n.role.Load()) })
	reg.NewGaugeFunc("midas_replica_epoch",
		"Current primacy epoch.",
		func() float64 { return float64(n.Epoch()) })
	reg.NewGaugeFunc("midas_replica_lsn",
		"Applied replication log position.",
		func() float64 { return float64(n.LastLSN()) })
	reg.NewGaugeFunc("midas_replica_lag_seconds",
		"Follower replication lag: seconds since last confirmed sync with the upstream (0 on a primary).",
		func() float64 { return n.Lag().Seconds() })
	reg.NewGaugeFunc("midas_replica_parked",
		"Committed-but-unshipped records parked by demotions.",
		func() float64 { return float64(len(n.Parked())) })
	n.tel = &nodeTelemetry{
		committed: reg.NewCounter("midas_replica_commits_total",
			"Client batches committed to the replication log by this primary."),
		shipped: reg.NewCounter("midas_replica_records_shipped_total",
			"Records pushed to followers and acknowledged."),
		installed: reg.NewCounter("midas_replica_records_installed_total",
			"Replicated records durably installed and applied on this follower."),
		shipErrors: reg.NewCounter("midas_replica_ship_errors_total",
			"Push attempts that failed in transport."),
		pullErrors: reg.NewCounter("midas_replica_pull_errors_total",
			"Pull attempts that failed in transport."),
		fenced: reg.NewCounter("midas_replica_fenced_pushes_total",
			"Pushes rejected by epoch fencing."),
		divergences: reg.NewCounter("midas_replica_divergences_total",
			"Per-LSN fingerprint mismatches detected against the primary."),
		rebootstraps: reg.NewCounter("midas_replica_rebootstraps_total",
			"Follower state re-installs from the upstream bundle."),
		promotions: reg.NewCounter("midas_replica_promotions_total",
			"Follower-to-primary promotions (epoch bumps)."),
		demotions: reg.NewCounter("midas_replica_demotions_total",
			"Primary demotions after observing a higher epoch."),
	}
}
