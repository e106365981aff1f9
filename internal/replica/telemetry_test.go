package replica

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/store"
	"github.com/midas-graph/midas/internal/telemetry"
	"github.com/midas-graph/midas/internal/tenant"
	"github.com/midas-graph/midas/internal/vfs"
)

// TestNodeExportsMaintenanceTelemetry is the regression test for
// replicated nodes that exported only their replication families: the
// node's pipeline never wired the engine's maintenance families or its
// own snapshot families. After one committed batch, a primary and a
// follower must each expose them, plus their bundle-save timings.
func TestNodeExportsMaintenanceTelemetry(t *testing.T) {
	preg, freg := telemetry.NewRegistry(), telemetry.NewRegistry()
	p := startNode(t, Config{FS: vfs.NewSim(), Dir: "p", Shard: tenant.Options{Engine: testOptions(), Telemetry: preg},
		Bootstrap: testBootstrap})
	f := startNode(t, Config{FS: vfs.NewSim(), Dir: "f", Shard: tenant.Options{Engine: testOptions(), Telemetry: freg},
		Upstream: nodeTransport{peer: p}, PollInterval: 5 * time.Millisecond})

	res := submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})
	if res.Err != nil {
		t.Fatalf("write: %v", res.Err)
	}
	waitConverged(t, f, 1)

	for role, reg := range map[string]*telemetry.Registry{"primary": preg, "follower": freg} {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		doc := b.String()
		for _, want := range []string{
			"midas_maintain_seconds_count 1",
			"midas_snapshot_generation 2",
			"midas_db_graphs 22",
			"midas_maintain_queue_depth 0",
			"# TYPE midas_state_save_seconds histogram",
		} {
			if !strings.Contains(doc, want) {
				t.Errorf("%s /metrics missing %q", role, want)
			}
		}
		if strings.Contains(doc, "midas_state_save_seconds_count 0") {
			t.Errorf("%s saved bundles without timing them", role)
		}
	}
}

// gaugeValue reads an unlabelled gauge from reg's Prometheus rendering.
func gaugeValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

// TestPipelineGaugesAfterRebootstrap is the regression test for a
// re-bootstrap that replaced the follower's pipeline under a
// long-lived registry: the pipeline gauges kept reading the discarded
// pipeline. They must read the one the node runs.
func TestPipelineGaugesAfterRebootstrap(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := startNode(t, Config{FS: vfs.NewSim(), Dir: "p", Shard: testShard(), Bootstrap: testBootstrap})
	f := startNode(t, Config{FS: vfs.NewSim(), Dir: "f", Shard: tenant.Options{Engine: testOptions(), Telemetry: reg},
		Upstream: nodeTransport{peer: p}, PollInterval: time.Hour})

	submitWrite(t, p, "w1", graph.Update{Insert: dataset.BoronicEsters().Generate(2, 0, 5)})
	submitWrite(t, p, "w2", graph.Update{Insert: dataset.BoronicEsters().Generate(1, 400, 4)})
	recs, err := p.ReadRecords(0, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("primary log: %d records, %v", len(recs), err)
	}
	if _, err := f.applyRecords(recs[:1]); err != nil {
		t.Fatal(err)
	}
	if f.Pipeline().BatchEWMA() <= 0 {
		t.Fatal("follower pipeline has no batch EWMA after an install")
	}
	bad := recs[1]
	bad.Fingerprint ^= 0xdeadbeef
	if _, err := f.applyRecords([]store.RepRecord{bad}); !errors.Is(err, ErrDiverged) {
		t.Fatalf("apply of mismatched fingerprint err = %v, want ErrDiverged", err)
	}
	if err := f.rebootstrap(); err != nil {
		t.Fatalf("rebootstrap: %v", err)
	}

	pipe := f.Pipeline()
	for name, want := range map[string]float64{
		"midas_maintain_batch_ewma_seconds": pipe.BatchEWMA().Seconds(),
		"midas_maintain_queue_depth":        float64(pipe.Depth()),
		"midas_maintain_poisoned":           float64(len(pipe.Poisoned())),
	} {
		if got := gaugeValue(t, reg, name); got != want {
			t.Errorf("%s = %v, the live pipeline reads %v", name, got, want)
		}
	}
}
