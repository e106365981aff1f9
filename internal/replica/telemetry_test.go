package replica

import (
	"strings"
	"testing"
	"time"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/telemetry"
	"github.com/midas-graph/midas/internal/vfs"
)

// TestNodeExportsMaintenanceTelemetry is the regression test for
// replicated nodes that exported only their replication families: the
// node's pipeline never wired the engine's maintenance families or its
// own snapshot families. After one committed batch, a primary and a
// follower must each expose them, plus their bundle-save timings.
func TestNodeExportsMaintenanceTelemetry(t *testing.T) {
	preg, freg := telemetry.NewRegistry(), telemetry.NewRegistry()
	p := startNode(t, Config{FS: vfs.NewSim(), Dir: "p", Options: testOptions(),
		Bootstrap: testBootstrap, Telemetry: preg})
	f := startNode(t, Config{FS: vfs.NewSim(), Dir: "f", Options: testOptions(),
		Upstream: nodeTransport{peer: p}, PollInterval: 5 * time.Millisecond, Telemetry: freg})

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
