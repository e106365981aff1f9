package replica

import (
	"github.com/midas-graph/midas/internal/panel"
)

// Panel wires a panel.Server over the node the way midas-serve mounts
// it. The server owns none of the serving plumbing: reads load the
// node's snapshot handle lock-free, /maintain submits through the
// node's *current* pipeline — resolved per request, because a
// divergence re-bootstrap swaps the pipeline underneath a long-lived
// server — and the node's admission hook fences writes while the node
// is a follower or demoted (503 + Retry-After + X-Midas-Primary).
// Every snapshot-served response carries X-Midas-Replica and
// X-Midas-Replication-Lag, and /readyz details the journal LSN,
// last-publish generation, role and lag.
func (n *Node) Panel() *panel.Server {
	srv := panel.New(n.Handle(), n.Pipeline)
	srv.SetReplicaInfo(&panel.ReplicaInfo{
		Role:    func() string { return n.Role().String() },
		LSN:     n.LastLSN,
		Lag:     n.Lag,
		Primary: n.PrimaryURL,
	})
	return srv
}
