// Package replica implements log-shipping replication for MIDAS
// serving shards: a primary appends every committed maintenance batch
// to a durable replication log (store.RepLog) and streams it to warm
// followers, which re-apply the batches through their own snapshot
// pipeline and serve reads from atomically-swapped snapshots. Failover
// is epoch-fenced: promoting a follower bumps the epoch with a control
// record in the same log, and a deposed primary's stream is rejected
// and demotes itself.
//
// Replication ships results, not computations. Each shipped record
// carries the post-remap update AND the primary's post-apply pattern
// state: the pattern set, σ and the pattern-ID allocator. A follower
// applies the database delta and the structural upkeep (deterministic)
// and installs the shipped pattern state verbatim
// (Engine.ApplyReplicated), which costs it far less than re-running the
// swap stage. The follower's whole state — the v3 bundle SaveState
// writes — is then a deterministic function of the record stream,
// verified continuously by per-LSN fingerprints, and a promoted
// follower maintains exactly as the primary would have.
package replica

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"github.com/midas-graph/midas"
	"github.com/midas-graph/midas/graph"
)

// updatePayload is the wire form of one committed batch: the Δ- IDs,
// the Δ+ graphs in the text format (which carries each graph's ID, so
// the primary's post-remap IDs arrive verbatim), and the primary's
// post-apply pattern state, shipped as a result for verbatim install.
// Sigma and NextPatternID are pointers so that a payload without them
// — written by a binary that predates them — is told apart from one
// carrying zeros.
type updatePayload struct {
	Delete        []int    `json:"delete,omitempty"`
	Insert        string   `json:"insert,omitempty"`
	Patterns      string   `json:"patterns"`
	Sigma         *float64 `json:"sigma"`
	NextPatternID *int     `json:"nextPatternID"`
}

// EncodeUpdate serialises one committed batch: the update exactly as
// applied plus the pattern state the primary's maintenance decided. It
// must be called after the batch applied (the pipeline's OnApplied
// hook observes the post-remap update and the post-apply engine), so a
// follower installs the same IDs and the same pattern state.
func EncodeUpdate(u graph.Update, ps midas.PatternState) ([]byte, error) {
	p := updatePayload{Delete: u.Delete, Patterns: graph.Marshal(ps.Patterns),
		Sigma: &ps.Sigma, NextPatternID: &ps.NextPatternID}
	if len(u.Insert) > 0 {
		p.Insert = graph.Marshal(u.Insert)
	}
	return json.Marshal(p)
}

// DecodeUpdate parses a payload encoded by EncodeUpdate. A payload
// without σ or the pattern-ID allocator was written by an older binary,
// whose fingerprints hashed a smaller form of the state: no install of
// it can verify, so it is rejected as ErrDiverged before anything is
// applied.
func DecodeUpdate(b []byte) (graph.Update, midas.PatternState, error) {
	var p updatePayload
	if err := json.Unmarshal(b, &p); err != nil {
		return graph.Update{}, midas.PatternState{}, fmt.Errorf("replica: decoding update payload: %w", err)
	}
	if p.Sigma == nil || p.NextPatternID == nil {
		return graph.Update{}, midas.PatternState{}, fmt.Errorf(
			"replica: update payload carries no σ or pattern-ID allocator (written by an older binary): %w", ErrDiverged)
	}
	u := graph.Update{Delete: p.Delete}
	if p.Insert != "" {
		ins, err := graph.Unmarshal(p.Insert)
		if err != nil {
			return graph.Update{}, midas.PatternState{}, fmt.Errorf("replica: decoding insert graphs: %w", err)
		}
		u.Insert = ins
	}
	patterns, err := graph.Unmarshal(p.Patterns)
	if err != nil {
		return graph.Update{}, midas.PatternState{}, fmt.Errorf("replica: decoding pattern set: %w", err)
	}
	return u, midas.PatternState{Patterns: patterns, Sigma: *p.Sigma, NextPatternID: *p.NextPatternID}, nil
}

// Fingerprint is the canonical state fingerprint: FNV-64a over the
// engine's v3 state bundle (SaveState: options with Workers recorded as
// 0, database, pattern state and maintained structures, no metadata).
// The primary stamps it on every shipped record after applying the
// batch; the follower recomputes it after re-applying and any mismatch
// is divergence — the replica quarantines its state and re-bootstraps
// from the primary's bundle. SaveState is deterministic (ordered
// sections, canonical JSON header), so equal engine state means equal
// fingerprint on both sides, whatever worker count each runs.
func Fingerprint(eng *midas.Engine) (uint64, error) {
	h := fnv.New64a()
	if err := midas.SaveState(h, eng); err != nil {
		return 0, fmt.Errorf("replica: fingerprinting state: %w", err)
	}
	return h.Sum64(), nil
}

// Bundle metadata keys: the replication position a saved bundle
// reflects. A restart — primary or follower alike — loads the bundle
// and replays its replication log's suffix past this LSN.
const (
	metaLSN   = "replicaLSN"
	metaEpoch = "replicaEpoch"
)

func positionMeta(lsn, epoch uint64) map[string]string {
	return map[string]string{
		metaLSN:   strconv.FormatUint(lsn, 10),
		metaEpoch: strconv.FormatUint(epoch, 10),
	}
}

func positionFromMeta(meta map[string]string) (lsn, epoch uint64) {
	lsn, _ = strconv.ParseUint(meta[metaLSN], 10, 64)
	epoch, _ = strconv.ParseUint(meta[metaEpoch], 10, 64)
	return lsn, epoch
}

// bundlePosition extracts the replication position from raw bundle
// bytes without rebuilding an engine: the bundle's second line is its
// JSON header, whose meta map carries the position. Bytes that are not
// a bundle (or carry no position) report position zero.
func bundlePosition(b []byte) (lsn, epoch uint64) {
	s := string(b)
	nl := strings.IndexByte(s, '\n')
	if nl < 0 {
		return 0, 0
	}
	rest := s[nl+1:]
	nl2 := strings.IndexByte(rest, '\n')
	if nl2 < 0 {
		return 0, 0
	}
	var hdr struct {
		Meta map[string]string `json:"meta"`
	}
	if err := json.Unmarshal([]byte(rest[:nl2]), &hdr); err != nil {
		return 0, 0
	}
	return positionFromMeta(hdr.Meta)
}
