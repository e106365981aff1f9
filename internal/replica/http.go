package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/midas-graph/midas/internal/store"
)

// Handler serves the replication protocol and its admin verbs:
//
//	POST /replica/push     — receive a primary's record stream
//	GET  /replica/bundle   — serve the current bundle (follower bootstrap)
//	GET  /replica/records  — serve log records after ?after= (pull repair)
//	GET  /replica/status   — role, epoch, LSN, lag, parked records
//	POST /replica/promote  — promote this node to primary (epoch bump)
//	POST /replica/demote   — demote this node (operator fencing)
//
// Mount it beside the panel handler (midas-serve nests it under the
// same listener, or a dedicated -replica-listen).
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/replica/push", n.handlePush)
	mux.HandleFunc("/replica/bundle", n.handleBundle)
	mux.HandleFunc("/replica/records", n.handleRecords)
	mux.HandleFunc("/replica/status", n.handleStatus)
	mux.HandleFunc("/replica/promote", n.handlePromote)
	mux.HandleFunc("/replica/demote", n.handleDemote)
	return mux
}

func (n *Node) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	recs, err := store.DecodeRecords(body)
	if err != nil {
		// A torn or corrupted frame batch is rejected whole; the sender
		// retries intact.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	epoch, err := strconv.ParseUint(r.Header.Get(headerEpoch), 10, 64)
	if err != nil {
		http.Error(w, "bad or missing "+headerEpoch+" header", http.StatusBadRequest)
		return
	}
	resp := n.ReceivePush(PushRequest{Epoch: epoch, Records: recs})
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (n *Node) handleBundle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	data, lsn, epoch, err := n.BundleBytes()
	if err != nil {
		http.Error(w, fmt.Sprintf("no bundle available: %v", err), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerLSN, strconv.FormatUint(lsn, 10))
	w.Header().Set(headerEpoch, strconv.FormatUint(epoch, 10))
	w.Write(data)
}

func (n *Node) handleRecords(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil {
		http.Error(w, "bad after parameter", http.StatusBadRequest)
		return
	}
	max := 0
	if m := r.URL.Query().Get("max"); m != "" {
		if max, err = strconv.Atoi(m); err != nil {
			http.Error(w, "bad max parameter", http.StatusBadRequest)
			return
		}
	}
	recs, err := n.ReadRecords(after, max)
	if err != nil {
		if errors.Is(err, store.ErrCompacted) {
			// 410: the suffix the peer wants is gone; it must take the
			// bundle instead.
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(store.EncodeRecords(recs))
}

// StatusJSON is the /replica/status document.
type StatusJSON struct {
	Role       string  `json:"role"`
	Epoch      uint64  `json:"epoch"`
	LSN        uint64  `json:"lsn"`
	Generation uint64  `json:"generation"`
	LagSeconds float64 `json:"lagSeconds"`
	Parked     int     `json:"parked"`
	Primary    string  `json:"primary,omitempty"`
}

// Status summarises the node for probes and the admin API.
func (n *Node) Status() StatusJSON {
	return StatusJSON{
		Role:       n.Role().String(),
		Epoch:      n.Epoch(),
		LSN:        n.LastLSN(),
		Generation: n.Handle().Generation(),
		LagSeconds: n.Lag().Seconds(),
		Parked:     len(n.Parked()),
		Primary:    n.cfg.PrimaryURL,
	}
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(n.Status())
}

func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := n.Promote(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(n.Status())
}

func (n *Node) handleDemote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	n.Demote(n.Epoch())
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(n.Status())
}
