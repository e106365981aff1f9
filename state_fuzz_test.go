package midas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/dataset"
	"github.com/midas-graph/midas/internal/store"
)

// rechecksum rewrites a bundle's header checksum to match its payload,
// so mutated payloads get past the envelope and reach the section
// decoders. Input whose header is not a JSON object is returned as is.
func rechecksum(b []byte) []byte {
	first := bytes.IndexByte(b, '\n')
	if first < 0 {
		return b
	}
	second := bytes.IndexByte(b[first+1:], '\n')
	if second < 0 {
		return b
	}
	second += first + 1
	var hdr map[string]json.RawMessage
	if json.Unmarshal(b[first+1:second], &hdr) != nil || hdr == nil {
		return b
	}
	payload := b[second+1:]
	hdr["crc32"] = json.RawMessage(fmt.Sprintf("%q", fmt.Sprintf("%08x", store.ChecksumBytes(payload))))
	enc, err := json.Marshal(hdr)
	if err != nil {
		return b
	}
	out := append(append(append([]byte(nil), b[:first+1]...), enc...), '\n')
	return append(out, payload...)
}

// FuzzLoadState feeds mutated v3 bundles, checksums repaired, to
// LoadState: it must never panic, and every rejection must be
// store.ErrCorrupt — in particular sections that contradict the
// database (an unknown member or support ID, a graph in no cluster or
// two, a summary of a cluster that does not exist). A bundle it
// accepts must save again.
func FuzzLoadState(f *testing.F) {
	opts := smallOptions()
	opts.Epsilon = 0.01
	opts.ClusterMaxSize = 5
	e := New(dataset.EMolLike().GenerateDB(12, 5), opts)
	u := graph.Update{Insert: dataset.BoronicEsters().Generate(4, 1000, 3), Delete: []int{0, 1}}
	if _, err := e.Maintain(u); err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := SaveState(&seed, e); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := LoadState(bytes.NewReader(rechecksum(b)), 0)
		if err != nil {
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("rejection is not store.ErrCorrupt: %v", err)
			}
			return
		}
		if err := SaveState(&bytes.Buffer{}, r); err != nil {
			t.Fatalf("accepted bundle does not save: %v", err)
		}
	})
}
