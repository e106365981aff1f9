package midas

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/midas-graph/midas/graph"
	"github.com/midas-graph/midas/internal/core"
	"github.com/midas-graph/midas/internal/store"
)

// State persistence: a deployed interface maintains its pattern panel
// across process restarts. SaveState writes the database, the selected
// pattern set and the options to a versioned, human-readable bundle;
// LoadState rebuilds the engine, re-deriving the maintained structures
// (FCTs, clusters, summaries, indices) but *restoring* the patterns —
// the expensive selection step is skipped.
//
// The bundle layout is line-oriented:
//
//	MIDAS-STATE v2
//	{json header: options + counts + payload crc32 + metadata}
//	== database ==
//	<graphs in the text format>
//	== patterns ==
//	<patterns in the text format>
//
// The header carries the IEEE CRC32 of everything after the header
// line; LoadState verifies it, so a truncated or bit-flipped bundle is
// rejected instead of silently booting a corrupt engine. v1 bundles
// (no checksum) are still accepted for backward compatibility.

const (
	stateMagic   = "MIDAS-STATE v2"
	stateMagicV1 = "MIDAS-STATE v1"
)

type stateHeader struct {
	Options  Options `json:"options"`
	Patterns int     `json:"patterns"`
	Graphs   int     `json:"graphs"`
	// CRC is the hex IEEE CRC32 of the payload (all bytes after the
	// header line). Absent in v1 bundles.
	CRC string `json:"crc32,omitempty"`
	// Meta carries server bookkeeping (e.g. the last applied spool
	// batch), closing the crash window between saving state and
	// journalling the batch as applied.
	Meta map[string]string `json:"meta,omitempty"`
}

// SaveState serialises the engine's database, current pattern set and
// the options it was built or restored with to w.
func SaveState(w io.Writer, e *Engine) error {
	return SaveStateMeta(w, e, nil)
}

// SaveStateMeta is SaveState with an attached metadata map, persisted
// in the bundle header and returned by LoadStateMeta.
func SaveStateMeta(w io.Writer, e *Engine, meta map[string]string) error {
	// The header records the state, not the knob that merely chooses how
	// it is computed: Workers is normalised out, so bundles — and the
	// replica fingerprints hashed from them — are byte-identical at
	// every worker count. Restorers pass their own width to LoadState.
	opts := e.opts
	opts.Workers = 0
	var payload bytes.Buffer
	if _, err := fmt.Fprintln(&payload, "== database =="); err != nil {
		return err
	}
	if err := graph.Write(&payload, e.DB().Graphs()); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(&payload, "== patterns =="); err != nil {
		return err
	}
	if err := graph.Write(&payload, e.Patterns()); err != nil {
		return err
	}

	hdr := stateHeader{
		Options:  opts,
		Patterns: len(e.Patterns()),
		Graphs:   e.DB().Len(),
		CRC:      fmt.Sprintf("%08x", store.ChecksumBytes(payload.Bytes())),
		Meta:     meta,
	}
	enc, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s\n%s\n", stateMagic, enc); err != nil {
		return err
	}
	if _, err := bw.Write(payload.Bytes()); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadState reads a bundle written by SaveState and rebuilds the
// engine: the maintained structures are re-derived from the database,
// the pattern set is restored verbatim (selection is skipped). The
// engine takes its options from the bundle header, except Workers,
// which bundles do not record: it is rebuilt and runs at the given
// width (see Options.Workers).
func LoadState(r io.Reader, workers int) (*Engine, error) {
	e, _, err := LoadStateMeta(r, workers)
	return e, err
}

// parseStateEnvelope checks the bundle envelope — magic line, JSON
// header, payload checksum for v2, section markers — and returns the
// header plus the database and pattern sections. Corruption errors wrap
// store.ErrCorrupt so recovery (store.LoadBundle / store.Recover) can
// distinguish damaged bytes from I/O failures.
func parseStateEnvelope(r io.Reader) (hdr stateHeader, dbText, patText string, err error) {
	br := bufio.NewReader(r)
	magic, err := br.ReadString('\n')
	if err != nil {
		return hdr, "", "", fmt.Errorf("midas: reading state magic: %w", errors.Join(err, store.ErrCorrupt))
	}
	version := 0
	switch strings.TrimSpace(magic) {
	case stateMagic:
		version = 2
	case stateMagicV1:
		version = 1
	default:
		return hdr, "", "", fmt.Errorf("midas: not a MIDAS state bundle (got %q): %w",
			strings.TrimSpace(magic), store.ErrCorrupt)
	}
	hdrLine, err := br.ReadString('\n')
	if err != nil {
		return hdr, "", "", fmt.Errorf("midas: reading state header: %w", errors.Join(err, store.ErrCorrupt))
	}
	if err := json.Unmarshal([]byte(hdrLine), &hdr); err != nil {
		return hdr, "", "", fmt.Errorf("midas: decoding state header: %w", errors.Join(err, store.ErrCorrupt))
	}

	rest, err := io.ReadAll(br)
	if err != nil {
		return hdr, "", "", err
	}
	if version >= 2 {
		if hdr.CRC == "" {
			return hdr, "", "", fmt.Errorf("midas: state bundle corrupt: v2 header missing checksum: %w",
				store.ErrCorrupt)
		}
		want, err := strconv.ParseUint(hdr.CRC, 16, 32)
		if err != nil {
			return hdr, "", "", fmt.Errorf("midas: state bundle corrupt: bad checksum %q: %w",
				hdr.CRC, store.ErrCorrupt)
		}
		if got := store.ChecksumBytes(rest); got != uint32(want) {
			return hdr, "", "", fmt.Errorf("midas: state bundle corrupt: checksum %08x, header says %08x: %w",
				got, uint32(want), store.ErrCorrupt)
		}
	}
	text := string(rest)
	dbMark := "== database ==\n"
	patMark := "== patterns ==\n"
	di := strings.Index(text, dbMark)
	pi := strings.Index(text, patMark)
	if di < 0 || pi < 0 || pi < di {
		return hdr, "", "", fmt.Errorf("midas: malformed state bundle: missing section markers: %w",
			store.ErrCorrupt)
	}
	return hdr, text[di+len(dbMark) : pi], text[pi+len(patMark):], nil
}

// VerifyState is the cheap validity check used as the store.LoadBundle
// validator: it verifies the envelope (magic, header, payload CRC,
// section markers) without rebuilding an engine, so recovery can rank
// bundle generations quickly. A nil return means LoadStateMeta will not
// fail on crash damage (a valid CRC rules out truncation and bit rot).
func VerifyState(b []byte) error {
	_, _, _, err := parseStateEnvelope(bytes.NewReader(b))
	return err
}

// LoadStateMeta is LoadState returning the metadata map stored in the
// bundle header (nil for v1 bundles or when none was saved). The
// payload checksum is verified for v2 bundles before anything is
// decoded; corruption errors wrap store.ErrCorrupt.
func LoadStateMeta(r io.Reader, workers int) (*Engine, map[string]string, error) {
	hdr, dbText, patText, err := parseStateEnvelope(r)
	if err != nil {
		return nil, nil, err
	}

	graphs, err := graph.Unmarshal(dbText)
	if err != nil {
		return nil, nil, fmt.Errorf("midas: decoding database section: %w", errors.Join(err, store.ErrCorrupt))
	}
	if len(graphs) != hdr.Graphs {
		return nil, nil, fmt.Errorf("midas: state bundle corrupt: %d graphs, header says %d: %w",
			len(graphs), hdr.Graphs, store.ErrCorrupt)
	}
	db := graph.NewDatabase()
	for _, g := range graphs {
		if err := db.Add(g); err != nil {
			return nil, nil, fmt.Errorf("midas: state database: %w", err)
		}
	}
	patterns, err := graph.Unmarshal(patText)
	if err != nil {
		return nil, nil, fmt.Errorf("midas: decoding patterns section: %w", errors.Join(err, store.ErrCorrupt))
	}
	if len(patterns) != hdr.Patterns {
		return nil, nil, fmt.Errorf("midas: state bundle corrupt: %d patterns, header says %d: %w",
			len(patterns), hdr.Patterns, store.ErrCorrupt)
	}
	opts := hdr.Options
	opts.Workers = workers
	inner := core.NewEngineWithPatterns(db, opts.toCore(), patterns)
	return &Engine{inner: inner, opts: opts}, hdr.Meta, nil
}
