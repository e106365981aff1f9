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
// across process restarts. SaveState writes the options, the database,
// the selected pattern set and the maintained structures — the FCT
// set, the clustering and the cluster summaries, with σ and the
// pattern- and graph-ID allocators — to a versioned, human-readable
// bundle.
// LoadState decodes all of it and rebuilds only what is a function of
// that state (the indices, the graphlet counter and the metrics
// evaluator), so a restored engine maintains exactly as the engine that
// saved the bundle would have.
//
// The bundle layout (v3) is line-oriented:
//
//	MIDAS-STATE v3
//	{json header: options + counts + σ + next pattern and graph IDs + payload crc32 + metadata}
//	== database ==
//	<graphs in the text format>
//	== patterns ==
//	<patterns in the text format>
//	== trees ==
//	<the maintained tree set and postings (tree.Set.Encode)>
//	== clusters ==
//	<cluster membership and feature vectors (cluster.Clustering.Encode)>
//	== summaries ==
//	<cluster summaries with per-edge support (csg.Manager.Encode)>
//
// The header carries the IEEE CRC32 of everything after the header
// line; LoadState verifies it, so a truncated or bit-flipped bundle is
// rejected instead of silently booting a corrupt engine. v2 bundles
// (database and patterns only) and v1 bundles (v2 without the
// checksum) still load: they re-derive the maintained structures from
// the database, as a bootstrap does without selection, and start σ
// afresh; their first save writes v3. A binary that predates v3
// rejects a v3 bundle as "not a MIDAS state bundle".

const (
	stateMagic   = "MIDAS-STATE v3"
	stateMagicV2 = "MIDAS-STATE v2"
	stateMagicV1 = "MIDAS-STATE v1"
)

// sectionNames lists the payload sections in layout order; v1 and v2
// bundles carry the first two.
var sectionNames = []string{"database", "patterns", "trees", "clusters", "summaries"}

type stateHeader struct {
	Options  Options `json:"options"`
	Patterns int     `json:"patterns"`
	Graphs   int     `json:"graphs"`
	// Sigma and NextPatternID carry the engine's σ (Lemma 6.3) and its
	// pattern-ID allocator. v3 only: absent from v1 and v2 bundles.
	Sigma         *float64 `json:"sigma,omitempty"`
	NextPatternID *int     `json:"nextPatternID,omitempty"`
	// NextGraphID carries the database's graph-ID allocator, which
	// stays above the IDs of deleted graphs. v3 only; a v3 bundle
	// without it restores the allocator as the highest live ID + 1.
	NextGraphID *int `json:"nextGraphID,omitempty"`
	// CRC is the hex IEEE CRC32 of the payload (all bytes after the
	// header line). Absent in v1 bundles.
	CRC string `json:"crc32,omitempty"`
	// Meta carries server bookkeeping: the last applied spool batch
	// and its checksum, which settles a spool file after a crash
	// between saving state and renaming the file, and a replicated
	// node's log position.
	Meta map[string]string `json:"meta,omitempty"`
}

// SaveState serialises the engine's database, current pattern set,
// maintained structures and the options it was built or restored with
// to w.
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
	ps := e.inner.PatternState()
	var payload bytes.Buffer
	section := func(name string) { payload.WriteString("== " + name + " ==\n") }
	section("database")
	if err := graph.Write(&payload, e.DB().Graphs()); err != nil {
		return err
	}
	section("patterns")
	if err := graph.Write(&payload, ps.Patterns); err != nil {
		return err
	}
	section("trees")
	if err := e.inner.TreeSet().Encode(&payload); err != nil {
		return err
	}
	section("clusters")
	if err := e.inner.Clustering().Encode(&payload); err != nil {
		return err
	}
	section("summaries")
	if err := e.inner.CSGs().Encode(&payload); err != nil {
		return err
	}
	nextGraph := e.DB().NextID()
	hdr := stateHeader{
		Options:       opts,
		Patterns:      len(ps.Patterns),
		Graphs:        e.DB().Len(),
		Sigma:         &ps.Sigma,
		NextPatternID: &ps.NextPatternID,
		NextGraphID:   &nextGraph,
		Meta:          meta,
	}
	hdr.CRC = fmt.Sprintf("%08x", store.ChecksumBytes(payload.Bytes()))
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

// LoadState reads a bundle written by SaveState and restores the
// engine: the pattern set is restored verbatim (selection is skipped),
// and the maintained structures are decoded (v3) or re-derived from the
// database (v1, v2). The engine takes its options from the bundle
// header, except Workers, which bundles do not record: it is restored
// and runs at the given width (see Options.Workers).
func LoadState(r io.Reader, workers int) (*Engine, error) {
	e, _, err := LoadStateMeta(r, workers)
	return e, err
}

// stateBundle is a parsed bundle envelope.
type stateBundle struct {
	hdr     stateHeader
	version int
	// sections are the payload sections in sectionNames order: two for
	// v1 and v2, five for v3.
	sections []string
}

// parseStateEnvelope checks the bundle envelope — magic line, JSON
// header, payload checksum for v2 and v3, section markers — and returns
// the header plus the payload sections. Corruption errors wrap
// store.ErrCorrupt so recovery (store.LoadBundle) can distinguish
// damaged bytes from I/O failures.
func parseStateEnvelope(r io.Reader) (b stateBundle, err error) {
	br := bufio.NewReader(r)
	magic, err := br.ReadString('\n')
	if err != nil {
		return b, fmt.Errorf("midas: reading state magic: %w", errors.Join(err, store.ErrCorrupt))
	}
	switch strings.TrimSpace(magic) {
	case stateMagic:
		b.version = 3
	case stateMagicV2:
		b.version = 2
	case stateMagicV1:
		b.version = 1
	default:
		return b, fmt.Errorf("midas: not a MIDAS state bundle (got %q): %w",
			strings.TrimSpace(magic), store.ErrCorrupt)
	}
	hdrLine, err := br.ReadString('\n')
	if err != nil {
		return b, fmt.Errorf("midas: reading state header: %w", errors.Join(err, store.ErrCorrupt))
	}
	if err := json.Unmarshal([]byte(hdrLine), &b.hdr); err != nil {
		return b, fmt.Errorf("midas: decoding state header: %w", errors.Join(err, store.ErrCorrupt))
	}

	rest, err := io.ReadAll(br)
	if err != nil {
		return b, err
	}
	if b.version >= 2 {
		if b.hdr.CRC == "" {
			return b, fmt.Errorf("midas: state bundle corrupt: v%d header missing checksum: %w",
				b.version, store.ErrCorrupt)
		}
		want, err := strconv.ParseUint(b.hdr.CRC, 16, 32)
		if err != nil {
			return b, fmt.Errorf("midas: state bundle corrupt: bad checksum %q: %w",
				b.hdr.CRC, store.ErrCorrupt)
		}
		if got := store.ChecksumBytes(rest); got != uint32(want) {
			return b, fmt.Errorf("midas: state bundle corrupt: checksum %08x, header says %08x: %w",
				got, uint32(want), store.ErrCorrupt)
		}
	}
	names := sectionNames[:2]
	if b.version == 3 {
		names = sectionNames
	}
	if b.sections = cutSections(string(rest), names); b.sections == nil {
		return b, fmt.Errorf("midas: malformed state bundle: missing section markers: %w",
			store.ErrCorrupt)
	}
	return b, nil
}

// cutSections splits a payload into the bodies of the named sections,
// which must appear in this order, each after its "== name ==" line. It
// returns nil when a marker is missing.
func cutSections(text string, names []string) []string {
	bodies := make([]string, len(names))
	start := 0
	for i, name := range names {
		mark := "== " + name + " ==\n"
		at := strings.Index(text[start:], mark)
		if at < 0 {
			return nil
		}
		if i > 0 {
			bodies[i-1] = text[start : start+at]
		}
		start += at + len(mark)
	}
	bodies[len(names)-1] = text[start:]
	return bodies
}

// VerifyState is the cheap validity check used as the store.LoadBundle
// validator: it verifies the envelope (magic, header, payload CRC,
// section markers) without rebuilding an engine, so recovery can rank
// bundle generations quickly. A nil return means LoadStateMeta will not
// fail on crash damage (a valid CRC rules out truncation and bit rot).
func VerifyState(b []byte) error {
	_, err := parseStateEnvelope(bytes.NewReader(b))
	return err
}

// LoadStateMeta is LoadState returning the metadata map stored in the
// bundle header (nil for v1 bundles or when none was saved). The
// payload checksum is verified for v2 and v3 bundles before anything
// is decoded; corruption errors, including maintained sections that are
// malformed or contradict the database, wrap store.ErrCorrupt.
func LoadStateMeta(r io.Reader, workers int) (*Engine, map[string]string, error) {
	b, err := parseStateEnvelope(r)
	if err != nil {
		return nil, nil, err
	}
	hdr := b.hdr

	graphs, err := graph.Unmarshal(b.sections[0])
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
			return nil, nil, fmt.Errorf("midas: state database: %w", errors.Join(err, store.ErrCorrupt))
		}
	}
	patterns, err := graph.Unmarshal(b.sections[1])
	if err != nil {
		return nil, nil, fmt.Errorf("midas: decoding patterns section: %w", errors.Join(err, store.ErrCorrupt))
	}
	if len(patterns) != hdr.Patterns {
		return nil, nil, fmt.Errorf("midas: state bundle corrupt: %d patterns, header says %d: %w",
			len(patterns), hdr.Patterns, store.ErrCorrupt)
	}
	opts := hdr.Options
	opts.Workers = workers
	if b.version < 3 {
		inner := core.NewEngineWithPatterns(db, opts.toCore(), patterns)
		return &Engine{inner: inner, opts: opts}, hdr.Meta, nil
	}
	if hdr.Sigma == nil || hdr.NextPatternID == nil {
		return nil, nil, fmt.Errorf("midas: state bundle corrupt: v3 header missing sigma or nextPatternID: %w",
			store.ErrCorrupt)
	}
	if next := hdr.NextGraphID; next != nil && !db.SetNextID(*next) {
		return nil, nil, fmt.Errorf("midas: state bundle corrupt: nextGraphID %d is not above every graph ID: %w",
			*next, store.ErrCorrupt)
	}
	inner, err := core.RestoreEngine(db, opts.toCore(), patterns, core.Maintained{
		Trees:         b.sections[2],
		Clusters:      b.sections[3],
		Summaries:     b.sections[4],
		Sigma:         *hdr.Sigma,
		NextPatternID: *hdr.NextPatternID,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("midas: decoding maintained state: %w", errors.Join(err, store.ErrCorrupt))
	}
	return &Engine{inner: inner, opts: opts, decoded: true}, hdr.Meta, nil
}
