package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"github.com/midas-graph/midas/internal/vfs"
)

// RepLog errors.
var (
	// ErrCompacted means the requested LSN range was dropped by
	// CompactTo — the reader must re-bootstrap from a bundle instead of
	// tailing the log.
	ErrCompacted = errors.New("store: replication log compacted past requested LSN")
	// ErrLogSealed rejects appends to a log whose epoch is behind the
	// record being appended, or control misuse (Seed on a non-empty
	// log).
	ErrLogSealed = errors.New("store: replication log sealed")
)

// RecordKind distinguishes shipped batch payloads from epoch control
// records.
type RecordKind uint8

const (
	// RecData carries one committed maintenance batch: the update
	// payload as applied (post ID-remap) plus the primary's post-apply
	// state fingerprint.
	RecData RecordKind = 0
	// RecEpoch marks an epoch transition (promotion fencing) or a log
	// seed. It consumes an LSN like any record so fencing is totally
	// ordered with data.
	RecEpoch RecordKind = 1
)

// RepRecord is one framed record of the replication log — the unit a
// primary ships to its followers. LSNs are contiguous and monotonic;
// Epoch never decreases along the log.
type RepRecord struct {
	Kind RecordKind
	// LSN is the record's log sequence number (first record of a fresh
	// log is 1).
	LSN uint64
	// Epoch is the primacy epoch the record was committed under.
	Epoch uint64
	// Name is the batch name (empty for control records).
	Name string
	// Fingerprint is the primary's canonical state fingerprint after
	// applying this record — the per-LSN divergence check a follower
	// compares its own state against.
	Fingerprint uint64
	// Data is the encoded update payload (nil for control records).
	Data []byte
}

// Frame layout (big-endian):
//
//	magic   "MR1\n"              (4 bytes, per record — self-resynchronising for salvage)
//	kind    u8
//	lsn     u64
//	epoch   u64
//	fpr     u64
//	nameLen u16
//	dataLen u32
//	name    nameLen bytes
//	data    dataLen bytes
//	crc     u32 over everything above (magic included)
const (
	repMagic      = "MR1\n"
	repHeaderLen  = 4 + 1 + 8 + 8 + 8 + 2 + 4
	repMaxName    = 1 << 12
	repMaxPayload = 1 << 28
)

// EncodeRecord frames one record — the same bytes live in the log and
// on the replication wire, so a torn frame is detected identically in
// both places.
func EncodeRecord(r RepRecord) []byte {
	buf := make([]byte, repHeaderLen+len(r.Name)+len(r.Data)+4)
	copy(buf, repMagic)
	buf[4] = byte(r.Kind)
	binary.BigEndian.PutUint64(buf[5:], r.LSN)
	binary.BigEndian.PutUint64(buf[13:], r.Epoch)
	binary.BigEndian.PutUint64(buf[21:], r.Fingerprint)
	binary.BigEndian.PutUint16(buf[29:], uint16(len(r.Name)))
	binary.BigEndian.PutUint32(buf[31:], uint32(len(r.Data)))
	copy(buf[repHeaderLen:], r.Name)
	copy(buf[repHeaderLen+len(r.Name):], r.Data)
	sum := crc32.ChecksumIEEE(buf[:len(buf)-4])
	binary.BigEndian.PutUint32(buf[len(buf)-4:], sum)
	return buf
}

// DecodeRecord parses one framed record from the front of b, returning
// the record and the number of bytes consumed. Truncation, a bad magic,
// an oversized length field or a checksum mismatch return an error
// wrapping ErrCorrupt.
func DecodeRecord(b []byte) (RepRecord, int, error) {
	var r RepRecord
	if len(b) < repHeaderLen+4 {
		return r, 0, fmt.Errorf("store: replication frame truncated (%d bytes): %w", len(b), ErrCorrupt)
	}
	if string(b[:4]) != repMagic {
		return r, 0, fmt.Errorf("store: bad replication frame magic: %w", ErrCorrupt)
	}
	r.Kind = RecordKind(b[4])
	r.LSN = binary.BigEndian.Uint64(b[5:])
	r.Epoch = binary.BigEndian.Uint64(b[13:])
	r.Fingerprint = binary.BigEndian.Uint64(b[21:])
	nameLen := int(binary.BigEndian.Uint16(b[29:]))
	dataLen := int(binary.BigEndian.Uint32(b[31:]))
	if nameLen > repMaxName || dataLen > repMaxPayload {
		return r, 0, fmt.Errorf("store: replication frame length out of range (name %d, data %d): %w",
			nameLen, dataLen, ErrCorrupt)
	}
	total := repHeaderLen + nameLen + dataLen + 4
	if len(b) < total {
		return r, 0, fmt.Errorf("store: replication frame truncated (%d of %d bytes): %w", len(b), total, ErrCorrupt)
	}
	want := binary.BigEndian.Uint32(b[total-4:])
	if got := crc32.ChecksumIEEE(b[:total-4]); got != want {
		return r, 0, fmt.Errorf("store: replication frame checksum mismatch (%08x != %08x): %w", got, want, ErrCorrupt)
	}
	r.Name = string(b[repHeaderLen : repHeaderLen+nameLen])
	if dataLen > 0 {
		r.Data = append([]byte(nil), b[repHeaderLen+nameLen:repHeaderLen+nameLen+dataLen]...)
	}
	return r, total, nil
}

// EncodeRecords frames a batch of records back to back — the wire form
// of one replication push.
func EncodeRecords(recs []RepRecord) []byte {
	var buf bytes.Buffer
	for _, r := range recs {
		buf.Write(EncodeRecord(r))
	}
	return buf.Bytes()
}

// DecodeRecords parses a back-to-back frame batch. Any damage
// (truncation, checksum, magic) fails the whole batch — the receiver
// rejects it and the sender retries; frames are never half-trusted.
func DecodeRecords(b []byte) ([]RepRecord, error) {
	var out []RepRecord
	for len(b) > 0 {
		r, n, err := DecodeRecord(b)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		b = b[n:]
	}
	return out, nil
}

// RepLog is the durable, append-fsync replication log: the shippable
// form of a shard's committed maintenance history. Every committed
// batch is one framed, CRC'd record tagged with a contiguous LSN and
// the primacy epoch it was committed under; epoch transitions are
// control records in the same sequence, so fencing is totally ordered
// with data. Opening salvages the valid prefix: the first record that
// fails to parse cuts the log, the torn tail is quarantined to
// *.corrupt, and appends continue after the prefix.
//
// RepLog is safe for concurrent use: the maintenance goroutine appends
// while shipper goroutines ReadFrom/Wait the tail.
type RepLog struct {
	mu      sync.Mutex
	fsys    vfs.FS
	path    string
	f       vfs.File
	size    int64
	first   uint64 // LSN of the earliest retained record (0 = empty log)
	last    uint64 // LSN of the latest record (0 = empty log)
	epoch   uint64 // epoch of the latest record
	offsets map[uint64]int64
	// lastName/lastSum make Append idempotent across the pipeline's
	// After-hook retries: re-appending the batch that is already the
	// tail is a no-op.
	lastName string
	lastSum  uint32
	salvage  TailSalvage
	// tailCh is closed and replaced on every append; Wait blocks on it.
	tailCh chan struct{}
}

// OpenRepLog opens (creating if needed) the replication log at path on
// the production filesystem. See OpenRepLogFS.
func OpenRepLog(path string) (*RepLog, error) {
	return OpenRepLogFS(vfs.OS, path)
}

// OpenRepLogFS opens (creating if needed) the replication log at path
// and indexes its records. The log is trusted only up to the last
// record that parses completely and continues the LSN sequence; the
// damaged tail is quarantined to path+".corrupt" and truncated, so
// recovery never needs manual repair.
func OpenRepLogFS(fsys vfs.FS, path string) (*RepLog, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open replication log: %w", err)
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: read replication log: %w", err)
	}
	l := &RepLog{fsys: fsys, path: path, f: f, offsets: make(map[uint64]int64), tailCh: make(chan struct{})}

	validEnd := 0
	for validEnd < len(data) {
		r, n, err := DecodeRecord(data[validEnd:])
		if err != nil {
			break
		}
		if l.last != 0 && (r.LSN != l.last+1 || r.Epoch < l.epoch) {
			// A record that breaks LSN contiguity or regresses the epoch
			// cannot be trusted, nor can anything after it.
			break
		}
		if l.first == 0 {
			l.first = r.LSN
		}
		l.offsets[r.LSN] = int64(validEnd)
		l.last, l.epoch = r.LSN, r.Epoch
		l.lastName = r.Name
		l.lastSum = crc32.ChecksumIEEE(r.Data)
		validEnd += n
	}
	if validEnd < len(data) {
		tail := data[validEnd:]
		qp := path + corruptSuffix
		if err := quarantineBytes(fsys, qp, tail); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: replication log quarantine: %w", err)
		}
		if err := f.Truncate(int64(validEnd)); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: replication log repair: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: replication log repair sync: %w", err)
		}
		l.salvage = TailSalvage{TailBytes: len(tail), QuarantinePath: qp}
		salvageStats.events.Add(1)
		salvageStats.quarantinedFiles.Add(1)
	}
	if _, err := f.Seek(int64(validEnd), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek replication log: %w", err)
	}
	l.size = int64(validEnd)
	return l, nil
}

// TailSalvage describes what OpenRepLogFS had to repair: a torn or
// corrupt tail (the crash signature of an interrupted append, or bit
// rot) that was cut off the log and quarantined for post-mortem.
type TailSalvage struct {
	// TailBytes is the number of bytes truncated off the log.
	TailBytes int
	// QuarantinePath is the *.corrupt file holding the truncated bytes
	// ("" when nothing was salvaged).
	QuarantinePath string
}

// quarantineBytes durably writes b to path (overwriting a previous
// quarantine of the same artifact).
func quarantineBytes(fsys vfs.FS, path string, b []byte) error {
	q, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := q.Write(b); err != nil {
		q.Close()
		return err
	}
	if err := q.Sync(); err != nil {
		q.Close()
		return err
	}
	return q.Close()
}

// Salvage reports what OpenRepLogFS had to repair (zero value when the
// log was clean).
func (l *RepLog) Salvage() TailSalvage { return l.salvage }

// FirstLSN returns the earliest retained LSN (0 on an empty log).
func (l *RepLog) FirstLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first
}

// LastLSN returns the latest LSN (0 on an empty log).
func (l *RepLog) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Epoch returns the current primacy epoch (the latest record's; 0 on
// an empty log).
func (l *RepLog) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Size returns the log file's current size in bytes.
func (l *RepLog) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Append durably appends one committed data batch under the current
// epoch and returns its LSN. Re-appending the batch that is already
// the tail record (same name and payload — the pipeline's After-hook
// retry) is a no-op returning the existing LSN.
func (l *RepLog) Append(name string, fingerprint uint64, data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sum := crc32.ChecksumIEEE(data)
	if l.last != 0 && name != "" && l.lastName == name && l.lastSum == sum {
		return l.last, nil
	}
	rec := RepRecord{Kind: RecData, LSN: l.last + 1, Epoch: l.epoch, Name: name, Fingerprint: fingerprint, Data: data}
	if rec.LSN == 1 && l.epoch == 0 {
		rec.Epoch = 1 // a fresh primary's first commit opens epoch 1
	}
	if err := l.appendLocked(rec); err != nil {
		return 0, err
	}
	return rec.LSN, nil
}

// AppendRecord durably appends a record verbatim — the follower's
// install path, which must preserve the primary's LSN, epoch and
// fingerprint. The record must continue the local sequence: LSN =
// LastLSN+1 (or anything on an empty/seeded log boundary) and a
// non-decreasing epoch. A record already in the log (LSN <= LastLSN)
// is a duplicate delivery and is ignored.
func (l *RepLog) AppendRecord(rec RepRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last != 0 && rec.LSN <= l.last {
		return nil // duplicate delivery
	}
	if l.last != 0 && rec.LSN != l.last+1 {
		return fmt.Errorf("store: replication log gap: have LSN %d, got %d: %w", l.last, rec.LSN, ErrLogSealed)
	}
	if rec.Epoch < l.epoch {
		return fmt.Errorf("store: replication log epoch regression: have %d, got %d: %w", l.epoch, rec.Epoch, ErrLogSealed)
	}
	return l.appendLocked(rec)
}

// Seed establishes the base position of an empty log — the follower's
// bootstrap step after installing the primary's bundle: subsequent
// records continue from (lsn, epoch). Seeding a non-empty log is an
// error.
func (l *RepLog) Seed(lsn, epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last != 0 {
		return fmt.Errorf("store: seed of non-empty replication log (last LSN %d): %w", l.last, ErrLogSealed)
	}
	return l.appendLocked(RepRecord{Kind: RecEpoch, LSN: lsn, Epoch: epoch})
}

// BumpEpoch durably opens the next primacy epoch (promotion fencing)
// and returns it with the control record's LSN. Everything committed
// afterwards carries the new epoch; an old primary's stream is fenced
// against it.
func (l *RepLog) BumpEpoch() (epoch, lsn uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.epoch + 1
	rec := RepRecord{Kind: RecEpoch, LSN: l.last + 1, Epoch: next}
	if err := l.appendLocked(rec); err != nil {
		return 0, 0, err
	}
	return next, rec.LSN, nil
}

// appendLocked writes and fsyncs one record with l.mu held.
func (l *RepLog) appendLocked(rec RepRecord) error {
	buf := EncodeRecord(rec)
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("store: replication log append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: replication log sync: %w", err)
	}
	l.offsets[rec.LSN] = l.size
	l.size += int64(len(buf))
	if l.first == 0 {
		l.first = rec.LSN
	}
	l.last, l.epoch = rec.LSN, rec.Epoch
	l.lastName = rec.Name
	l.lastSum = crc32.ChecksumIEEE(rec.Data)
	ch := l.tailCh
	l.tailCh = make(chan struct{})
	close(ch)
	return nil
}

// ReadFrom returns up to max records with LSN > after, in LSN order
// (max <= 0 means no bound). Asking for records older than the
// earliest retained LSN returns ErrCompacted — the reader must
// re-bootstrap from a bundle.
func (l *RepLog) ReadFrom(after uint64, max int) ([]RepRecord, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last == 0 || after >= l.last {
		return nil, nil
	}
	start := after + 1
	if start < l.first {
		return nil, fmt.Errorf("%w (want LSN %d, earliest retained %d)", ErrCompacted, start, l.first)
	}
	off, ok := l.offsets[start]
	if !ok {
		return nil, fmt.Errorf("%w (want LSN %d, earliest retained %d)", ErrCompacted, start, l.first)
	}
	// Read the suffix under the lock: appends are fsync-paced, so the
	// copy is short and the alternative (reading racily) could observe
	// a torn in-flight append.
	data, err := l.fsys.ReadFile(l.path)
	if err != nil {
		return nil, fmt.Errorf("store: read replication log: %w", err)
	}
	if off > int64(len(data)) {
		return nil, fmt.Errorf("store: replication log shorter than index: %w", ErrCorrupt)
	}
	var out []RepRecord
	b := data[off:l.size]
	for len(b) > 0 && (max <= 0 || len(out) < max) {
		r, n, err := DecodeRecord(b)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		b = b[n:]
	}
	return out, nil
}

// Wait blocks until a record with LSN > after exists or done is
// closed, reporting whether new records arrived — the tail-follow
// primitive shipper goroutines park on.
func (l *RepLog) Wait(done <-chan struct{}, after uint64) bool {
	for {
		l.mu.Lock()
		if l.last > after {
			l.mu.Unlock()
			return true
		}
		ch := l.tailCh
		l.mu.Unlock()
		select {
		case <-ch:
		case <-done:
			return false
		}
	}
}

// CompactTo drops records with LSN <= keep, retaining the current
// epoch by re-seeding the compacted log with a control record at the
// compaction boundary. The rewrite is atomic (tmp + fsync + rename +
// dir fsync); a crash leaves either the old log or the compacted one.
// Compaction is safe once every follower the caller cares about has
// acknowledged keep — a slower follower gets ErrCompacted and
// re-bootstraps from the bundle.
func (l *RepLog) CompactTo(keep uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if keep < l.first || l.last == 0 {
		return nil
	}
	if keep > l.last {
		keep = l.last
	}
	var retained []RepRecord
	if keep < l.last {
		data, err := l.fsys.ReadFile(l.path)
		if err != nil {
			return fmt.Errorf("store: read replication log: %w", err)
		}
		off := l.offsets[keep+1]
		b := data[off:l.size]
		for len(b) > 0 {
			r, n, err := DecodeRecord(b)
			if err != nil {
				return err
			}
			retained = append(retained, r)
			b = b[n:]
		}
	}
	seedEpoch := l.epoch
	if len(retained) > 0 {
		seedEpoch = retained[0].Epoch
	}
	seed := RepRecord{Kind: RecEpoch, LSN: keep, Epoch: seedEpoch}
	err := WriteAtomicFS(l.fsys, l.path, func(w io.Writer) error {
		if _, err := w.Write(EncodeRecord(seed)); err != nil {
			return err
		}
		for _, r := range retained {
			if _, err := w.Write(EncodeRecord(r)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: replication log compact: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("store: replication log compact close: %w", err)
	}
	f, err := l.fsys.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: replication log compact reopen: %w", err)
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: replication log compact seek: %w", err)
	}
	l.f, l.size = f, size
	l.offsets = make(map[uint64]int64)
	off := int64(0)
	l.offsets[seed.LSN] = off
	off += int64(len(EncodeRecord(seed)))
	for _, r := range retained {
		l.offsets[r.LSN] = off
		off += int64(len(EncodeRecord(r)))
	}
	l.first = keep
	return nil
}

// Close closes the log file.
func (l *RepLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
