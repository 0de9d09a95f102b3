// Package stream turns the static CAFC pipeline into a live one: a
// bounded, backpressured ingest queue feeds a batch worker that grows
// the form-page model incrementally, assigns new pages to their nearest
// centroids, watches for assignment drift, and publishes each new model
// state as an immutable epoch behind an atomic pointer — so a serving
// process answers classification and directory queries lock-free while
// the next epoch builds.
//
// Durability is write-ahead: every ingested batch is framed into an
// append-only log before it is applied, and a versioned corpus snapshot
// records how many log records it already reflects. Recovery loads the
// snapshot and replays the tail through the exact same batch pipeline,
// which makes the post-recovery epoch equal to the pre-crash epoch (one
// epoch per applied record, deterministically).
package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"cafc/internal/obs"
)

// Doc is one raw page offered to the stream: its URL and HTML. The raw
// form (not the parsed one) goes into the WAL, so replay re-runs the
// same admission decisions the original ingest made.
type Doc struct {
	URL  string
	HTML string
}

// Record is one WAL entry: the documents of one ingested batch, exactly
// as they arrived (admitted or not). A record with no documents is a
// rebuild marker — it replays a forced full re-cluster.
type Record struct {
	Docs []Doc
}

// IsRebuild reports whether the record is a forced-rebuild marker.
func (r Record) IsRebuild() bool { return len(r.Docs) == 0 }

const (
	// snapshotName keeps its first format's name; the snapshot's own
	// leading bytes say which version it is.
	snapshotName = "snapshot.gob.gz"
	walName      = "wal.log"

	// maxFramePayload bounds one frame's gob payload (a length prefix
	// beyond it is treated as a torn frame, not an allocation request).
	maxFramePayload = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNoSnapshot is returned by OpenSnapshot when the store has none.
var ErrNoSnapshot = errors.New("stream: no snapshot")

// errTornFrame marks a truncated or corrupt frame. It never escapes the
// package's read APIs (scans stop at the last intact frame), but
// AppendFrame surfaces it when handed a damaged replication frame.
var errTornFrame = errors.New("stream: torn or corrupt WAL frame")

// Frame is one framed WAL record: the raw on-disk bytes (uvarint payload
// length, CRC-32C, gob payload — exactly as Append writes them) plus the
// decoded record. Replication ships Frames verbatim, so a follower's WAL
// is a byte-identical prefix copy of its leader's and the two sides
// share one recovery computation.
type Frame struct {
	Raw []byte
	Rec Record
}

// EncodeFrame frames one record exactly as Append writes it to disk.
func EncodeFrame(rec Record) (Frame, error) {
	var payload bytes.Buffer
	// Size the buffer up front: large-batch records carry megabytes of
	// document bytes, and letting the buffer double its way there churns
	// the allocator on the ingest hot path.
	hint := 64
	for _, d := range rec.Docs {
		hint += len(d.URL) + len(d.HTML) + 16
	}
	payload.Grow(hint)
	if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
		return Frame{}, fmt.Errorf("stream: wal encode: %w", err)
	}
	var frame bytes.Buffer
	frame.Grow(payload.Len() + binary.MaxVarintLen64 + 4)
	var lenBuf [binary.MaxVarintLen64]byte
	frame.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(payload.Len()))])
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.Checksum(payload.Bytes(), crcTable))
	frame.Write(crcBuf[:])
	frame.Write(payload.Bytes())
	return Frame{Raw: frame.Bytes(), Rec: rec}, nil
}

// readFrame reads one frame off br, capturing its raw bytes. A clean end
// of input returns io.EOF; a truncated length prefix, short body, CRC
// mismatch or undecodable payload returns errTornFrame — callers stop at
// the last intact frame either way.
func readFrame(br *bufio.Reader) (Frame, error) {
	var raw []byte
	var n uint64
	var shift uint
	for {
		b, err := br.ReadByte()
		if err != nil {
			if len(raw) == 0 && err == io.EOF {
				return Frame{}, io.EOF
			}
			return Frame{}, errTornFrame
		}
		raw = append(raw, b)
		n |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		if shift += 7; shift > 63 {
			return Frame{}, errTornFrame
		}
	}
	if n > maxFramePayload {
		return Frame{}, errTornFrame
	}
	body := make([]byte, 4+n)
	if _, err := io.ReadFull(br, body); err != nil {
		return Frame{}, errTornFrame
	}
	raw = append(raw, body...)
	payload := body[4:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(body[:4]) {
		return Frame{}, errTornFrame
	}
	var rec Record
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return Frame{}, errTornFrame
	}
	return Frame{Raw: raw, Rec: rec}, nil
}

// verifyFrame re-checks a frame's raw bytes (framing shape and CRC)
// without trusting the decoded record the sender attached.
func verifyFrame(raw []byte) error {
	f, err := readFrame(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return errTornFrame
	}
	if len(f.Raw) != len(raw) {
		return errTornFrame // trailing garbage glued onto the frame
	}
	return nil
}

// DecodeFrames parses the intact frame prefix of buf — a replication
// response body. A torn or corrupt tail is dropped silently, mirroring
// how WAL recovery treats a crash-truncated log: the intact prefix is
// the usable history and the next fetch resumes past it.
func DecodeFrames(buf []byte) []Frame {
	br := bufio.NewReader(bytes.NewReader(buf))
	var out []Frame
	for {
		f, err := readFrame(br)
		if err != nil {
			return out
		}
		out = append(out, f)
	}
}

// TailWAL reads dir's WAL and returns its intact frames from record
// offset `from` on, plus the total intact record count — the read side
// of the replication stream. A missing WAL is an empty one. The scan is
// O(total) because frames are variable-length; at directory scale that
// is cheap, and the leader pays it per poll rather than holding an
// offset index that crash recovery would have to rebuild anyway.
func TailWAL(dir string, from int64) ([]Frame, int64, error) {
	var out []Frame
	var total int64
	err := scanWAL(dir, func(fr Frame) {
		if total >= from {
			out = append(out, fr)
		}
		total++
	})
	return out, total, err
}

// scanWAL calls fn with each intact frame of dir's WAL, in order. A
// missing WAL is an empty one; a clean end or a torn tail ends the scan
// at the durable prefix.
func scanWAL(dir string, fn func(Frame)) error {
	f, err := os.Open(filepath.Join(dir, walName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("stream: read wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for {
		fr, err := readFrame(br)
		if err != nil {
			return nil
		}
		fn(fr)
	}
}

// OpenSnapshotAt opens dir's current snapshot for reading without
// opening the WAL for writing — the replication server's read-only view
// of a store another process owns. ErrNoSnapshot when none exists.
func OpenSnapshotAt(dir string) (io.ReadCloser, error) {
	f, err := os.Open(filepath.Join(dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoSnapshot
	}
	if err != nil {
		return nil, fmt.Errorf("stream: open snapshot: %w", err)
	}
	return f, nil
}

// HasState reports whether dir holds live-directory state (a WAL or a
// snapshot) — the fresh-start vs. recover decision.
func HasState(dir string) bool {
	for _, name := range []string{walName, snapshotName} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil && fi.Size() > 0 {
			return true
		}
	}
	return false
}

// Store is the durable home of one live directory: an append-only WAL
// of ingested batches plus the latest corpus snapshot, both under one
// directory. WAL frames are length-prefixed and checksummed
// individually (uvarint length, CRC-32C, gob payload), so a torn tail
// from a crash truncates cleanly instead of poisoning the stream.
//
// Two durability modes. The default syncs every Append before returning
// — one fsync per record. Group-commit mode (SetGroupCommit) buffers
// encoded frames in memory and commits them — one Write of every
// pending frame plus one fsync — when the owner asks (RequestCommit /
// Flush) or the pending count hits the cap. Because pending frames
// never touch the file before their commit, every read path (TailWAL,
// Records, replication) sees exactly the durable prefix, and a crash
// simply loses the pending tail — the same truncation contract a torn
// tail has always had. RecordCount likewise counts durable records
// only, which is what keeps follower resume offsets (they re-fetch from
// the leader's durable count) from double-applying a buffered frame.
type Store struct {
	dir string

	// mu guards the WAL handle, the durable record count, and the
	// pending buffer. Never held across a disk write in group mode —
	// commits steal the pending slice and write under commitMu, so
	// Append stays non-blocking while an fsync is in flight (the
	// overlap that lets batch N+1 parse while batch N syncs).
	mu      sync.Mutex
	wal     *os.File
	records int64
	pending [][]byte
	// commitErr is the first commit failure, sticky: once buffered
	// frames have been dropped on the floor the log's append-only
	// contract is broken and every later append must fail loudly.
	commitErr error

	// commitMu serializes commits (steal → write → sync → account).
	commitMu sync.Mutex

	// groupMax, kick, quit, done belong to group-commit mode; all are
	// set once in SetGroupCommit before concurrent use.
	groupMax int
	kick     chan struct{}
	quit     chan struct{}
	done     chan struct{}

	// reg receives wal_fsync_total / wal_group_commit_total /
	// wal_pending_records. Nil (the default) is inert.
	reg *obs.Registry
}

// Open opens (creating if needed) the store directory and its WAL, and
// counts the intact records already present. A torn or corrupt tail
// (a crash mid-append) is truncated away before the first append: a
// frame written behind it would be unreadable to every scan, so
// followers would never receive it and the next recovery would lose it.
// Only the directory's owner opens a Store, so no live writer is cut.
func Open(dir string) (*Store, error) {
	s, _, err := OpenRecords(dir)
	return s, err
}

// OpenRecords is Open returning, too, the intact records its scan
// decoded — what Records would read — so recovery reads the WAL once.
// The Store keeps no reference to them.
func OpenRecords(dir string) (*Store, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("stream: open store: %w", err)
	}
	var recs []Record
	var intact int64
	if err := scanWAL(dir, func(fr Frame) {
		recs = append(recs, fr.Rec)
		intact += int64(len(fr.Raw))
	}); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: open wal: %w", err)
	}
	if err := truncateTail(f, intact); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Store{dir: dir, wal: f, records: int64(len(recs))}, recs, nil
}

// truncateTail cuts the WAL back to its intact prefix of size bytes,
// syncing the cut, when anything lies beyond it.
func truncateTail(f *os.File, size int64) error {
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("stream: open wal: %w", err)
	}
	if fi.Size() <= size {
		return nil
	}
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("stream: truncate torn wal tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("stream: sync wal truncation: %w", err)
	}
	return nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Instrument attaches a metrics registry: wal_fsync_total counts every
// fsync on the log, wal_group_commit_total every multi-record commit,
// wal_pending_records the buffered (not yet durable) record count. Nil
// — and never calling Instrument — is inert. Call before concurrent
// use.
func (s *Store) Instrument(reg *obs.Registry) { s.reg = reg }

// SetGroupCommit switches the store into group-commit mode with the
// given pending-record cap and starts the background committer that
// serves RequestCommit kicks. max <= 0 keeps the default
// sync-per-append mode. Call once, before concurrent use, and only on
// a store whose owner drives the commit policy (the live worker);
// follower stores must stay in the default mode so their durable count
// — the replication resume offset — never lags what they acknowledged.
func (s *Store) SetGroupCommit(max int) {
	if max <= 0 || s.kick != nil {
		return
	}
	s.groupMax = max
	s.kick = make(chan struct{}, 1)
	s.quit = make(chan struct{})
	s.done = make(chan struct{})
	kick, quit, done := s.kick, s.quit, s.done
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-kick:
				// Errors are sticky in commitErr and surface on the next
				// Append/Flush; the committer itself has no caller to tell.
				s.Flush() //nolint:errcheck
			}
		}
	}()
}

// GroupCommit reports the pending-record cap (0 = sync per append).
func (s *Store) GroupCommit() int { return s.groupMax }

// RecordCount returns the number of durable (fsynced) WAL records. In
// group-commit mode, buffered-but-uncommitted records are excluded —
// see Pending.
func (s *Store) RecordCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Pending returns the number of records buffered but not yet durable.
// Always 0 outside group-commit mode.
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// RequestCommit asks the background committer to commit the pending
// buffer — non-blocking, coalescing: a kick while one is queued is
// absorbed. No-op outside group-commit mode.
func (s *Store) RequestCommit() {
	if s.kick == nil {
		return
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Flush synchronously commits every pending record: one write of the
// concatenated frames, one fsync. A no-op (nil) when nothing is
// pending. Returns the sticky commit error once one has occurred.
func (s *Store) Flush() error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()

	s.mu.Lock()
	if s.commitErr != nil {
		err := s.commitErr
		s.mu.Unlock()
		return err
	}
	batch := s.pending
	s.pending = nil
	wal := s.wal
	s.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	if wal == nil {
		s.mu.Lock()
		s.commitErr = errors.New("stream: store closed with pending records")
		err := s.commitErr
		s.mu.Unlock()
		return err
	}

	var err error
	for _, raw := range batch {
		if _, err = wal.Write(raw); err != nil {
			break
		}
	}
	if err == nil {
		err = wal.Sync()
	}

	s.mu.Lock()
	if err != nil {
		s.commitErr = fmt.Errorf("stream: wal group commit: %w", err)
		err = s.commitErr
	} else {
		s.records += int64(len(batch))
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.reg.Counter("wal_fsync_total").Inc()
	if len(batch) > 1 {
		s.reg.Counter("wal_group_commit_total").Inc()
	}
	s.notePending()
	return nil
}

// notePending refreshes the pending-records gauge.
func (s *Store) notePending() {
	if s.reg == nil {
		return
	}
	s.reg.Gauge("wal_pending_records").Set(float64(s.Pending()))
}

// Append frames one record onto the WAL and syncs it to stable storage
// before returning, so an acknowledged batch survives a crash.
func (s *Store) Append(rec Record) error {
	f, err := EncodeFrame(rec)
	if err != nil {
		return err
	}
	return s.appendRaw(f.Raw)
}

// AppendFrame appends a replicated frame's raw bytes verbatim — the
// follower half of the replication invariant (its WAL stays a
// byte-identical prefix copy of the leader's). The framing and CRC are
// re-verified first, so a frame damaged in transit is rejected whole
// rather than poisoning the local log.
func (s *Store) AppendFrame(f Frame) error {
	if err := verifyFrame(f.Raw); err != nil {
		return err
	}
	return s.appendRaw(f.Raw)
}

// appendRaw accepts one already-framed record: in the default mode it
// writes and syncs inline; in group-commit mode it buffers the frame
// and, at the pending cap, commits inline — the natural backpressure
// point (an ingest batch that fills the window pays for the fsync it
// triggered).
func (s *Store) appendRaw(raw []byte) error {
	s.mu.Lock()
	if s.wal == nil {
		s.mu.Unlock()
		return errors.New("stream: store closed")
	}
	if s.commitErr != nil {
		err := s.commitErr
		s.mu.Unlock()
		return err
	}
	if s.groupMax <= 0 {
		defer s.mu.Unlock()
		if _, err := s.wal.Write(raw); err != nil {
			return fmt.Errorf("stream: wal append: %w", err)
		}
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("stream: wal sync: %w", err)
		}
		s.records++
		s.reg.Counter("wal_fsync_total").Inc()
		return nil
	}
	s.pending = append(s.pending, raw)
	n := len(s.pending)
	s.mu.Unlock()
	s.notePending()
	if n >= s.groupMax {
		return s.Flush()
	}
	return nil
}

// Records reads every intact record from the start of the WAL. A torn
// or corrupt tail frame (crash mid-write) ends the scan silently: the
// intact prefix is the durable history, exactly as the sync protocol
// guarantees.
func (s *Store) Records() ([]Record, error) {
	var recs []Record
	err := scanWAL(s.dir, func(fr Frame) { recs = append(recs, fr.Rec) })
	return recs, err
}

// WriteSnapshot atomically replaces the store's snapshot with whatever
// fn writes: the bytes land in a temp file first and are renamed into
// place, so a crash mid-snapshot leaves the previous snapshot intact.
// Pending group-commit records are flushed first, so a snapshot's WAL
// offset never runs ahead of the durable log (recovery additionally
// clamps the offset, but a snapshot that references records a crash
// could erase must not be the normal case).
func (s *Store) WriteSnapshot(fn func(io.Writer) error) error {
	if err := s.Flush(); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, snapshotName+".tmp*")
	if err != nil {
		return fmt.Errorf("stream: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := fn(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("stream: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("stream: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("stream: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("stream: snapshot rename: %w", err)
	}
	return nil
}

// OpenSnapshot opens the current snapshot for reading, or ErrNoSnapshot
// when none has been written yet.
func (s *Store) OpenSnapshot() (io.ReadCloser, error) {
	f, err := os.Open(filepath.Join(s.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoSnapshot
	}
	if err != nil {
		return nil, fmt.Errorf("stream: open snapshot: %w", err)
	}
	return f, nil
}

// Close closes the WAL handle. Appends after Close fail. In
// group-commit mode Close deliberately does NOT flush the pending
// buffer — Close is the crash-semantics teardown (the recovery tests
// lean on it), and unflushed records were never promised durable.
// Graceful shutdown reaches durability through the worker's drain path
// (which flushes before the final snapshot), not through Close.
func (s *Store) Close() error {
	s.mu.Lock()
	quit := s.quit
	s.quit = nil
	s.mu.Unlock()
	if quit != nil {
		close(quit)
		<-s.done
	}
	// Taking commitMu keeps an in-flight commit's write+sync from racing
	// the handle close.
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = nil
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
