package cafc

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	icafc "cafc/internal/cafc"
	"cafc/internal/cluster"
	"cafc/internal/form"
)

// Snapshot format. Save and SaveSnapshot write version 3, and
// LoadSnapshot reads only version 3. Versions 1 and 2 were
// gzip-compressed gob of each page's map vectors, with no term records
// and no partition; LoadSnapshot refuses them, and a directory saved in
// them is rebuilt from its dataset.
//
// Version 3 is the 8-byte magic "CAFCsnap", a version byte (3), then one
// flate stream (level 5, snapshotLevel) holding a 48-byte header — epoch
// and WAL offset (int64), then the LOC weights Title, Body, Form and
// Option (float64), each 8 bytes little-endian — and the model's state
// as internal/cafc's Model.WriteState lays it out: model parameters
// (uniform, features, C1, C2), both DF tables and dictionaries, every
// page's URL, term record and packed vectors, and, for a snapshot of a
// live epoch, its partition (K, assignment, packed centroids). Loading
// installs the packed vectors and dictionaries as stored, so the loaded
// model equals the saved one bit for bit. A later field comes with a new
// version, not a placeholder.
const snapshotVersion = 3

// snapshotLevel is version 3's flate level. It is one below the default
// because the default is slower than the version 2 encoder it replaces:
// at 2000 pages (webgen seed 4001, k = 8 partition) level 6 makes a
// 764 KB file, but saving it takes longer than saving the 901 KB v2 file,
// while level 5 makes 807 KB in less time. At 454 pages level 4 would
// already be larger than v2.
const snapshotLevel = 5

// snapshotMagic opens a version 3 snapshot.
var snapshotMagic = []byte("CAFCsnap")

// gzipMagic opens a gzip stream, and with it a version 1 or 2 snapshot.
var gzipMagic = []byte{0x1f, 0x8b}

// SnapshotInfo is the stream positioning a snapshot carries: the model
// epoch it was taken at and the number of WAL records it already
// reflects. Zero values describe a plain static corpus.
type SnapshotInfo struct {
	Epoch     int64
	WALOffset int64
}

// Save writes the built corpus (model, term records and corpus
// statistics) as a version 3 snapshot, so an expensive crawl+build can
// be reused across processes — e.g. by a long-running classification
// service.
func (c *Corpus) Save(w io.Writer) error {
	return c.SaveSnapshot(w, SnapshotInfo{})
}

// SaveSnapshot is Save with explicit stream positioning — the live
// directory checkpoints its corpus with the epoch and WAL offset the
// snapshot reflects, so a restart recovers to that epoch and replays
// only the WAL tail.
func (c *Corpus) SaveSnapshot(w io.Writer, info SnapshotInfo) error {
	return c.saveSnapshot(w, info, nil)
}

// saveSnapshot writes a version 3 snapshot; res, when non-nil, is the
// partition of the epoch being checkpointed.
func (c *Corpus) saveSnapshot(w io.Writer, info SnapshotInfo, res *cluster.Result) error {
	if _, err := w.Write(append(append([]byte(nil), snapshotMagic...), snapshotVersion)); err != nil {
		return fmt.Errorf("cafc: save: %w", err)
	}
	fw, err := flate.NewWriter(w, snapshotLevel)
	if err != nil {
		return fmt.Errorf("cafc: save: %w", err)
	}
	if err := c.writePayload(fw, info, res); err != nil {
		return fmt.Errorf("cafc: save: %w", err)
	}
	if err := fw.Close(); err != nil {
		return fmt.Errorf("cafc: save: %w", err)
	}
	return nil
}

// LoadCorpus reads a corpus written by Save or SaveSnapshot (snapshot
// version 3; versions 1 and 2 fail with an error). Run options do not
// survive serialization — a snapshot records model state, not wiring —
// so pass Options to re-attach them: Metrics re-enables telemetry and
// Retry re-enables the resilient backlink policy, exactly as NewCorpus
// would have wired them.
func LoadCorpus(r io.Reader, opts ...Options) (*Corpus, error) {
	c, _, err := LoadSnapshot(r, opts...)
	return c, err
}

// LoadSnapshot is LoadCorpus plus the stream positioning the snapshot
// carries (zero for static saves). The snapshot's packed vectors,
// dictionaries and term records load as stored: nothing is re-interned
// or re-embedded, and the model equals the saved one bit for bit.
func LoadSnapshot(r io.Reader, opts ...Options) (*Corpus, SnapshotInfo, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	s, err := loadSnapshot(r, o)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	return s.corpus, s.info, nil
}

// loadedSnapshot is everything a snapshot restores.
type loadedSnapshot struct {
	corpus *Corpus
	info   SnapshotInfo
	// result is the checkpointed epoch's partition (snapshots written by
	// the live directory; nil for a static Save).
	result *cluster.Result
}

func loadSnapshot(r io.Reader, o Options) (*loadedSnapshot, error) {
	br := bufio.NewReader(r)
	// Input shorter than the header ends in io.EOF, which leaves head
	// short for the checks below; any other error is the reader's.
	head, err := br.Peek(len(snapshotMagic) + 1)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("cafc: load: %w", err)
	}
	if bytes.HasPrefix(head, gzipMagic) {
		return nil, errors.New("cafc: snapshot version 1 or 2 (gzip) is no longer read: " +
			"rebuild the directory from its dataset (-in) on a fresh -data")
	}
	if !bytes.HasPrefix(head, snapshotMagic) {
		return nil, errors.New("cafc: decode: not a snapshot")
	}
	if len(head) <= len(snapshotMagic) {
		return nil, fmt.Errorf("cafc: decode: truncated snapshot header")
	}
	if v := int(head[len(snapshotMagic)]); v != snapshotVersion {
		return nil, fmt.Errorf("cafc: snapshot version %d not supported", v)
	}
	_, _ = br.Discard(len(head)) // peeked, so buffered: cannot fail
	payload, err := io.ReadAll(flate.NewReader(br))
	if err != nil {
		return nil, fmt.Errorf("cafc: load: %w", err)
	}
	s, err := decodeSnapshot(payload, o)
	if err != nil {
		return nil, fmt.Errorf("cafc: decode: %w", err)
	}
	return s, nil
}

func newLoadedCorpus(m *icafc.Model, urls []string, w form.Weights, o Options) *Corpus {
	return &Corpus{
		model:             m,
		urls:              urls,
		weights:           w,
		retry:             o.Retry,
		skipNonSearchable: o.SkipNonSearchable,
	}
}

// snapshotHeaderLen is the length of a version 3 payload's header.
const snapshotHeaderLen = 6 * 8

// writePayload writes the uncompressed version 3 payload: the header,
// then the model's state.
func (c *Corpus) writePayload(w io.Writer, info SnapshotInfo, res *cluster.Result) error {
	h := make([]byte, 0, snapshotHeaderLen)
	h = binary.LittleEndian.AppendUint64(h, uint64(info.Epoch))
	h = binary.LittleEndian.AppendUint64(h, uint64(info.WALOffset))
	for _, f := range [...]float64{c.weights.Title, c.weights.Body, c.weights.Form, c.weights.Option} {
		h = binary.LittleEndian.AppendUint64(h, math.Float64bits(f))
	}
	if _, err := w.Write(h); err != nil {
		return err
	}
	return c.model.WriteState(w, res)
}

// decodeSnapshot decodes a version 3 payload.
func decodeSnapshot(b []byte, o Options) (*loadedSnapshot, error) {
	if len(b) < snapshotHeaderLen {
		return nil, errors.New("snapshot corrupt: truncated header")
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	info := SnapshotInfo{Epoch: int64(word(0)), WALOffset: int64(word(1))}
	if info.Epoch < 0 || info.WALOffset < 0 {
		return nil, errors.New("snapshot corrupt: negative epoch or WAL offset")
	}
	w := form.Weights{
		Title:  math.Float64frombits(word(2)),
		Body:   math.Float64frombits(word(3)),
		Form:   math.Float64frombits(word(4)),
		Option: math.Float64frombits(word(5)),
	}
	m, res, err := icafc.DecodeState(b[snapshotHeaderLen:])
	if err != nil {
		return nil, err
	}
	m.Metrics = o.Metrics
	urls := make([]string, len(m.Pages))
	for i, p := range m.Pages {
		urls[i] = p.URL
	}
	return &loadedSnapshot{corpus: newLoadedCorpus(m, urls, w, o), info: info, result: res}, nil
}
