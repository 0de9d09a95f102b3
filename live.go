package cafc

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	icafc "cafc/internal/cafc"
	"cafc/internal/cluster"
	"cafc/internal/form"
	"cafc/internal/obs/quality"
	"cafc/internal/search"
	"cafc/internal/stream"
)

// LiveConfig configures a live directory: the streaming-ingestion
// pipeline that grows a corpus while it serves. Zero values select the
// defaults noted per field.
type LiveConfig struct {
	// K is the target cluster count (0 = 8).
	K int
	// Seed drives full re-cluster seeding; fixed per Live so WAL replay
	// reproduces the same epochs.
	Seed int64
	// QueueSize bounds the ingest queue (0 = 1024); a full queue makes
	// Ingest fail fast with ErrBacklog.
	QueueSize int
	// BatchSize caps documents per ingest batch (0 = 64).
	BatchSize int
	// FlushInterval bounds how long a partial batch waits (0 = 200ms).
	FlushInterval time.Duration
	// DriftThreshold is the reassignment fraction that triggers a full
	// re-cluster (0 = 0.25; >= 1 disables drift rebuilds).
	DriftThreshold float64
	// Dir, when non-empty, makes the directory durable: ingested
	// batches are WAL-logged there before they are applied, and corpus
	// snapshots checkpoint the stream (final one on Drain, plus every
	// SnapshotEvery records). RecoverLive restarts from the same Dir.
	Dir string
	// SnapshotEvery checkpoints after every N applied WAL records
	// (0 = only on Drain).
	SnapshotEvery int
	// OnPublish observes published epochs (in the ingest worker
	// goroutine, after the atomic swap) — serving layers rebuild their
	// per-epoch artifacts here. NewLive, RecoverLive and RecoverFollower
	// call it once, for the epoch they return at; WAL replay does not
	// publish the epochs it passes through. After that it sees every
	// epoch.
	OnPublish func(*LiveEpoch)
	// Quality, when non-nil, attaches the online quality monitor: every
	// published epoch is measured (sampled silhouette, cluster balance,
	// centroid churn, and — with Labels — entropy/F-measure) and served
	// through Quality/QualityHistory. Attaching a monitor never changes
	// published epochs; it only observes.
	Quality *QualityConfig
	// Search, when non-nil, attaches the retrieval subsystem: an
	// inverted index grown incrementally on each ingest batch and frozen
	// per epoch, served through Live.Search with ranked top-k hits and
	// labeled dynamic facets. Works on leaders and followers alike.
	Search *SearchConfig
	// IngestWorkers shards the per-batch parse/tokenize/embed stage
	// (0 = one per CPU, 1 = the serial reference path). Published epochs
	// are bit-identical for every value, so the knob tunes throughput
	// only.
	IngestWorkers int
	// GroupCommit, when > 0, batches WAL fsyncs: up to this many ingest
	// records buffer in memory and commit under one fsync — at the cap,
	// when the CommitWindow elapses, or on drain/snapshot. A crash loses
	// only buffered (never-acknowledged-durable) records; recovery stays
	// epoch-exact over the durable prefix. Leaders only — followers keep
	// one fsync per replicated frame so their resume offset never trails
	// what they applied.
	GroupCommit int
	// CommitWindow bounds how long a buffered record may wait for its
	// fsync under GroupCommit (0 = FlushInterval).
	CommitWindow time.Duration
}

// QualityConfig configures the online quality monitor attached through
// LiveConfig.Quality. Zero values select the defaults noted per field.
type QualityConfig struct {
	// SampleSize caps the reservoir sample the silhouette is computed
	// over (0 = 256). The monitor caches the similarities between
	// sampled pages (8·SampleSize² bytes, 512 KiB at the default), so an
	// epoch costs O(SampleSize × replaced samples) similarities; the
	// first epoch and every rebuild recompute all SampleSize² of them.
	SampleSize int
	// Seed drives the reservoir RNG (0 = LiveConfig.Seed), making the
	// sample deterministic for a fixed corpus growth.
	Seed int64
	// RingSize bounds the retained snapshot history (0 = 64).
	RingSize int
	// Labels maps page URLs to gold classes; when set, labeled epochs
	// also report the paper's entropy and F-measure.
	Labels map[string]string
}

// QualitySnapshot is one epoch's quality measurement — the element of
// the ring served at /debug/quality.
type QualitySnapshot = quality.Snapshot

// ErrBacklog is returned by Live.Ingest when the bounded ingest queue
// is full — backpressure to surface to the caller (HTTP 429).
var ErrBacklog = stream.ErrBacklog

// ErrDraining is returned by Live.Ingest during shutdown.
var ErrDraining = stream.ErrDraining

// ErrReadOnly is returned by Ingest and ForceRebuild on a follower —
// writes belong on the leader.
var ErrReadOnly = stream.ErrReadOnly

// LiveEpoch is one immutable published model state: a frozen corpus,
// its clustering, and the documents it was built from. Readers may hold
// it indefinitely; later epochs never mutate earlier ones.
type LiveEpoch struct {
	// Epoch numbers published states from 1 (genesis).
	Epoch int64
	// Corpus is the frozen corpus — safe for Similarity, ClusterC etc.,
	// but do not Append to it (grow through Live.Ingest).
	Corpus *Corpus
	// Clustering is the epoch's clustering with per-cluster top terms.
	Clustering *Clustering
	// Docs holds the admitted documents (URL + HTML) in corpus order. The
	// slice is the pipeline's own epoch slice: read it, never modify it.
	Docs []Document
	// Rebuilt marks epochs produced by a full re-cluster (drift or
	// forced) rather than a mini-batch assignment.
	Rebuilt bool
	// SearchLabels are the epoch's per-cluster discriminative labels
	// from the search index (nil without LiveConfig.Search) — available
	// to OnPublish observers even during construction, before the Live
	// handle exists.
	SearchLabels []string
	// SearchIndex is the epoch's frozen search index (nil without
	// LiveConfig.Search). It holds every admitted page's URL, title and
	// cluster, so serving layers render the directory from it instead of
	// re-parsing Docs.
	SearchIndex *SearchSnapshot

	classifier *icafc.Classifier
}

// Classify assigns a document to this epoch's nearest cluster —
// lock-free with respect to ingestion, because the epoch is frozen.
func (e *LiveEpoch) Classify(d Document) (Prediction, bool, error) {
	return classify(e.classifier, d, e.Corpus.weights)
}

// LiveStatus summarizes the live pipeline.
type LiveStatus struct {
	Epoch         int64
	Pages         int
	QueueDepth    int
	QueueCap      int
	Ingested      int64
	Skipped       int64
	Rejected      int64
	Batches       int64
	Rebuilds      int64
	WALRecords    int64
	WALErrors     int64
	DriftFraction float64
	Draining      bool

	// LastPublish is when the current epoch was swapped in (zero before
	// the first publish); EpochAgeSeconds is its age at Status time.
	LastPublish     time.Time
	EpochAgeSeconds float64
	// LastRebuildAt / LastRebuildSeconds record the completion time and
	// wall-clock duration of the most recent full re-cluster.
	LastRebuildAt      time.Time
	LastRebuildSeconds float64
	// IngestWorkers is the resolved parse/embed shard count.
	IngestWorkers int
	// WALPending counts WAL records buffered under group commit but not
	// yet fsynced (0 with group commit off or no durable store).
	WALPending int
	// IngestBusyFraction is the share of wall-clock the ingest worker
	// has spent applying batches since start — ≈1.0 means ingest is
	// saturated and the queue is the next thing to fill.
	IngestBusyFraction float64
	// Recovery says what the restart restored (nil when the directory
	// was started by NewLive).
	Recovery *RecoveryInfo `json:",omitempty"`
}

// Live is a streaming directory: Ingest feeds documents through a
// bounded queue into batch workers that grow the corpus incrementally
// and publish epoch-versioned models; Epoch is the lock-free read side.
type Live struct {
	inner  *stream.Live
	store  *stream.Store
	pub    atomic.Pointer[epochCell]
	qm     *quality.Monitor
	search *searcher

	weights form.Weights
	retry   *Retry
	skip    bool

	// follower marks a read-only replica: no ingest worker runs, Ingest
	// and ForceRebuild fail with ErrReadOnly, and the model advances only
	// through ApplyFrame (driven by a replication tailer).
	follower bool
	dir      string
	// recovery is what RecoverLive or RecoverFollower restored (nil for
	// NewLive).
	recovery *RecoveryInfo
}

// NewLive starts a live directory from an already-built corpus and its
// clustering (the genesis epoch). docs must be the documents the corpus
// was built from — their HTML backs per-epoch content artifacts (the
// directory UI) and, with cfg.Dir set, the WAL's genesis record. A nil
// corpus or an empty one starts cold at epoch 0: the first ingested
// batch founds the model (and /healthz-style readiness should gate on
// Epoch() != nil).
func NewLive(corpus *Corpus, docs []Document, cl *Clustering, cfg LiveConfig, opts ...Options) (*Live, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if corpus == nil {
		var err error
		corpus, err = NewCorpus(nil, o)
		if err != nil {
			return nil, err
		}
	}
	if corpus.Len() > 0 && cl == nil {
		return nil, fmt.Errorf("cafc: NewLive: non-empty corpus needs a genesis clustering")
	}

	l := &Live{}
	scfg, err := l.streamConfig(corpus, cfg)
	if err != nil {
		return nil, err
	}

	if l.store != nil && l.store.RecordCount() > 0 {
		// Reusing a non-empty store for a fresh genesis would fork
		// history; refuse and point the caller at RecoverLive.
		l.store.Close()
		return nil, fmt.Errorf("cafc: NewLive: %s already holds a WAL — use RecoverLive", cfg.Dir)
	}
	var genesis *stream.Epoch
	if corpus.Len() > 0 {
		genesis = genesisEpoch(corpus, docs, cl)
		if l.store != nil {
			if err := l.store.Append(stream.Record{Docs: docs}); err != nil {
				l.store.Close()
				return nil, err
			}
			genesis.WALRecords = 1
			// Snapshot before stream.New starts the worker, so a failure
			// leaves nothing running.
			if err := scfg.SaveSnapshot(genesis); err != nil {
				l.store.Close()
				return nil, err
			}
		}
	}
	l.inner = stream.New(scfg, genesis, nil)
	return l, nil
}

// RecoverLive restarts a durable live directory from cfg.Dir: the
// latest snapshot is loaded, the WAL tail beyond the snapshot's offset
// is replayed through the same batch pipeline, and the result is the
// exact pre-crash epoch. A version 3 snapshot restores the epoch it
// checkpointed as it was served: its model, term records and partition
// (K, assignment, centroids), so recovery runs no k-means and parses no
// HTML, and every later epoch equals the one a directory that never
// stopped would publish. Replay builds every record's epoch (model,
// assignment, drift and rebuild decisions, SnapshotEvery checkpoints)
// but publishes only the last: the search index, the quality monitor
// and cfg.OnPublish see the recovered epoch alone, so the quality
// history starts there. opts re-attach run options (Metrics, Retry),
// as with LoadCorpus. An empty directory starts cold, same as NewLive
// with no corpus.
//
// The snapshot's partition is recomputed (seeded CAFC-C at cfg.K)
// instead when the snapshot is version 1 or 2, which store none, or when
// cfg.K differs from the snapshot's K. Status().Recovery says which
// happened and why.
func RecoverLive(cfg LiveConfig, opts ...Options) (*Live, error) {
	return recoverLive(cfg, false, opts...)
}

// RecoverFollower opens (or resumes) a read-only follower on cfg.Dir:
// recovery is exactly RecoverLive's — snapshot restore, WAL-tail
// replay — but the resulting pipeline has no ingest worker. Records
// arrive only through ApplyFrame, fed by a replication tailer copying
// the leader's WAL verbatim (see internal/repl); Ingest and
// ForceRebuild fail with ErrReadOnly. A follower bootstrapped from a
// leader's version 3 snapshot serves the leader's partition, and
// because the local WAL is a byte-identical prefix of the leader's and
// replay is deterministic, a follower at epoch E equals the leader at
// epoch E.
func RecoverFollower(cfg LiveConfig, opts ...Options) (*Live, error) {
	return recoverLive(cfg, true, opts...)
}

// RecoveryInfo says how RecoverLive or RecoverFollower rebuilt the
// directory's first epoch.
type RecoveryInfo struct {
	// SnapshotVersion and SnapshotBytes describe the snapshot read
	// (0 and 0 when the directory held a WAL but no snapshot).
	SnapshotVersion int
	SnapshotBytes   int64
	// Partition is "restored" when the snapshot's epoch was restored as
	// it was served, "re-clustered" when its partition was recomputed,
	// and "" when there was no snapshot corpus to restore.
	Partition string
	// Reason says why the partition was re-clustered.
	Reason string `json:",omitempty"`
}

func recoverLive(cfg LiveConfig, follower bool, opts ...Options) (*Live, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cafc: RecoverLive: Dir required")
	}
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	// One scan of the WAL serves both the store's open (record count,
	// torn-tail truncation) and the replay below.
	store, recs, err := stream.OpenRecords(cfg.Dir)
	if err != nil {
		return nil, err
	}

	snap := &loadedSnapshot{}
	ri := &RecoveryInfo{}
	if rc, serr := store.OpenSnapshot(); serr == nil {
		cr := &countingReader{r: rc}
		snap, err = loadSnapshot(cr, o)
		if err == nil {
			_, err = io.Copy(io.Discard, cr)
		}
		rc.Close()
		if err != nil {
			store.Close()
			return nil, err
		}
		ri.SnapshotVersion, ri.SnapshotBytes = snap.version, cr.n
	} else if serr != stream.ErrNoSnapshot {
		store.Close()
		return nil, serr
	} else {
		snap.corpus, err = NewCorpus(nil, o)
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	corpus := snap.corpus

	off := int(snap.info.WALOffset)
	if off > len(recs) {
		off = len(recs)
	}

	l := &Live{store: store, follower: follower, recovery: ri}
	scfg := l.streamConfigWithStore(corpus, cfg, store)

	var genesis *stream.Epoch
	if corpus.Len() > 0 {
		// Documents covered by the snapshot contribute their HTML from
		// the WAL prefix; the model itself comes from the snapshot.
		docs := matchDocs(corpus.urls, recs[:off])
		res := snap.result
		switch {
		case res == nil:
			ri.Reason = fmt.Sprintf("snapshot v%d carries no partition", snap.version)
		case res.K != scfg.K:
			ri.Reason = fmt.Sprintf("snapshot has k=%d, configured k=%d", res.K, scfg.K)
		}
		m := corpus.model
		if ri.Reason == "" {
			ri.Partition = "restored"
		} else {
			ri.Partition = "re-clustered"
			withRecords(m, docs, corpus.weights)
			r := icafc.CAFCC(m, scfg.K, rand.New(rand.NewSource(cfg.Seed+1)))
			res = &r
		}
		genesis = &stream.Epoch{
			Seq:        max64(snap.info.Epoch, 1),
			Model:      m,
			Result:     *res,
			Docs:       docs,
			WALRecords: int64(off),
		}
	}
	if follower {
		l.inner = stream.NewManual(scfg, genesis, recs[off:])
	} else {
		l.inner = stream.New(scfg, genesis, recs[off:])
	}
	return l, nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// withRecords gives each page of m that lacks a term record one parsed
// from its document's HTML (pages of a version 1 or 2 snapshot, or of a
// corpus loaded from one); docs are the model's documents in page order.
// It replaces those entries of m.Pages and leaves the old pages, which
// other models may share, as they are. A page whose HTML is missing or
// admits no form stays without a record.
func withRecords(m *icafc.Model, docs []stream.Doc, w form.Weights) {
	for i, p := range m.Pages {
		if p.Rec != nil || i >= len(docs) {
			continue
		}
		if fp, err := form.Parse(p.URL, docs[i].HTML, w); err == nil {
			m.Pages[i] = &icafc.Page{URL: p.URL, PC: p.PC, FC: p.FC, Rec: icafc.NewRecord(fp)}
		}
	}
}

// ApplyFrame (followers only) appends one replicated WAL frame to the
// local store verbatim, then applies its record through the batch
// pipeline without re-logging it. This is cafc.Live's implementation of
// the replication target: the tailer in internal/repl calls it for each
// frame pulled off the leader.
func (l *Live) ApplyFrame(f stream.Frame) error {
	if !l.follower {
		return fmt.Errorf("cafc: ApplyFrame: not a follower")
	}
	if l.store != nil {
		if err := l.store.AppendFrame(f); err != nil {
			return err
		}
	}
	return l.inner.ApplyReplicated(f.Rec)
}

// WALRecords returns the local WAL's intact record count (0 without a
// durable store) — the replication tail position.
func (l *Live) WALRecords() int64 {
	if l.store == nil {
		return 0
	}
	return l.store.RecordCount()
}

// AppliedEpoch returns the latest published epoch number (0 while
// cold).
func (l *Live) AppliedEpoch() int64 {
	if e := l.inner.Current(); e != nil {
		return e.Seq
	}
	return 0
}

// StateDir returns the durable state directory ("" when memory-only).
func (l *Live) StateDir() string { return l.dir }

// streamConfig opens the store named by cfg.Dir (if any) and builds the
// internal stream configuration.
func (l *Live) streamConfig(corpus *Corpus, cfg LiveConfig) (stream.Config, error) {
	var store *stream.Store
	if cfg.Dir != "" {
		var err error
		store, err = stream.Open(cfg.Dir)
		if err != nil {
			return stream.Config{}, err
		}
	}
	return l.streamConfigWithStore(corpus, cfg, store), nil
}

func (l *Live) streamConfigWithStore(corpus *Corpus, cfg LiveConfig, store *stream.Store) stream.Config {
	l.store = store
	l.dir = cfg.Dir
	l.weights = corpus.weights
	l.retry = corpus.retry
	l.skip = corpus.skipNonSearchable
	k := cfg.K
	if k == 0 {
		k = 8
	}
	scfg := stream.Config{
		K:              k,
		Seed:           cfg.Seed,
		QueueSize:      cfg.QueueSize,
		BatchSize:      cfg.BatchSize,
		FlushInterval:  cfg.FlushInterval,
		DriftThreshold: cfg.DriftThreshold,
		Weights:        corpus.weights,
		Uniform:        corpus.model.Uniform,
		Metrics:        corpus.model.Metrics,
		Store:          store,
		SnapshotEvery:  cfg.SnapshotEvery,
		IngestWorkers:  cfg.IngestWorkers,
		CommitWindow:   cfg.CommitWindow,
	}
	if !l.follower {
		// Group commit is leader-only (the stream layer enforces this for
		// manual pipelines too): a follower's durable record count is its
		// replication resume offset and must never lag what it applied.
		scfg.GroupCommit = cfg.GroupCommit
	}
	if store != nil {
		scfg.SaveSnapshot = func(e *stream.Epoch) error {
			c := wrapCorpus(e, l.weights, l.retry, l.skip)
			return store.WriteSnapshot(func(w io.Writer) error {
				return c.saveSnapshot(w, SnapshotInfo{Epoch: e.Seq, WALOffset: e.WALRecords}, &e.Result)
			})
		}
	}
	if q := cfg.Quality; q != nil {
		seed := q.Seed
		if seed == 0 {
			seed = cfg.Seed
		}
		l.qm = quality.New(quality.Config{
			SampleSize: q.SampleSize,
			Seed:       seed,
			RingSize:   q.RingSize,
			Labels:     q.Labels,
			Metrics:    corpus.model.Metrics,
		})
	}
	if sc := cfg.Search; sc != nil {
		l.search = &searcher{
			b:    search.NewBuilder(corpus.model.Metrics),
			opts: search.Options{MaxK: sc.MaxK, CacheSize: sc.CacheSize, MaxFacets: sc.MaxFacets},
		}
	}
	scfg.OnPublish = func(e *stream.Epoch) {
		// Index before the swap so Epoch() == E implies the search
		// snapshot is already at E — no torn reads across the two views.
		var snap *search.Snapshot
		if l.search != nil {
			l.search.sync(e)
			snap = l.search.snap.Load()
		}
		// The expensive public view (URL slice, clustering maps,
		// top-term labels, classifier — all O(corpus)) materializes on
		// the first Epoch() read: during bulk ingest most epochs are
		// superseded before anyone looks at them. A configured OnPublish
		// hook receives that view, so with a hook (directoryd always sets
		// one) the worker builds it below for every epoch. ROADMAP's
		// "Make epoch construction actually O(batch)" item tracks this.
		cell := &epochCell{conv: func() *LiveEpoch {
			le := convertEpoch(e, l.weights, l.retry, l.skip)
			if snap != nil {
				le.SearchLabels = snap.ClusterLabels()
				le.SearchIndex = snap
			}
			return le
		}}
		l.pub.Store(cell)
		if l.qm != nil {
			l.qm.ObserveEpoch(qualityEpoch(e), time.Now())
		}
		if cfg.OnPublish != nil {
			cfg.OnPublish(cell.get())
		}
	}
	return scfg
}

// epochCell defers convertEpoch until a reader actually wants the
// epoch. The once makes materialization safe under concurrent Epoch()
// readers; conv is dropped after it runs so the closure's captures
// (beyond the epoch itself) are not pinned.
type epochCell struct {
	once sync.Once
	conv func() *LiveEpoch
	le   *LiveEpoch
}

func (c *epochCell) get() *LiveEpoch {
	c.once.Do(func() {
		c.le = c.conv()
		c.conv = nil
	})
	return c.le
}

// qualityEpoch adapts a published stream epoch into the monitor's view.
// Everything handed over is frozen: the model, the assignment and the
// centroids never mutate after publish. The monitor's similarity cache
// relies on the quality.Epoch contract, which the stream meets: an
// appended epoch shares every earlier page's packed vectors, and only a
// re-cluster, which sets Rebuilt, re-embeds them.
func qualityEpoch(e *stream.Epoch) quality.Epoch {
	return quality.Epoch{
		Seq:       e.Seq,
		Space:     e.Model,
		Assign:    e.Result.Assign,
		K:         e.Result.K,
		Centroids: e.Result.Centroids,
		Rebuilt:   e.Rebuilt,
		URL:       func(i int) string { return e.Model.Pages[i].URL },
	}
}

// Ingest offers one document to the stream; it never blocks (ErrBacklog
// on a full queue, ErrDraining during shutdown).
func (l *Live) Ingest(d Document) error {
	return l.inner.Ingest(d)
}

// Epoch returns the latest published epoch, or nil before the first
// model exists (cold start). The read is an atomic pointer load; the
// conversion (clustering view, top-term labels, classifier) runs once
// on the first read of each epoch and is cached.
func (l *Live) Epoch() *LiveEpoch {
	c := l.pub.Load()
	if c == nil {
		return nil
	}
	return c.get()
}

// ForceRebuild schedules a full re-cluster (WAL-logged, so replay
// reproduces it).
func (l *Live) ForceRebuild() error { return l.inner.ForceRebuild() }

// Status summarizes the pipeline.
func (l *Live) Status() LiveStatus {
	s := l.inner.Status()
	ls := LiveStatus{
		Epoch:              s.Epoch,
		Pages:              s.Pages,
		QueueDepth:         s.QueueDepth,
		QueueCap:           s.QueueCap,
		Ingested:           s.Ingested,
		Skipped:            s.Skipped,
		Rejected:           s.Rejected,
		Batches:            s.Batches,
		Rebuilds:           s.Rebuilds,
		WALRecords:         s.WALRecords,
		WALErrors:          s.WALErrors,
		DriftFraction:      s.DriftFraction,
		Draining:           s.Draining,
		LastPublish:        s.LastPublish,
		LastRebuildAt:      s.LastRebuildAt,
		LastRebuildSeconds: s.LastRebuildSeconds,
		IngestWorkers:      s.IngestWorkers,
		WALPending:         s.WALPending,
		IngestBusyFraction: s.IngestBusyFraction,
	}
	if l.recovery != nil {
		r := *l.recovery
		ls.Recovery = &r
	}
	if !ls.LastPublish.IsZero() {
		ls.EpochAgeSeconds = time.Since(ls.LastPublish).Seconds()
	}
	return ls
}

// Quality returns the latest quality snapshot (ok=false without a
// configured monitor or before the first published epoch).
func (l *Live) Quality() (QualitySnapshot, bool) {
	if l.qm == nil {
		return QualitySnapshot{}, false
	}
	return l.qm.Latest()
}

// QualityHistory returns the retained quality snapshots, oldest first
// (nil without a configured monitor).
func (l *Live) QualityHistory() []QualitySnapshot {
	if l.qm == nil {
		return nil
	}
	return l.qm.Snapshots()
}

// Drain gracefully shuts the pipeline down: intake stops (Ingest fails
// with ErrDraining), queued documents flush through the batch path, a
// final snapshot checkpoints the stream (with cfg.Dir), and the worker
// exits. Bounded by ctx.
func (l *Live) Drain(ctx context.Context) error {
	err := l.inner.Drain(ctx)
	if l.store != nil {
		if cerr := l.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Close hard-stops the pipeline as a crash would: queued documents are
// dropped, buffered group-commit records are not committed, and no
// final snapshot is written, so the next RecoverLive replays every WAL
// record since the last snapshot. Applied batches outside group commit
// are already WAL-durable.
func (l *Live) Close() {
	l.inner.Close()
	if l.store != nil {
		l.store.Close()
	}
}

// genesisEpoch reconstructs the internal clustering result from a
// public Clustering and freezes the corpus state as epoch 1.
func genesisEpoch(c *Corpus, docs []Document, cl *Clustering) *stream.Epoch {
	assign := make([]int, len(c.urls))
	for i, u := range c.urls {
		if a, ok := cl.Assign[u]; ok {
			assign[i] = a
		} else {
			assign[i] = -1
		}
	}
	k := len(cl.Clusters)
	members := cluster.Members(assign, k)
	centroids := make([]cluster.Point, k)
	for i := range centroids {
		centroids[i] = c.model.Centroid(members[i])
	}
	sdocs := matchDocList(c.urls, docs)
	m := c.model.Clone()
	withRecords(m, sdocs, c.weights)
	return &stream.Epoch{
		Seq:    1,
		Model:  m,
		Result: cluster.Result{Assign: assign, K: k, Centroids: centroids},
		Docs:   sdocs,
	}
}

// convertEpoch wraps an internal epoch in the public types, including a
// ready-to-use nearest-centroid classifier labelled with each cluster's
// top terms.
func convertEpoch(e *stream.Epoch, w form.Weights, r *Retry, skip bool) *LiveEpoch {
	c := wrapCorpus(e, w, r, skip)
	cl := c.newClustering(e.Result)
	labels := make([]string, len(cl.TopTerms))
	for i, terms := range cl.TopTerms {
		labels[i] = strings.Join(terms, " ")
	}
	return &LiveEpoch{
		Epoch:      e.Seq,
		Corpus:     c,
		Clustering: cl,
		Docs:       e.Docs,
		Rebuilt:    e.Rebuilt,
		classifier: icafc.NewClassifierFromCentroids(e.Model, e.Result.Centroids, labels),
	}
}

// wrapCorpus views an epoch's frozen model as a public Corpus.
func wrapCorpus(e *stream.Epoch, w form.Weights, r *Retry, skip bool) *Corpus {
	urls := make([]string, len(e.Model.Pages))
	for i, p := range e.Model.Pages {
		urls[i] = p.URL
	}
	return &Corpus{model: e.Model, urls: urls, weights: w, retry: r, skipNonSearchable: skip}
}

// matchDocs recovers the admitted documents for a model's URL sequence
// from WAL records: documents are matched in order against the URLs, so
// skipped (non-searchable) WAL entries fall out exactly as the original
// admission decided.
func matchDocs(urls []string, recs []stream.Record) []stream.Doc {
	out := make([]stream.Doc, 0, len(urls))
	i := 0
	for _, rec := range recs {
		for _, d := range rec.Docs {
			if i < len(urls) && d.URL == urls[i] {
				out = append(out, d)
				i++
			}
		}
	}
	// URLs with no WAL backing (snapshot-only corpora) keep an empty
	// HTML body; the model still serves them.
	for ; i < len(urls); i++ {
		out = append(out, stream.Doc{URL: urls[i]})
	}
	return out
}

// matchDocList aligns caller-provided documents with the admitted URL
// order, dropping skipped ones.
func matchDocList(urls []string, docs []Document) []stream.Doc {
	byURL := make(map[string]string, len(docs))
	for _, d := range docs {
		byURL[d.URL] = d.HTML
	}
	out := make([]stream.Doc, len(urls))
	for i, u := range urls {
		out[i] = stream.Doc{URL: u, HTML: byURL[u]}
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
