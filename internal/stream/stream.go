package stream

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	icafc "cafc/internal/cafc"
	"cafc/internal/cluster"
	"cafc/internal/form"
	"cafc/internal/obs"
	"cafc/internal/retry"
	"cafc/internal/vector"
)

// Config configures a Live ingester. The zero value of every optional
// field selects the default noted per field; K is required.
type Config struct {
	// K is the target cluster count (clamped to the corpus size while
	// the corpus is smaller).
	K int
	// Seed drives the k-means seeding of full re-clusters. It is fixed
	// per Live so that replaying the same WAL reproduces the same
	// epochs.
	Seed int64
	// QueueSize bounds the ingest queue (0 = 1024). A full queue makes
	// Ingest fail fast with ErrBacklog — backpressure the HTTP layer
	// turns into 429s instead of unbounded memory growth.
	QueueSize int
	// BatchSize caps how many documents one batch absorbs (0 = 64).
	BatchSize int
	// FlushInterval bounds how long a partial batch waits for more
	// documents (0 = 200ms).
	FlushInterval time.Duration
	// DriftThreshold is the reassignment fraction above which a batch
	// triggers a full re-cluster (0 = 0.25; >= 1 disables). After each
	// mini-batch assignment the worker re-scores every page against the
	// current centroids; when more than this fraction would move, the
	// incremental model has drifted from its clustering and the epoch
	// is rebuilt from scratch (re-embed + fresh k-means).
	DriftThreshold float64
	// Weights are the LOC factors used to parse ingested documents.
	// The zero value selects form.DefaultWeights.
	Weights form.Weights
	// Uniform disables location differentiation for ingested pages
	// (must match the model being grown).
	Uniform bool
	// Metrics receives stream telemetry (queue depth, batch latency,
	// epoch gauge, drift fraction, rebuild and WAL counters). Nil
	// disables instrumentation.
	Metrics *obs.Registry
	// Store, when non-nil, makes ingestion durable: batches are WAL
	// appended before they are applied, and SaveSnapshot checkpoints
	// the corpus.
	Store *Store
	// SaveSnapshot persists an epoch's corpus (the stream layer cannot
	// encode the public snapshot format itself — the caller injects
	// it). Called on Drain and every SnapshotEvery batches. Nil skips
	// snapshotting.
	SaveSnapshot func(e *Epoch) error
	// SnapshotEvery checkpoints after every N applied records
	// (0 = only on Drain).
	SnapshotEvery int
	// OnPublish observes published epochs, in the worker goroutine,
	// after the atomic swap. Serving layers use it to rebuild per-epoch
	// artifacts (directory UI, classifier labels). Construction (New,
	// NewManual) calls it once, for the epoch it ends on — the genesis,
	// or the last epoch WAL replay produced — not for each replayed
	// epoch; after that it sees every epoch.
	OnPublish func(*Epoch)
	// IngestWorkers shards the per-batch parse/tokenize/embed stage
	// (0 = one per CPU, 1 = the serial reference path). Workers fill
	// index-addressed slots and a serial merge preserves document
	// order, so published epochs are bit-identical for every value —
	// the same fan-out contract as the model build.
	IngestWorkers int
	// GroupCommit, when > 0, switches the Store into group-commit mode
	// with this pending-record cap: WAL appends buffer in memory and
	// fsync together — behind the bounded CommitWindow, at the cap, or
	// on drain/snapshot. 0 (default) keeps one fsync per record.
	// Recovery stays epoch-exact over the durable prefix; a crash loses
	// only buffered records, which were never acknowledged as durable.
	// Leaders only: follower stores must sync per applied frame so
	// their replication resume offset never trails what they applied.
	GroupCommit int
	// CommitWindow bounds how long a buffered record may wait for an
	// fsync in group-commit mode (0 = FlushInterval). The worker checks
	// the window after every batch and on every ticker tick.
	CommitWindow time.Duration
	// Clock drives the group-commit window policy (nil = system
	// clock). A fault.FakeClock here makes commit timing — and with it
	// mid-group-commit crash tests — deterministic.
	Clock retry.Clock
}

func (c Config) withDefaults() Config {
	if c.QueueSize == 0 {
		c.QueueSize = 1024
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 200 * time.Millisecond
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.25
	}
	if c.Weights == (form.Weights{}) {
		c.Weights = form.DefaultWeights
	}
	if c.CommitWindow == 0 {
		c.CommitWindow = c.FlushInterval
	}
	if c.Clock == nil {
		c.Clock = retry.System
	}
	return c
}

// ingestWorkers resolves the configured shard count.
func (c Config) ingestWorkers() int {
	if c.IngestWorkers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.IngestWorkers
}

// Epoch is one immutable published model state. Everything reachable
// from an Epoch is frozen: the model, the clustering result and the
// document list are never mutated after publish, so any number of
// readers may use them without locks while later epochs build.
type Epoch struct {
	// Seq numbers epochs from 1 (genesis). It advances by exactly one
	// per applied WAL record, which is what makes recovery land on the
	// pre-crash epoch.
	Seq int64
	// Model is the frozen form-page model.
	Model *icafc.Model
	// Result is the clustering over Model (assignments + centroids).
	Result cluster.Result
	// Docs holds the admitted documents in model order (URL + HTML),
	// so serving layers can rebuild content artifacts per epoch.
	//
	// Docs is append-only across epochs: each published epoch's Docs is
	// a strict prefix-extension of the previous epoch's — documents are
	// never reordered or dropped, on batch epochs and rebuild epochs
	// alike. Incremental consumers (the search index appends only
	// Docs[len(previous):] per publish) depend on this invariant.
	Docs []Doc
	// Rebuilt marks epochs produced by a full re-cluster rather than a
	// mini-batch assignment.
	Rebuilt bool
	// WALRecords is the number of WAL records this epoch reflects.
	WALRecords int64
}

// Status is a point-in-time summary of the live pipeline.
type Status struct {
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
	// the first publish) — its age tells an operator how stale the
	// serving model is.
	LastPublish time.Time
	// LastRebuildAt is when the last full re-cluster finished, and
	// LastRebuildSeconds how long it took wall-clock (both zero until
	// the first rebuild). A rebuild storm shows up here without
	// scraping Prometheus.
	LastRebuildAt      time.Time
	LastRebuildSeconds float64
	// IngestWorkers is the resolved parse/embed shard count.
	IngestWorkers int
	// WALPending counts records buffered under group commit but not
	// yet fsynced (0 when group commit is off or no store is attached).
	WALPending int
	// IngestBusyFraction is the share of wall-clock the batch worker
	// has spent inside apply since the pipeline started — the
	// ingest-worker saturation signal (≈1.0 means ingest is
	// CPU-bound and the queue is the next thing to fill).
	IngestBusyFraction float64
}

// ErrBacklog is returned by Ingest when the bounded queue is full —
// the backpressure signal.
var ErrBacklog = errors.New("stream: ingest queue full")

// ErrDraining is returned by Ingest once Drain has begun.
var ErrDraining = errors.New("stream: draining")

// ErrReadOnly is returned by Ingest and ForceRebuild on a manual
// (replica) pipeline — writes belong on the leader.
var ErrReadOnly = errors.New("stream: read-only replica")

// Live is the online ingestion pipeline: Ingest enqueues, a single
// worker batches, grows the model, and publishes epochs; Current is the
// lock-free read side.
type Live struct {
	cfg   Config
	cur   atomic.Pointer[Epoch]
	queue chan Doc
	stop  chan struct{}
	force chan struct{}
	wg    sync.WaitGroup

	draining  atomic.Bool
	graceful  atomic.Bool
	ingested  atomic.Int64
	skipped   atomic.Int64
	rejected  atomic.Int64
	batches   atomic.Int64
	rebuilds  atomic.Int64
	walErrors atomic.Int64
	driftBits atomic.Uint64

	// startNano/busyNano measure worker saturation: busyNano
	// accumulates wall time spent inside apply, so busy/(now-start) is
	// the fraction of the pipeline's life the worker was working.
	startNano atomic.Int64
	busyNano  atomic.Int64

	lastPublishNano    atomic.Int64
	lastRebuildNano    atomic.Int64
	lastRebuildDurNano atomic.Int64

	stopOnce sync.Once

	// manual marks a pipeline with no batch worker: records arrive
	// through Apply/ApplyReplicated from a single caller-owned goroutine
	// (a replication tailer), and Ingest/ForceRebuild fail with
	// ErrReadOnly. The read side is unchanged — epochs still publish
	// through the atomic pointer.
	manual bool

	// replaying is set while the constructor stores the genesis and the
	// replayed epochs: publish skips OnPublish, which then runs once for
	// the last of them. replayModel is the model replay built, which
	// buildEpoch grows in place with its documents. Both are written
	// only before the worker starts.
	replaying   bool
	replayModel *icafc.Model

	// simsBuf/scratchBuf are miniBatch's reusable scoring buffers. Only
	// the single worker goroutine touches them, so plain fields suffice;
	// they keep the per-point indexed scoring loop allocation-free.
	simsBuf    []float64
	scratchBuf []float64
	// pacc/facc are the pooled centroid accumulators for miniBatch's
	// touched-cluster refresh — two vocabulary-sized arrays reused
	// across every refreshed centroid of every batch instead of
	// allocated per centroid. Worker-goroutine-only, like the buffers
	// above; CentroidWith resets them on every Compile, so reuse is
	// bit-identical to fresh allocation.
	pacc, facc *vector.Accumulator
	// rescan holds the last drift rescan's page × centroid similarities,
	// row-major (page i's k scores at [i*k, (i+1)*k)), and rescanSeq the
	// epoch whose centroids and pages they score (0 = none). An epoch
	// built any other way — genesis, a rebuild, a mini-batch drift
	// discarded, an all-skipped record — leaves it invalid.
	// Worker-goroutine-only.
	rescan    []float64
	rescanSeq int64
}

// New builds a Live pipeline, applies any pending WAL records through
// the batch path synchronously (recovery replay), and starts the
// worker.
//
// genesis, when non-nil, is the first epoch replay builds on; it must
// already be reflected in the WAL (the caller owns genesis durability,
// because only the caller knows whether this is a fresh start or a
// recovery). A nil genesis starts cold at epoch 0 — the first ingested
// batch founds the model. Replay builds one epoch per record exactly as
// the live path does, but only the epoch it ends on reaches OnPublish.
func New(cfg Config, genesis *Epoch, pending []Record) *Live {
	l := newLive(cfg, genesis, pending, false)
	l.wg.Add(1)
	go l.run()
	return l
}

// NewManual builds a Live pipeline with no batch worker: genesis and
// replay behave exactly as in New, but afterwards records advance the
// model only through Apply/ApplyReplicated, driven synchronously by one
// caller-owned goroutine. This is the follower's engine — a replication
// tailer feeds it the leader's WAL records — and the chaos suite's,
// because every state change happens inside a plain function call.
func NewManual(cfg Config, genesis *Epoch, pending []Record) *Live {
	return newLive(cfg, genesis, pending, true)
}

func newLive(cfg Config, genesis *Epoch, pending []Record, manual bool) *Live {
	cfg = cfg.withDefaults()
	l := &Live{
		cfg:    cfg,
		queue:  make(chan Doc, cfg.QueueSize),
		stop:   make(chan struct{}),
		force:  make(chan struct{}, 1),
		manual: manual,
	}
	l.startNano.Store(time.Now().UnixNano())
	if cfg.Store != nil {
		cfg.Store.Instrument(cfg.Metrics)
		// Group commit is a leader-only optimization: a manual
		// (follower/replica) pipeline must keep its durable record
		// count in lockstep with what it applied, because that count is
		// its replication resume offset — buffered frames would be
		// re-fetched and double-applied after the gap closed.
		if !manual && cfg.GroupCommit > 0 {
			cfg.Store.SetGroupCommit(cfg.GroupCommit)
		}
	}
	cfg.Metrics.Gauge("stream_queue_capacity").Set(float64(cfg.QueueSize))
	// No reader can see an epoch before the constructor returns, so the
	// genesis and every replayed epoch are stored without notifying, and
	// OnPublish runs once, for the epoch construction ends on.
	l.replaying = true
	if genesis != nil {
		l.publish(genesis)
	}
	for _, rec := range pending {
		l.apply(rec, true)
		if reg := cfg.Metrics; reg != nil {
			reg.Counter("stream_replayed_records_total").Inc()
		}
	}
	l.replaying, l.replayModel = false, nil
	if e := l.cur.Load(); e != nil && cfg.OnPublish != nil {
		cfg.OnPublish(e)
	}
	return l
}

// Apply runs one record through the batch pipeline synchronously,
// WAL-logging it first when a Store is configured. Manual pipelines
// only; the caller owns single-goroutine discipline.
func (l *Live) Apply(rec Record) error {
	if !l.manual {
		return errors.New("stream: Apply requires a manual pipeline")
	}
	if l.draining.Load() {
		return ErrDraining
	}
	l.apply(rec, false)
	return nil
}

// ApplyReplicated runs one already-durable record through the batch
// pipeline synchronously, skipping the local WAL write — the follower
// path, where the replication layer appended the leader's frame to the
// local WAL verbatim before applying it. Manual pipelines only.
func (l *Live) ApplyReplicated(rec Record) error {
	if !l.manual {
		return errors.New("stream: ApplyReplicated requires a manual pipeline")
	}
	if l.draining.Load() {
		return ErrDraining
	}
	l.apply(rec, true)
	return nil
}

// Current returns the latest published epoch (nil before the first
// publish). Lock-free: an atomic pointer load.
func (l *Live) Current() *Epoch { return l.cur.Load() }

// Ingest offers one document to the stream. It never blocks: a full
// queue fails with ErrBacklog, a draining pipeline with ErrDraining.
func (l *Live) Ingest(d Doc) error {
	if l.manual {
		return ErrReadOnly
	}
	if l.draining.Load() {
		return ErrDraining
	}
	select {
	case l.queue <- d:
		l.noteQueueDepth()
		return nil
	default:
		l.rejected.Add(1)
		l.cfg.Metrics.Counter("stream_rejected_docs_total").Inc()
		return ErrBacklog
	}
}

// ForceRebuild schedules a full re-cluster (re-embed every page against
// the final DF tables, then fresh k-means). The rebuild is WAL-logged
// as a marker record, so replay reproduces it. Coalesced: a rebuild
// already scheduled absorbs later requests.
func (l *Live) ForceRebuild() error {
	if l.manual {
		return ErrReadOnly
	}
	if l.draining.Load() {
		return ErrDraining
	}
	select {
	case l.force <- struct{}{}:
	default:
	}
	return nil
}

// noteQueueDepth refreshes the queue depth and saturation gauges.
func (l *Live) noteQueueDepth() {
	if l.cfg.Metrics == nil {
		return
	}
	depth := len(l.queue)
	l.cfg.Metrics.Gauge("stream_queue_depth").Set(float64(depth))
	l.cfg.Metrics.Gauge("stream_queue_saturation").Set(float64(depth) / float64(l.cfg.QueueSize))
}

// Status summarizes the pipeline.
func (l *Live) Status() Status {
	s := Status{
		QueueDepth:    len(l.queue),
		QueueCap:      l.cfg.QueueSize,
		Ingested:      l.ingested.Load(),
		Skipped:       l.skipped.Load(),
		Rejected:      l.rejected.Load(),
		Batches:       l.batches.Load(),
		Rebuilds:      l.rebuilds.Load(),
		WALErrors:     l.walErrors.Load(),
		DriftFraction: math.Float64frombits(l.driftBits.Load()),
		Draining:      l.draining.Load(),
	}
	if e := l.cur.Load(); e != nil {
		s.Epoch = e.Seq
		s.Pages = e.Model.Len()
		s.WALRecords = e.WALRecords
	}
	if ns := l.lastPublishNano.Load(); ns != 0 {
		s.LastPublish = time.Unix(0, ns)
	}
	if ns := l.lastRebuildNano.Load(); ns != 0 {
		s.LastRebuildAt = time.Unix(0, ns)
		s.LastRebuildSeconds = time.Duration(l.lastRebuildDurNano.Load()).Seconds()
	}
	s.IngestWorkers = l.cfg.ingestWorkers()
	if l.cfg.Store != nil {
		s.WALPending = l.cfg.Store.Pending()
	}
	if elapsed := time.Now().UnixNano() - l.startNano.Load(); elapsed > 0 {
		f := float64(l.busyNano.Load()) / float64(elapsed)
		if f > 1 {
			f = 1
		}
		s.IngestBusyFraction = f
	}
	return s
}

// Drain stops intake, flushes every queued document through the batch
// pipeline, writes a final snapshot, and stops the worker. Ingest
// fails with ErrDraining from the first call on. Returns once the
// worker has exited or ctx expires. A failed snapshot counts in
// stream_snapshot_errors_total, not in Status.WALErrors: the WAL is
// flushed first and recovery replays it, so nothing is lost.
func (l *Live) Drain(ctx context.Context) error {
	l.draining.Store(true)
	l.graceful.Store(true)
	l.stopOnce.Do(func() { close(l.stop) })
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// A manual pipeline has no worker to run the graceful stop path, so
	// Drain flushes the WAL and writes the final snapshot inline.
	if l.manual && l.cfg.Store != nil {
		if err := l.cfg.Store.Flush(); err != nil {
			l.walErrors.Add(1)
			l.cfg.Metrics.Counter("stream_wal_errors_total").Inc()
		}
	}
	if l.manual && l.cfg.SaveSnapshot != nil {
		if e := l.cur.Load(); e != nil {
			if err := l.cfg.SaveSnapshot(e); err != nil {
				l.cfg.Metrics.Counter("stream_snapshot_errors_total").Inc()
				return err
			}
		}
	}
	return nil
}

// Close hard-stops the worker without flushing the queue, committing
// buffered group-commit records or writing a final snapshot — the
// crash-simulation path (tests kill a Live this way to exercise WAL
// recovery, which then replays every record since the last snapshot).
// Durability holds regardless: every applied batch outside group
// commit was WAL-synced before it was acknowledged.
func (l *Live) Close() {
	l.draining.Store(true)
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
}

// run is the single batch worker.
func (l *Live) run() {
	defer l.wg.Done()
	ticker := time.NewTicker(l.cfg.FlushInterval)
	defer ticker.Stop()
	var batch []Doc
	flush := func() {
		if len(batch) > 0 {
			l.apply(Record{Docs: batch}, false)
			batch = nil
		}
	}

	// Group-commit window policy, clock-seamed for determinism: after
	// every batch and on every ticker tick, kick the background
	// committer once the oldest pending record has waited CommitWindow.
	// The kick is asynchronous — the fsync of batch N overlaps the
	// parse/embed of batch N+1 — and the pending cap is enforced
	// inline by the Store itself. With a frozen fault.FakeClock the
	// window never elapses, which is how the crash-recovery test holds
	// records in the pending buffer deterministically.
	lastCommit := l.cfg.Clock.Now()
	maybeCommit := func() {
		st := l.cfg.Store
		if st == nil || st.GroupCommit() <= 0 {
			return
		}
		if st.Pending() == 0 {
			lastCommit = l.cfg.Clock.Now()
			return
		}
		if l.cfg.Clock.Now().Sub(lastCommit) >= l.cfg.CommitWindow {
			st.RequestCommit()
			lastCommit = l.cfg.Clock.Now()
		}
	}

	for {
		select {
		case d := <-l.queue:
			l.noteQueueDepth()
			batch = append(batch, d)
			if len(batch) >= l.cfg.BatchSize {
				flush()
			}
			maybeCommit()
		case <-l.force:
			flush()
			l.apply(Record{}, false)
			maybeCommit()
		case <-ticker.C:
			flush()
			maybeCommit()
		case <-l.stop:
			// Graceful drain (Drain) and hard stop (Close) share the
			// stop channel. Close keeps crash semantics: the queue, the
			// partial batch and any buffered group-commit records are
			// abandoned, and no final snapshot is written, exactly as a
			// real crash would leave them — which is what the recovery
			// tests simulate.
			if !l.graceful.Load() {
				return
			}
			for {
				select {
				case d := <-l.queue:
					batch = append(batch, d)
					if len(batch) >= l.cfg.BatchSize {
						flush()
					}
					continue
				default:
				}
				break
			}
			flush()
			// Drain makes every accepted record durable before the final
			// snapshot and the worker's exit.
			if l.cfg.Store != nil {
				if err := l.cfg.Store.Flush(); err != nil {
					l.walErrors.Add(1)
					l.cfg.Metrics.Counter("stream_wal_errors_total").Inc()
				}
			}
			if l.cfg.SaveSnapshot != nil {
				if e := l.cur.Load(); e != nil {
					if err := l.cfg.SaveSnapshot(e); err != nil {
						l.cfg.Metrics.Counter("stream_snapshot_errors_total").Inc()
					}
				}
			}
			return
		}
	}
}

// parseMillisBuckets grade the per-batch parse stage from sub-ms
// partial batches to multi-second million-page prep runs.
var parseMillisBuckets = []float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// ParseDocs runs the sharded parse/tokenize stage over docs: each shard
// worker parses its index range with a pooled parser (warm tokenizer
// memo), writing into index-addressed slots, and the serial merge
// preserves document order — so the admitted sequence, and with it
// every downstream epoch, is bit-identical to a serial parse for every
// worker count. Slots for unparseable documents come back nil.
func ParseDocs(docs []Doc, w form.Weights, workers int) []*form.FormPage {
	parsed := make([]*form.FormPage, len(docs))
	cluster.ParallelRange(len(docs), workers, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			fp, err := form.Parse(docs[i].URL, docs[i].HTML, w)
			if err == nil {
				parsed[i] = fp
			}
		}
	})
	return parsed
}

// apply runs one WAL record through the pipeline: parse, (on the live
// path) log to the WAL, grow or rebuild the model, publish the next
// epoch. replay=true skips WAL writes — the record is already durable.
func (l *Live) apply(rec Record, replay bool) {
	reg := l.cfg.Metrics
	if rec.IsRebuild() && l.cur.Load() == nil {
		return // nothing to rebuild before the first model exists
	}
	t0 := time.Now()
	defer func() { l.busyNano.Add(int64(time.Since(t0))) }()
	batchHist := reg.Histogram("stream_ingest_batch_seconds", obs.DurationBuckets)

	// Parse first: a batch of unparseable pages must still be WAL-logged
	// (replay must re-skip them) but publishes an epoch only if it
	// changed anything or forced a rebuild. The parse stage shards
	// across IngestWorkers; the merge below runs serially in document
	// order, so admission order is worker-count-independent.
	var fps []*form.FormPage
	var admitted []Doc
	if len(rec.Docs) > 0 {
		pt0 := time.Now()
		parsed := ParseDocs(rec.Docs, l.cfg.Weights, l.cfg.IngestWorkers)
		reg.Histogram("ingest_batch_parse_millis", parseMillisBuckets).
			Observe(float64(time.Since(pt0)) / float64(time.Millisecond))
		for i, fp := range parsed {
			if fp == nil {
				l.skipped.Add(1)
				reg.Counter("stream_skipped_docs_total").Inc()
				continue
			}
			fps = append(fps, fp)
			admitted = append(admitted, rec.Docs[i])
		}
	}

	if !replay && l.cfg.Store != nil {
		if err := l.cfg.Store.Append(rec); err != nil {
			// Degrade, don't die: the batch is applied in memory and the
			// loss of durability is surfaced in Status and /metrics.
			l.walErrors.Add(1)
			reg.Counter("stream_wal_errors_total").Inc()
		} else {
			reg.Counter("stream_wal_records_total").Inc()
		}
	}

	cur := l.cur.Load()
	next := l.buildEpoch(cur, rec, fps, admitted)
	if next == nil {
		batchHist.ObserveSince(t0)
		return
	}
	l.batches.Add(1)
	l.ingested.Add(int64(len(admitted)))
	reg.Counter("stream_ingested_docs_total").Add(int64(len(admitted)))
	l.publish(next)
	batchHist.ObserveSince(t0)

	if l.cfg.SaveSnapshot != nil && l.cfg.SnapshotEvery > 0 && next.WALRecords%int64(l.cfg.SnapshotEvery) == 0 {
		if err := l.cfg.SaveSnapshot(next); err != nil {
			reg.Counter("stream_snapshot_errors_total").Inc()
		}
	}
}

// buildEpoch computes the successor epoch for one record. Nil means the
// record changed nothing (all documents skipped, no rebuild forced).
func (l *Live) buildEpoch(cur *Epoch, rec Record, fps []*form.FormPage, admitted []Doc) *Epoch {
	reg := l.cfg.Metrics
	rebuild := rec.IsRebuild()
	if len(fps) == 0 && !rebuild {
		// A record whose documents were all skipped changes no model, but
		// once a model exists it still takes an epoch: the successor is
		// the current epoch with Seq and WALRecords advanced, so epoch
		// and WAL counts stay in step through recovery. Before the first
		// model it publishes nothing.
		if cur != nil && len(rec.Docs) > 0 {
			e := *cur
			e.Seq++
			e.WALRecords++
			e.Rebuilt = false
			return &e
		}
		return nil
	}

	// While the constructor replays, no reader holds an epoch and only
	// the last replayed one is published, so the model and document list
	// replay built (l.replayModel) grow in place from one replayed record
	// to the next. The genesis belongs to the caller, and readers may
	// hold any epoch outside replay: those grow a copy. A follower's
	// ApplyReplicated replays a durable record too, but into published
	// epochs, so this keys on l.replaying, not on apply's replay
	// argument.
	var m *icafc.Model
	docs := admitted
	switch {
	case cur == nil:
		m = icafc.BuildMetrics(nil, l.cfg.Uniform, reg)
	case l.replaying && cur.Model == l.replayModel:
		m = cur.Model
		docs = append(cur.Docs, admitted...)
	default:
		m = cur.Model.Clone()
		docs = append(append([]Doc(nil), cur.Docs...), admitted...)
	}
	if l.replaying {
		l.replayModel = m
	}
	// The incremental append (embed + compile) shards with the same
	// worker budget as the parse stage; both are bit-identical for
	// every worker count.
	m.Workers = l.cfg.IngestWorkers
	m.AppendPages(fps)

	next := &Epoch{
		Seq:        1,
		Model:      m,
		Docs:       docs,
		WALRecords: 1,
	}
	if cur != nil {
		next.Seq = cur.Seq + 1
		next.WALRecords = cur.WALRecords + 1
	}

	switch {
	case rebuild || cur == nil || cur.Result.K == 0:
		next.Result = l.recluster(m)
		next.Rebuilt = true
	default:
		res, drift := l.miniBatch(m, cur)
		l.driftBits.Store(math.Float64bits(drift))
		reg.Gauge("stream_drift_fraction").Set(drift)
		if drift > l.cfg.DriftThreshold {
			next.Result = l.recluster(m)
			next.Rebuilt = true
		} else {
			next.Result = res
			// The drift rescan scored exactly next's centroids, so the
			// next mini-batch re-scores only the centroids it moves.
			l.rescanSeq = next.Seq
		}
	}
	if next.Rebuilt && cur != nil {
		l.rebuilds.Add(1)
		reg.Counter("stream_rebuilds_total").Inc()
	}
	return next
}

// recluster is the full path: erase incremental IDF staleness, then run
// the paper's CAFC-C k-means with the configured seed. Deterministic
// for a fixed seed and document sequence — the pinned equivalence test
// compares this against a one-shot build.
func (l *Live) recluster(m *icafc.Model) cluster.Result {
	start := time.Now()
	defer func() {
		done := time.Now()
		l.lastRebuildNano.Store(done.UnixNano())
		l.lastRebuildDurNano.Store(int64(done.Sub(start)))
		l.cfg.Metrics.Histogram("stream_rebuild_seconds", obs.DurationBuckets).Observe(done.Sub(start).Seconds())
	}()
	m.ReembedAll()
	rng := rand.New(rand.NewSource(l.cfg.Seed + 1))
	return icafc.CAFCC(m, l.cfg.K, rng)
}

// miniBatch extends the current assignment: each new page goes to its
// nearest centroid, the centroids of receiving clusters are refreshed,
// and the whole corpus is re-scored against the refreshed centroids to
// measure drift (the fraction of pages whose nearest centroid is no
// longer their assigned one).
//
// The re-score is incremental. l.rescan keeps every page's similarity
// to every centroid from the last drift rescan; when that rescan scored
// cur's own centroids (l.rescanSeq == cur.Seq), only the columns of the
// centroids this batch moved are recomputed, and a new page's row comes
// from its assignment pass. Every other epoch re-scores all pages
// against all centroids. Both give the same similarities bit for bit:
// the pages' packed vectors and the unmoved centroids are the ones the
// cached scores were computed from, and SimOne equals Sims by the index
// contract.
func (l *Live) miniBatch(m *icafc.Model, cur *Epoch) (cluster.Result, float64) {
	k := cur.Result.K
	n0, n := len(cur.Result.Assign), m.Len()
	centroids := append([]cluster.Point(nil), cur.Result.Centroids...)
	assign := make([]int, n)
	copy(assign, cur.Result.Assign)

	warm := l.rescanSeq == cur.Seq && len(l.rescan) == n0*k
	l.rescanSeq = 0 // buildEpoch revalidates once it keeps this result
	if need := n*k - len(l.rescan); need > 0 {
		l.rescan = slices.Grow(l.rescan, need)
	}
	l.rescan = l.rescan[:n*k]
	row := func(i int) []float64 { return l.rescan[i*k : (i+1)*k] }

	nearest := l.nearestFn(m, centroids)
	touched := make([]bool, k)
	for i := n0; i < n; i++ {
		best := nearest(i)
		copy(row(i), l.simsBuf[:k])
		assign[i] = best
		touched[best] = true
	}
	scored := (n - n0) * k
	if l.pacc == nil {
		l.pacc = vector.NewAccumulator(0)
		l.facc = vector.NewAccumulator(0)
	}
	members := cluster.Members(assign, k)
	var cols []int
	var moved []cluster.Point
	for c, t := range touched {
		if t {
			// Pooled accumulators: the refresh used to allocate two
			// vocabulary-sized arrays per touched cluster per batch.
			centroids[c] = m.CentroidWith(members[c], l.pacc, l.facc)
			cols = append(cols, c)
			moved = append(moved, centroids[c])
		}
	}

	if warm {
		ix := m.NewCentroidIndex(moved)
		scratch := l.scratchBuf[:ix.ScratchLen()]
		for i := 0; i < n; i++ {
			r := row(i)
			for j, c := range cols {
				r[c] = ix.SimOne(scratch, i, j)
			}
		}
		scored += n * len(cols)
	} else {
		nearest = l.nearestFn(m, centroids)
		for i := 0; i < n; i++ {
			nearest(i)
			copy(row(i), l.simsBuf[:k])
		}
		scored += n * k
	}
	l.cfg.Metrics.Counter("stream_assign_sims_total").Add(int64(scored))

	drifted := 0
	for i := 0; i < n; i++ {
		if nearestOf(row(i)) != assign[i] {
			drifted++
		}
	}
	drift := 0.0
	if n > 0 {
		drift = float64(drifted) / float64(n)
	}
	return cluster.Result{Assign: assign, K: k, Centroids: centroids}, drift
}

// nearestFn returns a closure mapping a point index to its nearest
// centroid over the given centroid set. Every call scores all k
// centroids through one postings pass into the reusable buffers — no
// allocations per point — with similarities bit-identical to Sim (the
// index contract) and ties broken toward the lowest centroid index.
func (l *Live) nearestFn(m *icafc.Model, centroids []cluster.Point) func(i int) int {
	k := len(centroids)
	ix := m.NewCentroidIndex(centroids)
	if cap(l.simsBuf) < k {
		l.simsBuf = make([]float64, k)
	}
	sims := l.simsBuf[:k]
	if n := ix.ScratchLen(); cap(l.scratchBuf) < n {
		l.scratchBuf = make([]float64, n)
	}
	scratch := l.scratchBuf[:ix.ScratchLen()]
	return func(i int) int {
		ix.Sims(sims, scratch, i)
		return nearestOf(sims)
	}
}

// nearestOf returns the centroid of highest similarity in one page's
// scores, ties broken toward the lowest centroid index.
func nearestOf(sims []float64) int {
	best, bestSim := 0, -1.0
	for c, sim := range sims {
		if sim > bestSim {
			best, bestSim = c, sim
		}
	}
	return best
}

// publish swaps the epoch pointer and, outside construction, notifies
// observers.
func (l *Live) publish(e *Epoch) {
	l.cur.Store(e)
	l.lastPublishNano.Store(time.Now().UnixNano())
	reg := l.cfg.Metrics
	reg.Gauge("stream_epoch").Set(float64(e.Seq))
	reg.Gauge("stream_corpus_pages").Set(float64(e.Model.Len()))
	if l.cfg.OnPublish != nil && !l.replaying {
		l.cfg.OnPublish(e)
	}
}
