package cafc

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cafc/internal/repl"
)

func waitLive(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLiveIngestAdvancesEpochs(t *testing.T) {
	docs, _, _, _ := testDocs(t, 21, 40)
	corpus, err := NewCorpus(docs[:20])
	if err != nil {
		t.Fatal(err)
	}
	cl := corpus.ClusterC(4, 1)
	l, err := NewLive(corpus, docs[:20], cl, LiveConfig{
		K: 4, Seed: 1, BatchSize: 8, FlushInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	e := l.Epoch()
	if e == nil || e.Epoch != 1 || e.Corpus.Len() != 20 {
		t.Fatalf("genesis epoch wrong: %+v", e)
	}
	if len(e.Clustering.Clusters) != 4 {
		t.Fatalf("genesis clustering lost: %d clusters", len(e.Clustering.Clusters))
	}

	for _, d := range docs[20:] {
		if err := l.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	waitLive(t, "ingested docs applied", func() bool {
		return l.Epoch().Corpus.Len() == 40
	})
	e = l.Epoch()
	if e.Epoch < 2 {
		t.Errorf("epoch did not advance: %d", e.Epoch)
	}
	if len(e.Docs) != 40 {
		t.Errorf("epoch docs = %d", len(e.Docs))
	}
	// The per-epoch classifier answers without touching the pipeline.
	if _, _, err := e.Classify(docs[0]); err != nil {
		t.Errorf("classify: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := l.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.Ingest(docs[0]); !errors.Is(err, ErrDraining) {
		t.Errorf("Ingest after Drain = %v", err)
	}
}

// TestLiveRecoverAfterCrash is the acceptance pin for durability: a live
// directory hard-killed mid-flight (no final snapshot) must recover to
// the exact pre-crash epoch from the genesis snapshot plus WAL replay.
func TestLiveRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	docs, _, _, _ := testDocs(t, 23, 48)
	corpus, err := NewCorpus(docs[:16])
	if err != nil {
		t.Fatal(err)
	}
	cl := corpus.ClusterC(4, 9)
	// DriftThreshold 2 disables drift rebuilds so the replayed epochs are
	// structurally identical regardless of float noise; epoch accounting
	// itself is noise-free either way (one epoch per WAL record).
	cfg := LiveConfig{
		K: 4, Seed: 9, BatchSize: 8, FlushInterval: 10 * time.Millisecond,
		DriftThreshold: 2, Dir: dir,
	}
	l, err := NewLive(corpus, docs[:16], cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs[16:] {
		if err := l.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	waitLive(t, "pre-crash ingest applied", func() bool {
		return l.Epoch().Corpus.Len() == 48
	})
	pre := l.Epoch()
	preStatus := l.Status()
	if pre.Epoch < 2 || preStatus.WALRecords != pre.Epoch {
		t.Fatalf("pre-crash state inconsistent: epoch %d, WAL records %d",
			pre.Epoch, preStatus.WALRecords)
	}
	l.Close() // crash: the queue-flush + final-snapshot path never runs

	// A fresh NewLive on the same dir must refuse to fork history.
	if _, err := NewLive(corpus, docs[:16], cl, cfg); err == nil {
		t.Fatal("NewLive on a dirty store must refuse")
	}

	reg := NewRegistry()
	r, err := RecoverLive(cfg, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// The only snapshot is the genesis one, so recovery must replay every
	// record ingested before the crash.
	if n := reg.Counter("stream_replayed_records_total").Value(); n != pre.Epoch-1 {
		t.Fatalf("recovery replayed %d WAL records, want the %d since genesis", n, pre.Epoch-1)
	}
	got := r.Epoch()
	if got == nil || got.Epoch != pre.Epoch {
		t.Fatalf("recovered epoch %v, want %d", got, pre.Epoch)
	}
	if got.Corpus.Len() != 48 || len(got.Docs) != 48 {
		t.Fatalf("recovered corpus %d pages, %d docs; want 48/48",
			got.Corpus.Len(), len(got.Docs))
	}
	wantURLs := pre.Corpus.URLs()
	for i, u := range got.Corpus.URLs() {
		if u != wantURLs[i] {
			t.Fatalf("url[%d] = %s, want %s", i, u, wantURLs[i])
		}
	}
	for i, d := range got.Docs {
		if d.HTML == "" {
			t.Fatalf("doc %d (%s) lost its HTML across recovery", i, d.URL)
		}
	}
	if s := r.Status(); s.WALRecords != preStatus.WALRecords {
		t.Errorf("WAL records %d, want %d", s.WALRecords, preStatus.WALRecords)
	}

	// The recovered pipeline is fully live: ingest more, drain cleanly
	// (writing a snapshot), and recover again from the snapshot alone.
	extra, _, _, _ := testDocs(t, 29, 8)
	for _, d := range extra {
		if err := r.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	waitLive(t, "post-recovery ingest applied", func() bool {
		return r.Epoch().Corpus.Len() == 56
	})
	finalEpoch := r.Epoch().Epoch
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	r2, err := RecoverLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Epoch(); got.Epoch != finalEpoch || got.Corpus.Len() != 56 {
		t.Errorf("second recovery: epoch %d (%d pages), want %d (56)",
			got.Epoch, got.Corpus.Len(), finalEpoch)
	}
}

// TestNewLiveErrorsLeaveNothingOpen pins NewLive's failure paths: a
// non-empty corpus without a genesis clustering is refused before the
// state directory is touched, and a genesis snapshot that cannot be
// written returns the error with no ingest worker left running.
func TestNewLiveErrorsLeaveNothingOpen(t *testing.T) {
	docs, _, _, _ := testDocs(t, 31, 12)
	corpus, err := NewCorpus(docs)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "state")
	if _, err := NewLive(corpus, docs, nil, LiveConfig{K: 4, Dir: dir}); err == nil {
		t.Fatal("NewLive accepted a non-empty corpus without a clustering")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("refused NewLive opened the state directory (stat: %v)", err)
	}

	// A non-empty directory where the snapshot belongs makes the
	// snapshot's final rename fail.
	if err := os.MkdirAll(filepath.Join(dir, "snapshot.gob.gz", "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	cl := corpus.ClusterC(4, 1)
	before := runtime.NumGoroutine()
	if _, err := NewLive(corpus, docs, cl, LiveConfig{K: 4, Seed: 1, Dir: dir}); err == nil {
		t.Fatal("NewLive succeeded with an unwritable genesis snapshot")
	}
	waitLive(t, "goroutines started by the failed NewLive to exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// TestLiveQualityInert is the quality-layer inertness pin at the public
// API: a live directory with the quality monitor attached (registry and
// all) must publish bit-identical clusterings to one without. The
// comparison is over the final forced re-cluster, which is deterministic
// for a fixed seed and document sequence. The SnapshotReproducible
// subtest requires a second monitored run to end on the same quality
// snapshot as the first.
func TestLiveQualityInert(t *testing.T) {
	docs, labels, _, _ := testDocs(t, 31, 40)

	run := func(t *testing.T, q *QualityConfig, reg *Registry) (*Live, map[string]int) {
		t.Helper()
		// An hour-long flush interval cuts a batch only once BatchSize
		// documents are queued, so the epoch history, and with it every
		// quality number, is a pure function of the document sequence.
		l, err := NewLive(nil, nil, nil, LiveConfig{
			K: 4, Seed: 7, BatchSize: 8, FlushInterval: time.Hour,
			Quality: q,
		}, Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			if err := l.Ingest(d); err != nil {
				t.Fatal(err)
			}
		}
		waitLive(t, "all docs applied", func() bool {
			e := l.Epoch()
			return e != nil && e.Corpus.Len() == len(docs)
		})
		if err := l.ForceRebuild(); err != nil {
			t.Fatal(err)
		}
		waitLive(t, "forced rebuild published", func() bool {
			e := l.Epoch()
			return e.Rebuilt && e.Corpus.Len() == len(docs)
		})
		return l, l.Epoch().Clustering.Assign
	}

	reg := NewRegistry()
	withQ, assignQ := run(t, &QualityConfig{SampleSize: 64, Labels: labels}, reg)
	defer withQ.Close()
	plain, assignPlain := run(t, nil, nil)
	defer plain.Close()

	if len(assignQ) != len(docs) {
		t.Fatalf("assignment covers %d of %d docs", len(assignQ), len(docs))
	}
	for u, c := range assignPlain {
		if assignQ[u] != c {
			t.Fatalf("quality monitor changed the clustering: %s → %d vs %d", u, assignQ[u], c)
		}
	}

	// The monitor observed: latest snapshot reflects the rebuilt epoch,
	// labels flowed through, and the gauges landed in the registry.
	snap, ok := withQ.Quality()
	if !ok {
		t.Fatal("Quality() not ok with a configured monitor")
	}
	if snap.Pages != len(docs) || snap.K != 4 {
		t.Fatalf("snapshot = %d pages / k=%d, want %d / 4", snap.Pages, snap.K, len(docs))
	}
	if snap.Labeled != len(docs) || snap.FMeasure <= 0 {
		t.Fatalf("label quality missing: labeled=%d F=%v", snap.Labeled, snap.FMeasure)
	}
	if hist := withQ.QualityHistory(); len(hist) == 0 || hist[len(hist)-1].Epoch != snap.Epoch {
		t.Fatalf("QualityHistory inconsistent with Latest: %d entries", len(hist))
	}
	if v := reg.Gauge("quality_sample_size").Value(); v == 0 {
		t.Fatalf("quality gauges not published (sample_size = %v)", v)
	}
	t.Run("SnapshotReproducible", func(t *testing.T) {
		again, _ := run(t, &QualityConfig{SampleSize: 64, Labels: labels}, nil)
		defer again.Close()
		snap2, _ := again.Quality()
		want := snap
		want.Time, snap2.Time = time.Time{}, time.Time{} // the one wall-clock field
		if !reflect.DeepEqual(want, snap2) {
			t.Fatalf("final quality snapshot not reproducible at a fixed seed:\n run 1: %+v\n run 2: %+v", want, snap2)
		}
	})

	// Without a monitor the accessors answer empty, not panic.
	if _, ok := plain.Quality(); ok {
		t.Fatal("Quality() ok without a monitor")
	}
	if h := plain.QualityHistory(); h != nil {
		t.Fatalf("QualityHistory without a monitor = %v", h)
	}
}

// assertReplicaEqual pins the tentpole invariant at the public API: a
// follower that has tailed to the leader's epoch serves the identical
// directory — same epoch and WAL accounting, same corpus in the same
// order, same cluster assignment for every URL.
func assertReplicaEqual(t *testing.T, f, l *Live) {
	t.Helper()
	fe, le := f.Epoch(), l.Epoch()
	if fe == nil || le == nil {
		t.Fatalf("missing epoch: follower %v leader %v", fe, le)
	}
	if fe.Epoch != le.Epoch {
		t.Fatalf("follower at epoch %d, leader at %d", fe.Epoch, le.Epoch)
	}
	if fs, ls := f.Status(), l.Status(); fs.WALRecords != ls.WALRecords {
		t.Fatalf("follower WAL records %d, leader %d", fs.WALRecords, ls.WALRecords)
	}
	if !reflect.DeepEqual(fe.Corpus.URLs(), le.Corpus.URLs()) {
		t.Fatal("follower corpus differs from leader")
	}
	if !reflect.DeepEqual(fe.Clustering.Assign, le.Clustering.Assign) {
		t.Fatal("follower cluster assignment differs from leader")
	}
}

// TestLiveFollowerReplication drives the replication stack at the
// public API: bootstrap a follower from a live leader's state dir,
// verify it refuses writes, tail it to parity, move the leader on, tail
// again — equal state at every convergence point.
func TestLiveFollowerReplication(t *testing.T) {
	docs, _, _, _ := testDocs(t, 37, 48)
	ldir, fdir := t.TempDir(), t.TempDir()
	cfg := LiveConfig{
		K: 4, Seed: 7, BatchSize: 8, FlushInterval: 5 * time.Millisecond,
		Dir: ldir,
	}
	l, err := NewLive(nil, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, d := range docs[:32] {
		if err := l.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	waitLive(t, "leader ingest applied", func() bool {
		e := l.Epoch()
		return e != nil && e.Corpus.Len() == 32
	})

	ctx := context.Background()
	if err := repl.Bootstrap(ctx, repl.DirSource{Dir: ldir}, fdir); err != nil {
		t.Fatal(err)
	}
	fcfg := cfg
	fcfg.Dir = fdir
	f, err := RecoverFollower(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Read-only: every mutation is refused with ErrReadOnly.
	if err := f.Ingest(docs[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Ingest = %v, want ErrReadOnly", err)
	}
	if err := f.ForceRebuild(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower ForceRebuild = %v, want ErrReadOnly", err)
	}

	tail := &repl.Tailer{Source: repl.DirSource{Dir: ldir}, Target: f}
	if err := tail.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	assertReplicaEqual(t, f, l)

	// The leader moves on; the follower closes the gap from its last
	// applied record.
	for _, d := range docs[32:] {
		if err := l.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	waitLive(t, "second leader ingest applied", func() bool {
		return l.Epoch().Corpus.Len() == 48
	})
	if err := tail.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if lag := tail.Lag(); lag != 0 {
		t.Fatalf("lag after sync = %d, want 0", lag)
	}
	assertReplicaEqual(t, f, l)

	// The follower's classifier answers from its own replicated epoch.
	if _, _, err := f.Epoch().Classify(docs[0]); err != nil {
		t.Fatalf("follower classify: %v", err)
	}
}

// TestLiveReplicationMetricsInert is the replication twin of
// TestLiveQualityInert: tailing with the full metrics registry attached
// must replicate bit-identical state to tailing with none, and the
// replication gauges must land on applied-epoch / zero-lag values.
func TestLiveReplicationMetricsInert(t *testing.T) {
	docs, _, _, _ := testDocs(t, 41, 32)
	ldir := t.TempDir()
	cfg := LiveConfig{
		K: 4, Seed: 3, BatchSize: 8, FlushInterval: 5 * time.Millisecond,
		Dir: ldir,
	}
	l, err := NewLive(nil, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := l.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	waitLive(t, "leader ingest applied", func() bool {
		e := l.Epoch()
		return e != nil && e.Corpus.Len() == len(docs)
	})
	leaderEpoch := l.Epoch().Epoch
	l.Close() // hard stop: the WAL alone defines the history followers see

	run := func(reg *Registry) *Live {
		t.Helper()
		fdir := t.TempDir()
		if err := repl.Bootstrap(context.Background(), repl.DirSource{Dir: ldir}, fdir); err != nil {
			t.Fatal(err)
		}
		fcfg := cfg
		fcfg.Dir = fdir
		f, err := RecoverFollower(fcfg, Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		tail := &repl.Tailer{Source: repl.DirSource{Dir: ldir}, Target: f, Metrics: reg}
		if err := tail.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		return f
	}

	reg := NewRegistry()
	fm := run(reg)
	defer fm.Close()
	fn := run(nil)
	defer fn.Close()
	assertReplicaEqual(t, fm, fn)

	if got := reg.Gauge("replication_applied_epoch").Value(); got != float64(leaderEpoch) {
		t.Fatalf("replication_applied_epoch = %v, want %d", got, leaderEpoch)
	}
	if got := reg.Gauge("replication_lag_epochs").Value(); got != 0 {
		t.Fatalf("replication_lag_epochs = %v, want 0", got)
	}
}
