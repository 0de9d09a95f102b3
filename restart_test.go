package cafc

import (
	"context"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"cafc/internal/repl"
	"cafc/internal/search"
	"cafc/internal/stream"
	"cafc/internal/vector"
)

// The restart tests pin that a restart does not change the directory: a
// live directory that stops (crash or drain) and recovers must publish,
// at every epoch, exactly what a directory that never stopped publishes —
// the partition, every vector bit, the search index and the classifier.

// epochPrint is everything a published epoch serves.
type epochPrint struct {
	Seq    int64
	K      int
	Assign []int
	// State is the epoch's model and partition as a snapshot stores them:
	// DF tables, dictionaries, term records, and every page and centroid
	// vector's IDs and weight bits.
	State    []byte
	Maps     []vector.Vector
	Members  [][]search.Meta
	Labels   []string
	Search   string
	Classify []string
}

// printEpoch fingerprints the directory's current epoch.
func printEpoch(t *testing.T, l *Live, probes []Document) epochPrint {
	t.Helper()
	se, le := l.inner.Current(), l.Epoch()
	if se == nil || le == nil || se.Seq != le.Epoch {
		t.Fatalf("no consistent current epoch: %v / %v", se, le)
	}
	m := se.Model
	p := epochPrint{Seq: se.Seq, K: se.Result.K, Assign: se.Result.Assign, State: stateOf(t, m, &se.Result)}
	for _, pg := range m.Pages {
		p.Maps = append(p.Maps, pg.PC, pg.FC)
	}
	if le.SearchIndex != nil {
		p.Members = le.SearchIndex.Members()
		p.Labels = le.SearchIndex.ClusterLabels()
		js, _, err := l.SearchJSON("search books", 10)
		if err != nil {
			t.Fatal(err)
		}
		p.Search = string(js)
	}
	for _, d := range probes {
		pred, ok, err := le.Classify(d)
		p.Classify = append(p.Classify, fmt.Sprintf("%d %q %x %v %v",
			pred.Cluster, pred.Label, math.Float64bits(pred.Similarity), ok, err))
	}
	return p
}

// assertSameEpoch reports the first field in which two fingerprints of
// the same epoch differ.
func assertSameEpoch(t *testing.T, what string, got, want epochPrint) {
	t.Helper()
	if got.Seq != want.Seq {
		t.Fatalf("%s: epoch %d, want %d", what, got.Seq, want.Seq)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"K", got.K, want.K},
		{"assignment", got.Assign, want.Assign},
		{"model state (centroid and page-vector bits, dictionaries, records)", got.State, want.State},
		{"page map vectors", got.Maps, want.Maps},
		{"search members", got.Members, want.Members},
		{"search cluster labels", got.Labels, want.Labels},
		{"search JSON", got.Search, want.Search},
		{"classify answers", got.Classify, want.Classify},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: epoch %d: %s differ", what, got.Seq, f.name)
		}
	}
}

// twinFixture is a hub-seeded (CAFC-CH) genesis, as directoryd -live -in
// builds it, plus the documents streamed after it and classify probes.
type twinFixture struct {
	corpus  *Corpus
	genesis []Document
	cl      *Clustering
	stream  []Document
	probes  []Document
}

func newTwinFixture(t *testing.T) *twinFixture {
	t.Helper()
	docs, _, roots, backlinks := testDocs(t, 61, 112)
	corpus, err := NewCorpus(docs[:64], Options{SkipNonSearchable: true})
	if err != nil {
		t.Fatal(err)
	}
	probes, _, _, _ := testDocs(t, 62, 6)
	return &twinFixture{
		corpus:  corpus,
		genesis: docs[:64],
		cl:      corpus.ClusterCH(4, backlinks, roots, 61),
		stream:  docs[64:],
		probes:  probes,
	}
}

// twinConfig cuts a batch only once BatchSize documents are queued, so
// the epoch history is a pure function of the document sequence.
func twinConfig(dir string) LiveConfig {
	return LiveConfig{
		K: 4, Seed: 61, BatchSize: 8, FlushInterval: time.Hour,
		Dir: dir, Search: &SearchConfig{},
	}
}

// ingestBatch posts one batch and waits for its epoch.
func ingestBatch(t *testing.T, l *Live, batch []Document) {
	t.Helper()
	want := l.Epoch().Corpus.Len() + len(batch)
	for _, d := range batch {
		if err := l.Ingest(d); err != nil {
			t.Fatal(err)
		}
	}
	waitLive(t, "batch applied", func() bool { return l.Epoch().Corpus.Len() == want })
}

// rebuild forces a re-cluster and waits for it to publish.
func rebuild(t *testing.T, l *Live) {
	t.Helper()
	seq := l.Epoch().Epoch
	if err := l.ForceRebuild(); err != nil {
		t.Fatal(err)
	}
	waitLive(t, "forced rebuild published", func() bool {
		e := l.Epoch()
		return e.Epoch > seq && e.Rebuilt
	})
}

// straightThrough runs leader A: genesis, every batch, a forced rebuild,
// fingerprinting each epoch.
func (fx *twinFixture) straightThrough(t *testing.T) map[int64]epochPrint {
	t.Helper()
	a, err := NewLive(fx.corpus, fx.genesis, fx.cl, twinConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	prints := map[int64]epochPrint{}
	keep := func() { p := printEpoch(t, a, fx.probes); prints[p.Seq] = p }
	keep()
	for lo := 0; lo < len(fx.stream); lo += 8 {
		ingestBatch(t, a, fx.stream[lo:lo+8])
		keep()
	}
	rebuild(t, a)
	keep()
	return prints
}

// TestLiveRestartTwin: leader A runs straight through; leader B stops
// halfway — crashing, or draining — recovers, and ingests the rest.
// Both end with a forced rebuild. At every epoch B publishes, it must
// equal A at that epoch.
func TestLiveRestartTwin(t *testing.T) {
	fx := newTwinFixture(t)
	want := fx.straightThrough(t)
	for _, stop := range []string{"crash", "drain"} {
		t.Run(stop, func(t *testing.T) {
			dir := t.TempDir()
			b, err := NewLive(fx.corpus, fx.genesis, fx.cl, twinConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			check := func(l *Live, what string) {
				t.Helper()
				got := printEpoch(t, l, fx.probes)
				assertSameEpoch(t, what, got, want[got.Seq])
			}
			check(b, "genesis")
			half := len(fx.stream) / 2
			for lo := 0; lo < half; lo += 8 {
				ingestBatch(t, b, fx.stream[lo:lo+8])
				check(b, "before the stop")
			}
			if stop == "crash" {
				b.Close()
			} else if err := b.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}

			r, err := RecoverLive(twinConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			check(r, "recovered")
			for lo := half; lo < len(fx.stream); lo += 8 {
				ingestBatch(t, r, fx.stream[lo:lo+8])
				check(r, "after recovery")
			}
			rebuild(t, r)
			check(r, "forced rebuild after recovery")
		})
	}
}

// TestFollowerServesLeaderPartition: a follower bootstrapped from a
// leader with a hub-seeded genesis serves the leader's epoch, at
// bootstrap and after tailing.
func TestFollowerServesLeaderPartition(t *testing.T) {
	fx := newTwinFixture(t)
	ldir, fdir := t.TempDir(), t.TempDir()
	l, err := NewLive(fx.corpus, fx.genesis, fx.cl, twinConfig(ldir))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ingestBatch(t, l, fx.stream[:8])
	ctx := context.Background()
	if err := repl.Bootstrap(ctx, repl.DirSource{Dir: ldir}, fdir); err != nil {
		t.Fatal(err)
	}
	f, err := RecoverFollower(twinConfig(fdir))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	assertSameEpoch(t, "bootstrapped follower", printEpoch(t, f, fx.probes), printEpoch(t, l, fx.probes))

	tail := &repl.Tailer{Source: repl.DirSource{Dir: ldir}, Target: f}
	for lo := 8; lo < 32; lo += 8 {
		ingestBatch(t, l, fx.stream[lo:lo+8])
		if err := tail.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		assertSameEpoch(t, "tailed follower", printEpoch(t, f, fx.probes), printEpoch(t, l, fx.probes))
	}
}

// TestRecoverRestoresWithoutKMeans: recovery from a version 3 snapshot
// restores the partition and runs no k-means, and reports it.
func TestRecoverRestoresWithoutKMeans(t *testing.T) {
	fx := newTwinFixture(t)
	dir := t.TempDir()
	l, err := NewLive(fx.corpus, fx.genesis, fx.cl, twinConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestBatch(t, l, fx.stream[:8])
	if err := l.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	r, err := RecoverLive(twinConfig(dir), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := reg.Counter("kmeans_iterations_total").Value(); n != 0 {
		t.Errorf("recovery ran %d k-means iterations, want 0", n)
	}
	ri := r.Status().Recovery
	if ri == nil || ri.SnapshotVersion != snapshotVersion || ri.SnapshotBytes <= 0 ||
		ri.Partition != "restored" || ri.Reason != "" {
		t.Errorf("Status().Recovery = %+v, want a restored v%d snapshot", ri, snapshotVersion)
	}
	if l.Status().Recovery != nil {
		t.Error("a directory started by NewLive reports a recovery")
	}
}

// TestRecoverReclustersOnKChange: when the configured K differs from the
// snapshot's, recovery re-clusters at the configured K and says why.
func TestRecoverReclustersOnKChange(t *testing.T) {
	fx := newTwinFixture(t)
	dir := t.TempDir()
	l, err := NewLive(fx.corpus, fx.genesis, fx.cl, twinConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg := twinConfig(dir)
	cfg.K = 3
	reg := NewRegistry()
	r, err := RecoverLive(cfg, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if k := len(r.Epoch().Clustering.Clusters); k != 3 {
		t.Fatalf("recovered epoch has k=%d, want the configured 3", k)
	}
	if reg.Counter("kmeans_runs_total").Value() == 0 {
		t.Error("no k-means ran for the new K")
	}
	ri := r.Status().Recovery
	if ri == nil || ri.Partition != "re-clustered" || ri.Reason != "snapshot has k=4, configured k=3" {
		t.Errorf("Status().Recovery = %+v, want a re-cluster for the K change", ri)
	}
}

// recoverFromFixture builds a state dir from a checked-in snapshot and,
// when docs is non-nil, the genesis WAL record it covers, then recovers
// it.
func recoverFromFixture(t *testing.T, fixture []byte, docs []Document) *Live {
	t.Helper()
	dir := t.TempDir()
	st, err := stream.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if docs != nil {
		if err := st.Append(stream.Record{Docs: docs}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteSnapshot(func(w io.Writer) error { _, err := w.Write(fixture); return err }); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := RecoverLive(LiveConfig{K: 4, Seed: 5, FlushInterval: time.Hour, Dir: dir, Search: &SearchConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}
