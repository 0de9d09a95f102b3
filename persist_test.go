package cafc

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	icafc "cafc/internal/cafc"
	"cafc/internal/cluster"
	"cafc/internal/form"
	"cafc/internal/vector"
)

func newGzip(w io.Writer) *gzip.Writer { return gzip.NewWriter(w) }

func TestSaveLoadRoundTrip(t *testing.T) {
	docs, labels, roots, backlinks := testDocs(t, 11, 120)
	orig, err := NewCorpus(docs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), orig.Len())
	}
	// Similarities must survive exactly.
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			a, b := orig.Similarity(i, j), loaded.Similarity(i, j)
			if diff := a - b; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("sim(%d,%d) drifted: %v vs %v", i, j, a, b)
			}
		}
	}
	// Clustering a loaded corpus works and matches quality-wise.
	clOrig := orig.ClusterCH(8, backlinks, roots, 1)
	clLoaded := loaded.ClusterCH(8, backlinks, roots, 1)
	eo, fo := clOrig.Quality(labels)
	el, fl := clLoaded.Quality(labels)
	// Quality sums floats in map-iteration order, so allow rounding noise.
	if abs(eo-el) > 1e-9 || abs(fo-fl) > 1e-9 {
		t.Errorf("quality drifted: (%.3f, %.3f) vs (%.3f, %.3f)", eo, fo, el, fl)
	}
}

func TestLoadedCorpusClassifies(t *testing.T) {
	docs, labels, _, _ := testDocs(t, 12, 120)
	orig, err := NewCorpus(docs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cl := loaded.ClusterC(8, 1)
	names := make([]string, len(cl.Clusters))
	for i, members := range cl.Clusters {
		counts := map[string]int{}
		for _, u := range members {
			counts[labels[u]]++
		}
		for d, n := range counts {
			if names[i] == "" || n > counts[names[i]] {
				names[i] = d
			}
		}
	}
	clf := loaded.Classifier(cl, names)
	held, heldLabels, _, _ := testDocs(t, 13, 40)
	correct, total := 0, 0
	for _, d := range held {
		pred, ok, err := clf.Classify(d)
		if err != nil || !ok {
			continue
		}
		total++
		if pred.Label == heldLabels[d.URL] {
			correct++
		}
	}
	if total < 25 {
		t.Fatalf("classified only %d", total)
	}
	if acc := float64(correct) / float64(total); acc < 0.6 {
		t.Errorf("loaded-corpus classifier accuracy %.3f", acc)
	}
}

func TestLoadCorpusRejectsGarbage(t *testing.T) {
	if _, err := LoadCorpus(strings.NewReader("not gzip")); err == nil {
		t.Error("garbage accepted")
	}
	// Any gzip stream reads as a version 1 or 2 snapshot, which is refused.
	var buf bytes.Buffer
	zw := newGzip(&buf)
	_, _ = zw.Write([]byte("junk"))
	_ = zw.Close()
	if _, err := LoadCorpus(&buf); err == nil {
		t.Error("gzip-wrapped junk accepted")
	}
	// A reader error is the load's error, not "not a snapshot".
	boom := errors.New("boom")
	if _, err := LoadCorpus(iotest.ErrReader(boom)); !errors.Is(err, boom) {
		t.Errorf("reader error reported as %v", err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestLoadCorpusRejectsFutureVersion keeps the version gate honest.
func TestLoadCorpusRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	zw := newGzip(&buf)
	if err := gob.NewEncoder(zw).Encode(corpusSnapshot{Version: snapshotVersion + 1}); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if _, err := LoadCorpus(&buf); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
	next := append([]byte("CAFCsnap"), snapshotVersion+1)
	if _, err := LoadCorpus(bytes.NewReader(next)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future binary version accepted: %v", err)
	}
}

// TestLoadCorpusReattachesRunOptions is the regression test for run
// options dropped on load: a corpus loaded with Options must emit
// telemetry, keep the resilient backlink policy, and honor the skip
// policy — the same wiring NewCorpus would have done.
func TestLoadCorpusReattachesRunOptions(t *testing.T) {
	docs, _, _, _ := testDocs(t, 17, 32)
	orig, err := NewCorpus(docs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	loaded, err := LoadCorpus(&buf, Options{
		Metrics:           reg,
		Retry:             &Retry{MaxAttempts: 2},
		SkipNonSearchable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded.ClusterC(4, 1)
	found := false
	for _, s := range reg.Snapshot() {
		if s.Name == "kmeans_runs_total" && s.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("loaded corpus emitted no kmeans telemetry — Metrics option dropped on load")
	}
	if loaded.retry == nil || loaded.retry.MaxAttempts != 2 {
		t.Error("Retry option dropped on load")
	}
	if _, err := loaded.Append([]Document{{URL: "http://x/", HTML: "<p>formless</p>"}}); err != nil {
		t.Errorf("SkipNonSearchable option dropped on load: %v", err)
	}
	if len(loaded.Skipped) != 1 {
		t.Errorf("skip bookkeeping after load: %v", loaded.Skipped)
	}
}

// tfidfMaps is the map-vector oracle of a corpus built at once from
// docs: each page's TF-IDF maps, vector.TFIDF of its parsed occurrences
// under the corpus DF tables, in model order.
func tfidfMaps(t testing.TB, c *Corpus, docs []Document) (pcs, fcs []vector.Vector) {
	t.Helper()
	html := make(map[string]string, len(docs))
	for _, d := range docs {
		html[d.URL] = d.HTML
	}
	m := c.model
	for _, p := range m.Pages {
		fp, err := form.Parse(p.URL, html[p.URL], c.weights)
		if err != nil {
			t.Fatal(err)
		}
		pcs = append(pcs, vector.TFIDF(fp.PCTerms, m.PCDF, m.Uniform))
		fcs = append(fcs, vector.TFIDF(fp.FCTerms, m.FCDF, m.Uniform))
	}
	return pcs, fcs
}

// corpusSnapshot is the gob wire format of snapshot versions 1 and 2.
type corpusSnapshot struct {
	Version  int
	URLs     []string
	Weights  form.Weights
	Uniform  bool
	Features int
	C1, C2   float64
	FC, PC   []map[string]float64
	FCDFN    int
	FCDF     map[string]int
	PCDFN    int
	PCDF     map[string]int
	// Epoch and WALOffset (v2) are the snapshot's stream positioning.
	Epoch     int64
	WALOffset int64
}

// saveV2 is the version 2 encoder as it shipped: gzip-compressed gob of
// corpusSnapshot, with pcs and fcs (tfidfMaps) as the page vectors. It
// is the reference for v3's size and speed, and the input LoadSnapshot
// refuses.
func saveV2(c *Corpus, pcs, fcs []vector.Vector, w io.Writer, info SnapshotInfo) error {
	snap := corpusSnapshot{
		Version: 2, URLs: c.urls, Weights: c.weights, Uniform: c.model.Uniform,
		Features: int(c.model.Features), C1: c.model.C1, C2: c.model.C2,
		Epoch: info.Epoch, WALOffset: info.WALOffset,
	}
	for i := range pcs {
		snap.PC = append(snap.PC, pcs[i])
		snap.FC = append(snap.FC, fcs[i])
	}
	snap.FCDFN, snap.FCDF = c.model.FCDF.Snapshot()
	snap.PCDFN, snap.PCDF = c.model.PCDF.Snapshot()
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(snap); err != nil {
		return err
	}
	return zw.Close()
}

// v2Snapshot is a version 2 snapshot of a 24-page corpus (webgen seed
// 43), with the documents it was built from.
func v2Snapshot(t testing.TB) ([]Document, []byte) {
	t.Helper()
	docs, _, _, _ := testDocs(t, 43, 24)
	c, err := NewCorpus(docs)
	if err != nil {
		t.Fatal(err)
	}
	pcs, fcs := tfidfMaps(t, c, docs)
	var buf bytes.Buffer
	if err := saveV2(c, pcs, fcs, &buf, SnapshotInfo{Epoch: 1, WALOffset: 1}); err != nil {
		t.Fatal(err)
	}
	return docs, buf.Bytes()
}

// TestV2SnapshotRefused: a version 2 snapshot, read directly or from a
// state dir, fails with an error that names the version and says to
// rebuild. Version 1 shares its gzip header, and so its refusal.
func TestV2SnapshotRefused(t *testing.T) {
	docs, v2 := v2Snapshot(t)
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "version 1 or 2") || !strings.Contains(err.Error(), "rebuild") {
			t.Errorf("%s of a v2 snapshot: error %v, want one naming the version and saying to rebuild", what, err)
		}
	}
	_, err := LoadCorpus(bytes.NewReader(v2))
	refused("LoadCorpus", err)
	r, err := recoverFromFixture(t, v2, docs)
	if err == nil {
		r.Close()
	}
	refused("RecoverLive", err)
}

// TestSnapshotV3RoundTrip: a corpus saved with a partition loads back
// with the same positioning, LOC weights and URLs, and with the same
// model state — DF tables, dictionaries, records, every page and
// centroid vector bit (internal/cafc's TestStateRoundTrip compares them
// field by field) — and re-saves to the same bytes.
func TestSnapshotV3RoundTrip(t *testing.T) {
	docs, _, _, _ := testDocs(t, 19, 48)
	c, err := NewCorpus(docs[:40])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(docs[40:]); err != nil {
		t.Fatal(err)
	}
	m := c.model
	cl := c.ClusterC(4, 3)
	res := cluster.Result{K: 4, Assign: make([]int, m.Len())}
	for i, u := range c.urls {
		res.Assign[i] = cl.Assign[u]
	}
	for _, members := range cluster.Members(res.Assign, 4) {
		res.Centroids = append(res.Centroids, m.Centroid(members))
	}
	res.Assign[5] = -1 // an unassigned page survives too

	var buf bytes.Buffer
	info := SnapshotInfo{Epoch: 9, WALOffset: 4}
	if err := c.saveSnapshot(&buf, info, &res); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	s, err := loadSnapshot(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.info != info || !reflect.DeepEqual(s.corpus.urls, c.urls) || s.corpus.weights != c.weights {
		t.Fatalf("header differs: %+v", s.info)
	}
	if !bytes.Equal(stateOf(t, s.corpus.model, s.result), stateOf(t, m, &res)) {
		t.Fatal("loaded model state or partition differs from the saved one")
	}
	var again bytes.Buffer
	if err := s.corpus.saveSnapshot(&again, info, s.result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatal("re-saving the loaded snapshot changed its bytes")
	}
}

// stateOf is the model's state, with the partition res, as a snapshot
// stores it.
func stateOf(t *testing.T, m *icafc.Model, res *cluster.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := m.WriteState(&b, res); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

var updateSnapshotGolden = flag.Bool("update-snapshot-golden", false, "rewrite testdata/snapshot_v3.bin")

// goldenSnapshot is the fixed corpus behind the byte-pinned v3 fixture:
// hand-written pages (so the fixture changes only with the format),
// three built at once and one appended after, with a two-cluster
// partition.
func goldenSnapshot(t *testing.T) ([]byte, []byte) {
	t.Helper()
	page := func(host, title, field, option string) Document {
		return Document{URL: "http://" + host + ".example/search", HTML: "<html><head><title>" + title +
			"</title></head><body><p>" + title + " search</p><form action=\"/q\">" + field +
			": <input type=\"text\" name=\"" + field + "\"><select name=\"s\"><option>" + option +
			"</option></select></form></body></html>"}
	}
	c, err := NewCorpus([]Document{
		page("books", "Used books", "author", "hardcover"),
		page("cars", "Used cars", "make", "sedan"),
		page("jobs", "Job listings", "keywords", "full time"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append([]Document{page("music", "Music albums", "artist", "vinyl")}); err != nil {
		t.Fatal(err)
	}
	res := cluster.Result{K: 2, Assign: []int{0, 1, 1, 0}}
	for _, members := range cluster.Members(res.Assign, 2) {
		res.Centroids = append(res.Centroids, c.model.Centroid(members))
	}
	var buf bytes.Buffer
	if err := c.saveSnapshot(&buf, SnapshotInfo{Epoch: 2, WALOffset: 2}, &res); err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := c.writePayload(&payload, SnapshotInfo{Epoch: 2, WALOffset: 2}, &res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), payload.Bytes()
}

const goldenSnapshotPath = "testdata/snapshot_v3.bin"

// TestSnapshotV3Golden pins the v3 encoder byte for byte, as the WAL
// golden fixture pins WAL frames. The decompressed payload is compared
// first, so a format change is told apart from a change in the flate
// encoder. Run with -update-snapshot-golden after a deliberate format
// change (which also takes a version bump).
func TestSnapshotV3Golden(t *testing.T) {
	file, payload := goldenSnapshot(t)
	if *updateSnapshotGolden {
		if err := os.WriteFile(goldenSnapshotPath, file, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(want, append([]byte("CAFCsnap"), 3)) {
		t.Fatal("golden file lacks the v3 header")
	}
	wantPayload, err := io.ReadAll(flate.NewReader(bytes.NewReader(want[9:])))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, wantPayload) {
		t.Fatalf("v3 payload drifted from %s (%d bytes, want %d)", goldenSnapshotPath, len(payload), len(wantPayload))
	}
	if !bytes.Equal(file, want) {
		t.Fatalf("v3 file bytes drifted from %s with an identical payload: the flate encoder changed", goldenSnapshotPath)
	}
	c, info, err := LoadSnapshot(bytes.NewReader(want))
	if err != nil || c.Len() != 4 || info != (SnapshotInfo{Epoch: 2, WALOffset: 2}) {
		t.Fatalf("golden file loads as %v pages at %+v (%v)", c, info, err)
	}
}

// TestSnapshotV3NoLargerThanV2 holds v3 to v2's size at the paper's 454
// pages and at serve's 2000.
func TestSnapshotV3NoLargerThanV2(t *testing.T) {
	sizes := []int{454, 2000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		docs, _, _, _ := testDocs(t, 4001, n)
		c, err := NewCorpus(docs, Options{SkipNonSearchable: true})
		if err != nil {
			t.Fatal(err)
		}
		var v2, v3 bytes.Buffer
		pcs, fcs := tfidfMaps(t, c, docs)
		if err := saveV2(c, pcs, fcs, &v2, SnapshotInfo{Epoch: 1, WALOffset: 1}); err != nil {
			t.Fatal(err)
		}
		if err := c.SaveSnapshot(&v3, SnapshotInfo{Epoch: 1, WALOffset: 1}); err != nil {
			t.Fatal(err)
		}
		t.Logf("%d pages: v2 %d bytes, v3 %d bytes", c.Len(), v2.Len(), v3.Len())
		if v3.Len() > v2.Len() {
			t.Errorf("%d pages: v3 is %d bytes, v2 %d", c.Len(), v3.Len(), v2.Len())
		}
	}
}

// FuzzLoadSnapshot: every input loads to a corpus or fails with an
// error; none panics, and a loaded partition indexes the loaded pages.
// Each input is also decoded as an uncompressed v3 payload, so the
// fuzzer reaches the decoder without first forging a flate stream. No
// length prefix may allocate beyond the bytes that remain (the decoder's
// count checks), which keeps every input's memory proportional to its
// size.
func FuzzLoadSnapshot(f *testing.F) {
	seed := func(b []byte) {
		f.Add(b)
		for _, cut := range []int{1, 8, 9, 10, len(b) / 3, len(b) / 2, len(b) - 1} {
			if cut < len(b) {
				f.Add(b[:cut])
			}
		}
	}
	golden, err := os.ReadFile(goldenSnapshotPath)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := io.ReadAll(flate.NewReader(bytes.NewReader(golden[9:])))
	if err != nil {
		f.Fatal(err)
	}
	// The refused formats: a version 2 snapshot, gzip-wrapped junk and
	// bare gzip magic, alone and before the version 3 magic.
	_, v2 := v2Snapshot(f)
	var junk bytes.Buffer
	zw := newGzip(&junk)
	_, _ = zw.Write([]byte("junk"))
	_ = zw.Close()
	for _, b := range [][]byte{golden, payload, v2, junk.Bytes()} {
		seed(b)
	}
	f.Add(gzipMagic)
	f.Add(append(append([]byte(nil), gzipMagic...), snapshotMagic...))
	check := func(t *testing.T, s *loadedSnapshot) {
		c := s.corpus
		if c.Len() != c.model.Len() {
			t.Fatalf("corpus of %d URLs over %d pages", c.Len(), c.model.Len())
		}
		if c.Len() > 0 {
			c.Similarity(0, c.Len()-1)
		}
		if s.result != nil {
			c.newClustering(*s.result)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if s, err := loadSnapshot(bytes.NewReader(b), Options{}); err == nil {
			check(t, s)
		}
		if s, err := decodeSnapshot(b, Options{}); err == nil {
			check(t, s)
		}
	})
}
